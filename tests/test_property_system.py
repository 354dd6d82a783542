"""Property-based tests on system-level invariants (hypothesis).

The heart of MATEX is linear-system superposition; these tests verify it
on randomly generated RC circuits and inputs, plus structural MNA
invariants that must hold for any generated topology.
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Netlist, Pulse, assemble, ingest_file, write_file
from repro.core import MatexSolver, SolverOptions
from repro.linalg import SparseLU, exact_transient
from tests.stamp_oracle import element_rows


@st.composite
def random_rc_circuit(draw):
    """Small random RC ladder/tree with 2 pulse sources."""
    n = draw(st.integers(min_value=3, max_value=8))
    net = Netlist("prop-rc")
    for i in range(n):
        parent = "0" if i == 0 else f"p{draw(st.integers(0, i - 1))}"
        r = draw(st.floats(0.5, 5.0))
        c = draw(st.floats(5e-14, 5e-13))
        net.add_resistor(f"R{i}", parent, f"p{i}", r)
        net.add_capacitor(f"C{i}", f"p{i}", "0", c)
    for k in range(2):
        node = f"p{draw(st.integers(0, n - 1))}"
        peak = draw(st.floats(1e-4, 5e-3))
        delay = draw(st.floats(5e-11, 3e-10))
        net.add_current_source(
            f"I{k}", node, "0",
            Pulse(0.0, peak, delay, 2e-11, 1e-10, 2e-11),
        )
    return net


@given(net=random_rc_circuit())
@settings(max_examples=15, deadline=None)
def test_superposition_of_sources(net):
    """response(u0 + u1) == response(u0) + response(u1), zero IC."""
    system = assemble(net)
    t_end = 8e-10
    x0 = np.zeros(system.dim)
    gts = system.global_transition_spots(t_end)
    _, full = exact_transient(system, x0, t_end, extra_times=gts)
    _, part0 = exact_transient(system, x0, t_end, active=[0], extra_times=gts)
    _, part1 = exact_transient(system, x0, t_end, active=[1], extra_times=gts)
    scale = max(1.0, np.abs(full).max())
    assert np.allclose(part0 + part1, full, atol=1e-8 * scale)


@given(net=random_rc_circuit())
@settings(max_examples=10, deadline=None)
def test_matex_matches_oracle_on_random_circuits(net):
    system = assemble(net)
    t_end = 8e-10
    x0 = np.zeros(system.dim)
    times, X = exact_transient(system, x0, t_end)
    solver = MatexSolver(
        system, SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-9)
    )
    res = solver.simulate(t_end, x0=x0)
    scale = max(np.abs(X).max(), 1e-6)
    assert np.max(np.abs(res.states - X)) < 1e-5 * scale + 1e-12


@given(net=random_rc_circuit())
@settings(max_examples=15, deadline=None)
def test_mna_structural_invariants(net):
    system = assemble(net)
    g = np.asarray(system.G.todense())
    c = np.asarray(system.C.todense())
    # RC-only MNA: both matrices symmetric, G PD (grounded), C PSD.
    assert np.allclose(g, g.T)
    assert np.allclose(c, c.T)
    eig_g = np.linalg.eigvalsh(g)
    eig_c = np.linalg.eigvalsh(c)
    assert eig_g.min() > 0.0
    assert eig_c.min() >= -1e-25


@given(
    net=random_rc_circuit(),
    scale=st.floats(0.25, 4.0),
)
@settings(max_examples=10, deadline=None)
def test_response_scales_linearly(net, scale):
    """Scaling every input by a scales the zero-IC response by a."""
    system = assemble(net)
    t_end = 8e-10
    x0 = np.zeros(system.dim)
    _, base = exact_transient(system, x0, t_end)

    scaled_net = Netlist("scaled")
    for r in element_rows(net, "r"):
        scaled_net.add_resistor(r.name, r.pos, r.neg, r.value)
    for cp in element_rows(net, "c"):
        scaled_net.add_capacitor(cp.name, cp.pos, cp.neg, cp.value)
    for i in element_rows(net, "i"):
        w = i.waveform
        scaled_net.add_current_source(
            i.name, i.pos, i.neg,
            Pulse(w.v1 * scale, w.v2 * scale, w.t_delay, w.t_rise,
                  w.t_width, w.t_fall),
        )
    scaled_system = assemble(scaled_net)
    _, scaled = exact_transient(scaled_system, x0, t_end)
    # The dense oracle is exact only to expm accuracy, and the scaled
    # input changes the augmented matrix norm — the Padé scaling/
    # squaring branch can differ between the two runs.  A hypothesis-
    # found 3-node RC net with scale=4.0 measured a worst relative
    # deviation of 1.17e-5 between the two oracle runs (just over
    # numpy's default rtol=1e-5), flaking this test with the original
    # absolute-only tolerance.  Linearity violations from an actual bug
    # would be O(1), so 1e-4 relative keeps the property sharp.
    tol = 1e-9 * max(1.0, np.abs(scaled).max())
    assert np.allclose(scaled, scale * base, rtol=1e-4, atol=tol)


@st.composite
def random_rlc_deck(draw):
    """A random RC tree, optionally with a supply pad behind a package
    inductor and inductive links — the branch rows MNA adds."""
    net = draw(random_rc_circuit())
    n = net.counts["c"]
    if draw(st.booleans()):
        net.add_voltage_source("Vdd", "pad", "0", 1.8)
        net.add_inductor(
            "Lpkg", "pad", f"p{draw(st.integers(0, n - 1))}",
            draw(st.floats(1e-11, 1e-9)),
        )
    for k in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        net.add_inductor(f"L{k}", f"p{a}", f"p{b}", draw(st.floats(1e-11, 1e-9)))
    return net


def _pattern_asymmetry(matrix) -> int:
    """Stored positions of ``matrix`` missing from its transpose."""
    m = sp.csc_matrix(matrix)
    pattern = sp.csc_matrix(
        (np.ones(m.nnz), m.indices, m.indptr), shape=m.shape
    )
    return (pattern != pattern.T).nnz


@given(net=random_rlc_deck())
@settings(max_examples=25, deadline=None)
def test_mna_patterns_are_structurally_symmetric(net):
    """The premise of ``SparseLU``'s ordering: every pencil assembled
    or streamed from a deck has ``pattern(A) == pattern(Aᵀ)``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deck.spice"
        write_file(net, path, t_end=1e-9, order="insertion")
        streamed = ingest_file(path).system
    for system in (assemble(net), streamed):
        for matrix in (system.G, system.C, system.C + 1e-10 * system.G):
            assert _pattern_asymmetry(matrix) == 0


@given(
    n=st.integers(5, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_sparse_lu_does_not_rest_on_pattern_symmetry(n, seed):
    """A deliberately pattern-unsymmetric system solves to the residual
    of ``scipy.sparse.linalg.spsolve``: the ordering is tuned for
    symmetric patterns, the answer does not depend on one."""
    rng = np.random.default_rng(seed)
    upper = sp.triu(sp.random_array((n, n), density=0.3, rng=rng), k=1)
    corner = sp.coo_array(([1.0], ([0], [n - 1])), shape=(n, n))
    matrix = sp.csc_matrix(
        upper + corner + sp.diags_array(2.0 + rng.random(n))
    )
    assert _pattern_asymmetry(matrix) > 0
    rhs = rng.standard_normal(n)
    scale = np.abs(matrix).sum(axis=1).max() * np.abs(rhs).max()
    ref = np.abs(matrix @ spla.spsolve(matrix, rhs) - rhs).max()
    got = np.abs(matrix @ SparseLU(matrix).solve(rhs) - rhs).max()
    assert got <= ref + 1e-14 * scale
