"""ETD vectors by input shape: ``2q`` substitution pairs a node, not ``3k``.

The block runner factors a task's inputs over their distinct shapes
(:mod:`repro.core.shapes`) and solves ``G⁻¹b_j`` and ``G⁻¹CG⁻¹b_j`` once
per shape; every segment's ``F`` and ``w_2`` are combinations of those.
Pinned here: the count is ``2q`` per task on pg1t (natural and merged to
eight nodes) and on a deck of the bench deck's shape, while every other
counter and basis dimension is what Alg. 2's three solves per segment
gave (recorded before the change); inputs that share no shape — a
hand-built PWL, a near-copy that fails the factor check — take shapes of
their own and stay inside the oracle's budget; a non-deviation march
carries ``B·u(0)`` as one more shape.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.circuit import PWL, assemble
from repro.core import MatexSolver, SolverOptions
from repro.core.decomposition import SourceGroup
from repro.core.shapes import _block_shapes, _input_shapes
from repro.dist import BlockNodeRunner, MatexScheduler, SimulationTask
from repro.pdn import PdnConfig, WorkloadSpec, attach_pulse_loads, generate_power_grid
from tests.conftest import build_multi_source_mesh, build_small_pdn
from tests.test_block_runner import assert_matches_oracle, oracle_with_spread
from tests.test_golden_digests import CASES

#: Counters of the same runs before the change (three ETD solves per
#: segment): everything but ``n_solves_etd``, which was ``3k``.
BEFORE = {
    "pg1t": dict(
        n_steps=14400, n_krylov_bases=500, n_reuses=13900,
        n_solves_krylov=1596, three_k=1500,
        krylov_dims_sha256="cd0f982d50757c4b3104a50038327a36"
        "80bdd0d4c5a4e4581f3b0cfc2f3be4c5",
    ),
    "pg1t-8": dict(
        n_steps=1152, n_krylov_bases=361, n_reuses=791,
        n_solves_krylov=1431, three_k=1083,
        krylov_dims_sha256="d69f73190e9a2291f1ef19a0547bb7e9"
        "a357c7c7f481ce1faabb06a2b1ac2368",
    ),
    "deck": dict(
        n_steps=800, n_krylov_bases=80, n_reuses=720,
        n_solves_krylov=143, three_k=240,
        krylov_dims_sha256="41c8ae75e4d09dbc8f50b26cd51ea0d5"
        "cfc8c87c497deff04f20bfb2876143f7",
    ),
}


def _deck():
    """The bench deck's load pattern (16 bump shapes, 2400 sources,
    seed 2014) on a 16 × 16 grid instead of 128 × 128."""
    net = generate_power_grid(PdnConfig(rows=16, cols=16, seed=2014))
    attach_pulse_loads(net, WorkloadSpec(
        n_sources=2400, n_shapes=16, t_end=1e-8, time_grid_points=150,
        seed=2014,
    ))
    return assemble(net), 1e-8


def _pulse_timings(system, columns) -> int:
    """Distinct pulse timings among ``columns``: their input shapes."""
    return len({
        (w.t_delay, w.t_rise, w.t_width, w.t_fall, w.t_period)
        for w in (system.waveforms[c] for c in columns)
    })


@pytest.mark.parametrize("name,max_nodes,q", [
    ("pg1t", None, 100), ("pg1t-8", 8, 100), ("deck", None, 16),
])
def test_two_pairs_per_shape_and_every_decision_as_before(name, max_nodes, q):
    if name == "deck":
        system, t_end = _deck()
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-6)
    else:
        system, opts, t_end, _ = CASES["pg1t"]()
    dres = MatexScheduler(
        system, opts, max_nodes=max_nodes, batch="auto"
    ).run(t_end)
    groups = MatexScheduler(system, opts, max_nodes=max_nodes).groups()
    per_task = [_pulse_timings(system, g.input_columns) for g in groups]
    assert sum(per_task) == q
    assert [s.n_solves_etd for s in dres.node_stats] == [2 * k for k in per_task]
    before = BEFORE[name]
    assert sum(s.n_solves_etd for s in dres.node_stats) == 2 * q
    assert 2 * q < before["three_k"]
    for counter in ("n_steps", "n_krylov_bases", "n_reuses", "n_solves_krylov"):
        assert sum(getattr(s, counter) for s in dres.node_stats) == before[counter]
    dims = json.dumps([list(s.krylov_dims) for s in dres.node_stats])
    assert hashlib.sha256(dims.encode()).hexdigest() == before["krylov_dims_sha256"]


def _pwl_mesh():
    """The mesh plus three PWL loads sharing no shape with anything:
    ``Ib`` is not proportional to ``Ia``, and ``Ic`` is ``3 × Ia`` but
    for one sample moved by 4e-11 of its peak — equal to ``Ia``'s shape
    to the nine digits rows are grouped on, not to ``SHAPE_RTOL``."""
    net = build_multi_source_mesh()
    a = [(0.0, 0.0), (1e-10, 0.0), (2e-10, 2e-3), (4e-10, 1e-3), (6e-10, 0.0)]
    b = [(0.0, 0.0), (1e-10, 0.0), (2e-10, 1e-3), (4e-10, 2e-3), (6e-10, 0.0)]
    c = [(t, 3.0 * v) for t, v in a]
    c[3] = (4e-10, 3e-3 * (1.0 + 4e-11))
    for name, node, pts in (("Ia", "n1_4", a), ("Ib", "n3_2", b), ("Ic", "n5_0", c)):
        net.add_current_source(name, node, "0", PWL(pts))
    return assemble(net)


class TestInputsThatShareNoShape:
    def test_each_takes_its_own_shape(self):
        system = _pwl_mesh()
        pts = np.asarray(system.global_transition_spots(1e-9))
        U = np.array([w.values_array(pts) for w in system.waveforms])
        shapes, shape_of, _pivot = _input_shapes(U)
        # I1 and I3 share a pulse; I2, Ia, Ib and Ic have one each.
        assert len(shapes) == 5
        assert shape_of[0] == shape_of[2]
        assert len(set(shape_of[[1, 3, 4, 5]])) == 4

    def test_march_stays_inside_the_oracle_budget(self):
        system = _pwl_mesh()
        opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
        gts = tuple(system.global_transition_spots(1e-9))
        group = SourceGroup(0, "all", tuple(range(system.n_inputs)))
        tasks = [SimulationTask(0, group, 1e-9, gts)]
        oracle, spread = oracle_with_spread(system, tasks, opts)
        (got,) = BlockNodeRunner(system, opts).run(tasks)
        assert got.stats.n_solves_etd == 2 * 5
        assert_matches_oracle(oracle, [got], spread)


def test_a_non_deviation_march_carries_u0_as_one_more_shape():
    """The small PDN's 1.8 V pad is constant: no shape of its own, but
    ``B·u(0)`` is one more (constant) shape of an absolute march."""
    system = assemble(build_small_pdn())
    opts = SolverOptions(method="rational", gamma=1e-10, eps_rel=1e-8)
    res = MatexSolver(system, opts).simulate(1e-9)
    assert res.stats.n_solves_etd == 2 * (2 + 1)
    dev = MatexSolver(system, opts, deviation_mode=True).simulate(1e-9)
    assert dev.stats.n_solves_etd == 2 * 2


def test_a_block_is_factored_as_if_alone():
    """A chunk's input rows are factored block by block in one pass:
    each block's shapes, assignments and pivots are byte for byte those
    of the block alone — with shared shapes, constant rows, a near-copy
    that fails the check, and blocks with no moving row beside it."""
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 23)
    bump = np.interp(t, [0.0, 0.2, 0.3, 0.6, 0.7], [0.0, 0.0, 1.0, 1.0, 0.0])
    ramp = np.interp(t, [0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    for _ in range(40):
        blocks = []
        for _ in range(rng.integers(1, 6)):
            rows = []
            for _ in range(rng.integers(0, 6)):
                kind = rng.integers(0, 5)
                level = rng.standard_normal()
                if kind == 0:
                    rows.append(np.full(t.size, level))
                elif kind == 1:
                    rows.append(level + rng.uniform(1e-4, 1e2) * bump)
                elif kind == 2:
                    rows.append(level + rng.uniform(1e-4, 1e2) * ramp)
                elif kind == 3:
                    rows.append(3.0 * bump * (1 + 1e-11 * rng.standard_normal(t.size)))
                else:
                    rows.append(rng.standard_normal(t.size))
            blocks.append(np.array(rows).reshape(len(rows), t.size))
        bounds = np.cumsum([0] + [len(b) for b in blocks])
        chunk = _block_shapes(np.concatenate(blocks), bounds)
        for block, got in zip(blocks, chunk):
            for ref, arr in zip(_input_shapes(block), got):
                assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes()
