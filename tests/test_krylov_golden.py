"""Golden Krylov-kernel digests: the one Arnoldi build, at any width.

``tests/golden/krylov_digests.json`` holds, per case, the SHA-256 of the
``Vm`` / ``Hm`` / ``err_row`` bytes of one :class:`KrylovBasis` plus its
``m``, ``beta``, ``h_next`` and ``error_estimate``, recorded by
``op.build_basis`` — the one-column call of the lockstep routine, on its
vector-major workspace (one contiguous row per vector; the number of
rows it starts with moves no bit).  :func:`build_bases_block` at
widths 1, 3 and 7 must reproduce them.  (Before the workspace turned
vector-major the file held the bits of the deleted scalar twin; the
layout change moved them in the last ulp — the CGS2 ``gemv`` sees
another operand layout — and they were re-recorded by the new code,
every case keeping its ``m``.)  ``error_estimate`` is compared to 1e-6
relative, as it always was.

The file also carries one ``method="standard"`` scheduler state digest
(``tests/golden/state_digests.json`` covers rational and inverted only),
recorded by ``MatexScheduler(batch="off")``; the scalar
:func:`tests.scalar_oracle.run_task` march is its tolerance oracle.

Same determinism boundary and skip-with-reason as
``tests/test_golden_digests.py``.  Regenerate (from the repository root,
only when the numbers are meant to change):
``python -m tests.test_krylov_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import assemble
from repro.core import SolverOptions
from repro.dist import MatexScheduler
from repro.linalg.block_krylov import build_bases_block
from repro.linalg.krylov import make_krylov_operator
from repro.pdn import stiff_rc_mesh
from tests.conftest import ScalarOracleExecutor, build_multi_source_mesh
from tests.scalar_oracle import oracle_spread
from tests.test_golden_digests import assert_oracle_agrees, digest, fingerprint

GOLDEN_PATH = Path(__file__).parent / "golden" / "krylov_digests.json"

METHODS = ("standard", "inverted", "rational")
GAMMA = 1e-10
WIDTHS = (1, 3, 7)


# -- pencils -------------------------------------------------------------------------


def _stiff():
    """The stiff mesh of the cross-width regression (144 unknowns)."""
    system = assemble(stiff_rc_mesh(
        12, 12, fast_ratio=20, slow_ratio=1e4, n_sources=2, seed=3
    ))
    return system.C, system.G


def _diag():
    """Diagonal pencil: a start vector on k axes spans a k-dim invariant
    subspace, so Arnoldi ends in a happy breakdown at m = k."""
    c = sp.diags(1e-12 * np.arange(1.0, 9.0)).tocsc()
    g = sp.diags(np.arange(2.0, 10.0)[::-1].copy()).tocsc()
    return c, g


def _cyclic():
    """``C = I``, ``G = Pᵀ`` (cyclic shift): the inverted operator is
    ``P``, whose Hessenberg blocks are nilpotent — exactly singular — at
    every m < 5, so every posterior test before the final happy
    breakdown takes the "no ``e_mᵀH⁻¹`` row → not converged" rule."""
    n = 5
    p = sp.csc_matrix(
        (np.ones(n), ((np.arange(n) + 1) % n, np.arange(n))), shape=(n, n)
    )
    return sp.identity(n, format="csc"), p.T.tocsc()


def _nocap():
    """Singular ``C`` (node 0 has no capacitor): ``e_0`` lies in the
    algebraic part, ``G⁻¹C e_0 = 0`` — a happy breakdown whose 1×1 block
    is exactly zero, so ``Hm`` comes from the identity-shifted inverse."""
    n = 6
    c = sp.diags(1e-12 * np.arange(0.0, n)).tocsc()
    g = sp.diags(
        [-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsc()
    return c, g


PENCILS = {"stiff": _stiff, "diag": _diag, "cyclic": _cyclic, "nocap": _nocap}


def _unit(n: int, *axes: int) -> np.ndarray:
    v = np.zeros(n)
    for k, axis in enumerate(axes):
        v[axis] = 1.0 + k
    return v


def _cases() -> dict[str, dict]:
    """name -> pencil, method, start vector and ``build_basis`` arguments."""
    cases = {}
    v_stiff = np.random.default_rng(1).normal(size=144)
    for method in METHODS:
        # standard reaches m = 75 and 105: past the m > 60 test throttle
        # and two doublings of the 32-column workspace.
        for h in (1e-11, 1e-9):
            cases[f"stiff/{method}/h={h:g}"] = dict(
                pencil="stiff", method=method, v=v_stiff, h=h,
                tol=1e-8, m_max=300, min_dim=2,
            )
        cases[f"stiff/{method}/zero-vector"] = dict(
            pencil="stiff", method=method, v=np.zeros(144), h=1e-11,
            tol=1e-8, m_max=300, min_dim=2,
        )
        cases[f"diag/{method}/happy-breakdown"] = dict(
            pencil="diag", method=method, v=_unit(8, 0, 3, 6), h=1e-11,
            tol=1e-30, m_max=8, min_dim=2,
        )
    cases["cyclic/inverted/singular-blocks"] = dict(
        pencil="cyclic", method="inverted", v=_unit(5, 0), h=1e-1,
        tol=1e-8, m_max=5, min_dim=1,
    )
    cases["nocap/inverted/algebraic-start"] = dict(
        pencil="nocap", method="inverted", v=_unit(6, 0), h=1e-11,
        tol=1e-8, m_max=6, min_dim=1,
    )
    return cases


CASES = _cases()


def _operator(case: dict):
    C, G = PENCILS[case["pencil"]]()
    return make_krylov_operator(case["method"], C, G, gamma=GAMMA)


def _sha(a: np.ndarray | None) -> str | None:
    if a is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def basis_record(basis) -> dict:
    return {
        "m": basis.m,
        "beta": basis.beta,
        "h_next": basis.h_next,
        "error_estimate": basis.error_estimate,
        "Vm_sha256": _sha(basis.Vm),
        "Hm_sha256": _sha(basis.Hm),
        "err_row_sha256": _sha(basis.err_row),
    }


def assert_matches(basis, recorded: dict) -> None:
    got = basis_record(basis)
    estimate = got.pop("error_estimate")
    expected = dict(recorded)
    assert estimate == pytest.approx(expected.pop("error_estimate"), rel=1e-6)
    assert got == expected


# -- the scheduler case --------------------------------------------------------------

STANDARD_STATE_CASE = "mesh-standard"


def _standard_state(batch="off", executor=None):
    system = assemble(build_multi_source_mesh())
    opts = SolverOptions(method="standard", eps_rel=1e-8)
    if executor is not None:
        executor = executor(system, opts)
    return MatexScheduler(system, opts, decomposition="bump", batch=batch).run(
        1e-9, executor=executor
    )


# -- the tests -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN_PATH.read_text())
    here = fingerprint()
    if recorded["fingerprint"] != here:
        pytest.skip(
            f"golden digests are pinned for {recorded['fingerprint']}; "
            f"this stack is {here} — bits may legitimately differ"
        )
    return recorded


def test_every_case_is_recorded(golden):
    assert sorted(golden["bases"]) == sorted(CASES)


def test_cases_cover_what_they_claim(golden):
    bases = golden["bases"]
    assert bases["stiff/standard/h=1e-11"]["m"] > 60
    assert bases["stiff/standard/h=1e-09"]["m"] > 64
    for method in METHODS:
        happy = bases[f"diag/{method}/happy-breakdown"]
        assert happy["m"] == 3 and happy["h_next"] == 0.0
        assert bases[f"stiff/{method}/zero-vector"]["m"] == 0
    assert bases["cyclic/inverted/singular-blocks"]["m"] == 5
    assert bases["nocap/inverted/algebraic-start"]["m"] == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_basis_reproduces_scalar_digests(golden, name):
    case = CASES[name]
    basis = _operator(case).build_basis(
        case["v"], case["h"], case["tol"],
        m_max=case["m_max"], min_dim=case["min_dim"],
    )
    assert_matches(basis, golden["bases"][name])


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_lockstep_build_reproduces_scalar_digests(golden, name, width):
    """The recorded column in the middle of ``width - 1`` companions."""
    case = CASES[name]
    n = case["v"].shape[0]
    pos = width // 2
    vs = [np.random.default_rng(100 + k).normal(size=n) for k in range(width)]
    hs = [case["h"] * (k + 2) / 2 for k in range(width)]
    vs[pos], hs[pos] = case["v"], case["h"]
    op = _operator(case)
    bases = build_bases_block(
        op, vs, hs, [case["tol"]] * width,
        m_max=case["m_max"], min_dim=case["min_dim"],
    )
    assert_matches(bases[pos], golden["bases"][name])
    assert op.n_solves == sum(b.m for b in bases)


@pytest.mark.parametrize("batch", ["off", 7])
def test_standard_method_reproduces_scalar_state_digest(golden, batch):
    assert digest([_standard_state(batch)]) == golden["states"][STANDARD_STATE_CASE]


def test_scalar_oracle_reproduces_standard_state_digest(golden):
    """``run_task`` agrees inside its calibrated round-off budget, and
    exactly on every decision."""
    def oracle():
        return _standard_state(executor=ScalarOracleExecutor)

    assert_oracle_agrees(
        oracle(), _standard_state(),
        oracle_spread(lambda: oracle().result.states),
    )


def _regenerate() -> None:
    """Rewrite the golden file from ``op.build_basis`` and ``batch="off"``."""
    bases = {}
    for name, case in CASES.items():
        bases[name] = basis_record(_operator(case).build_basis(
            case["v"], case["h"], case["tol"],
            m_max=case["m_max"], min_dim=case["min_dim"],
        ))
    states = {STANDARD_STATE_CASE: digest([_standard_state()])}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {
            "recorded_by": (
                "op.build_basis (one column, vector-major workspace) and "
                'MatexScheduler(batch="off") on the serial executor'
            ),
            "fingerprint": fingerprint(),
            "bases": bases,
            "states": states,
        },
        indent=2,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
