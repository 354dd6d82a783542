"""Smoke + shape tests for the experiment drivers (scaled-down configs).

The full configurations run through ``python -m repro.experiments.runner``
(README, *Reproducing the paper's experiments*); here each driver runs on
a small instance and the *shape* assertions of the paper are checked:
MEXP's basis bigger than I-/R-MATEX's, Fig. 5's error-vs-h decrease,
distributed beating fixed-step TR, the Eq. 12 model tracking the
measured speedup, etc.

Some of these are wall-clock ratios from a single run.  Each one's
comment gives its range over ten fresh-process runs (one BLAS thread,
2-core x86-64 box with one other process running), so a later failure
can be told apart from noise.
"""

import pytest

from repro.experiments.fig5 import run_fig5
from repro.experiments.gamma_ablation import run_gamma_ablation
from repro.experiments.runner import main as runner_main
from repro.experiments.speedup_model import fit_model_constants, run_speedup_model
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        _, rows = run_table1(
            rows=10, cols=10, m_max=150,
            levels=[("low", 8.0, 1e3), ("high", 40.0, 1e8)],
        )
        return rows

    def test_all_methods_accurate(self, rows):
        assert all(r.err_pct < 1.0 for r in rows)

    def test_mexp_needs_bigger_basis(self, rows):
        by = {(r.level, r.method): r for r in rows}
        for level in ("low", "high"):
            assert by[(level, "standard")].ma > by[(level, "inverted")].ma
            assert by[(level, "standard")].ma > 2 * by[(level, "rational")].ma

    def test_mexp_basis_grows_with_stiffness(self, rows):
        by = {(r.level, r.method): r for r in rows}
        assert by[("high", "standard")].mp > by[("low", "standard")].mp
        assert by[("high", "standard")].ma > by[("low", "standard")].ma

    def test_speedups_positive(self, rows):
        assert all(r.speedup_vs_mexp > 0 for r in rows)
        # Both spectral transforms beat MEXP at every stiffness
        # (smallest of the four ratios: 4.2 … 5.1 over ten runs).
        assert all(r.speedup_vs_mexp > 1.0 for r in rows
                   if r.method != "standard")


class TestFig5:
    @pytest.fixture(scope="class")
    def points(self):
        _, points = run_fig5(rows=6, cols=6, dims=[4, 8],
                             steps=[1e-12, 1e-11, 1e-10])
        return points

    def test_error_decreases_with_h(self, points):
        """The paper's Fig. 5 observation, for each fixed m."""
        for m in {p.m for p in points}:
            errs = [p.error for p in points if p.m == m]
            assert errs[-1] < errs[0]

    def test_error_decreases_with_m(self, points):
        assert {p.m for p in points} == {4, 8}  # no early breakdown
        by_h = {}
        for p in points:
            by_h.setdefault(p.h, {})[p.m] = p.error
        for d in by_h.values():
            ms = sorted(d)
            assert d[ms[-1]] <= d[ms[0]]


class TestTable3Shape:
    def test_distributed_beats_fixed_tr(self):
        _, rows = run_table3(cases=["pg1t", "pg4t"], golden_h=None)
        pg1t, pg4t = rows
        assert pg1t.n_groups == 100
        assert pg1t.avg_node_pairs < 100  # ~60 pairs/node in the paper
        for row in rows:
            # Ten runs: Spdp4 4.8 … 13.9 (pg1t), 16.4 … 39.4 (pg4t).
            assert row.spdp4 > 2.0      # transient-part speedup
            # Ten runs: Spdp5 1.5 … 2.3 (pg1t), 7.4 … 13.0 (pg4t).
            assert row.spdp5 > 1.0      # total speedup
            assert row.max_err < 1e-3   # agrees with the TR baseline
        # The few-GTS case wins biggest: pg4t / pg1t Spdp4 is 1.5 … 6.2
        # over ten runs.
        assert pg4t.spdp4 > pg1t.spdp4


class TestTable2Shape:
    def test_matex_beats_adaptive_tr_on_pg4t(self):
        # pg4t: few transition spots — the paper's best case.
        _, rows = run_table2(cases=["pg4t"])
        row = rows[0]
        # Ten runs: Spdp1 12.5 … 25.8, Spdp2 14.9 … 28.1.
        assert row.spdp1 > 1.0
        assert row.spdp2 > 1.0
        assert row.tr_adaptive_factorizations > 2


class TestAncillary:
    def test_speedup_model_constants_positive(self):
        from repro.pdn import build_case

        system, _ = build_case("pg1t")
        model = fit_model_constants(system, n_probe=5)
        assert model.t_bs > 0.0
        assert model.t_he > 0.0

    def test_speedup_model_tracks_decomposition(self):
        """Sec. 3.4 on pg1t: one node vs the natural 100-node split."""
        _, samples = run_speedup_model(case="pg1t", node_counts=[1, 100])
        one, natural = samples
        assert [s.n_nodes for s in samples] == [1, 100]
        assert one.k_max > natural.k_max              # 144 -> 5 LTS
        # Ten runs: measured Spdp4 0.37 … 0.45 at one node, 4.6 … 14.6
        # at 100.
        assert natural.measured_spdp4 > one.measured_spdp4
        # Eq. 12 lands within a small factor of the measurement
        # (predicted / measured at 100 nodes: 0.24 … 0.69 over ten runs).
        assert 0.2 < natural.predicted_spdp4 / natural.measured_spdp4 < 5.0

    def test_gamma_ablation_flat_near_step_scale(self):
        _, samples = run_gamma_ablation(
            case="pg1t", gammas=[1e-11, 1e-10, 1e-9], golden_h=2e-12,
        )
        errs = [s.max_err for s in samples]
        dims = [s.mp for s in samples]
        # Within ±1 decade of the step scale, accuracy stays good and
        # basis sizes stay small — the paper's insensitivity claim.
        assert max(errs) < 1e-3
        assert max(dims) <= min(dims) + 6

    def test_runner_cli(self, capsys):
        assert runner_main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
