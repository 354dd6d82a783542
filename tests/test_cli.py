"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.circuit import format_netlist
from repro.cli import METHODS, main
from repro.pdn import PdnConfig, WorkloadSpec, build_netlist, synthesize_ibmpg


@pytest.fixture
def deck(tmp_path, small_pdn):
    path = tmp_path / "grid.spice"
    path.write_text(format_netlist(small_pdn, t_end=1e-9))
    return path


class TestInfo:
    def test_prints_summary(self, deck, capsys):
        assert main(["info", str(deck), "--t-end", "1n"]) == 0
        out = capsys.readouterr().out
        assert "C singular: True" in out
        assert "transition spots" in out
        assert "bump groups" in out


class TestInfoSummaryLine:
    """``repro info`` prints the summary line the system records at the
    stamp (the literals are what it printed while the system kept the
    whole netlist)."""

    def test_generated_pg1t_deck(self, tmp_path, capsys):
        deck = tmp_path / "pg1t.spice"
        deck.write_text(format_netlist(build_netlist("pg1t"), t_end=1e-9))
        assert main(["info", str(deck), "--t-end", "1n"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "pg1t: 1054 nodes, 2039 R, 1020 C, 0 L, 4 V, 800 I (dim 1058)"
        )

    def test_ibmpg_deck_with_package_inductors(self, tmp_path, capsys):
        deck = tmp_path / "pkg.spice"
        synthesize_ibmpg(
            deck, PdnConfig(rows=10, cols=10, l_package=1e-10, seed=3),
            WorkloadSpec(n_sources=12, n_shapes=3, t_end=1e-8, seed=5),
        )
        assert main(["info", str(deck), "--t-end", "1n"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "pkg: 112 nodes, 191 R, 100 C, 4 L, 4 V, 12 I (dim 120)"
        )


class TestDc:
    def test_prints_rails(self, deck, capsys):
        assert main(["dc", str(deck), "--nodes", "pad"]) == 0
        out = capsys.readouterr().out
        assert "pad: 1.8" in out


class TestSimulate:
    def test_csv_export(self, deck, tmp_path, capsys):
        out = tmp_path / "waves.csv"
        code = main([
            "simulate", str(deck), "--t-end", "1n",
            "--nodes", "g0_0", "g3_3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,g0_0,g3_3"
        assert len(lines) > 3
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.8, abs=0.05)  # near VDD at DC

    def test_npz_export(self, deck, tmp_path):
        out = tmp_path / "waves.npz"
        assert main(["simulate", str(deck), "--t-end", "1n",
                     "--out", str(out)]) == 0
        data = np.load(out)
        assert data["states"].shape[0] == data["times"].shape[0]
        assert "g0_0" in list(data["node_names"])

    def test_distributed_flag(self, deck, capsys):
        assert main(["simulate", str(deck), "--t-end", "1n",
                     "--distributed"]) == 0
        assert "distributed:" in capsys.readouterr().out

    def test_droop_report(self, deck, capsys):
        assert main(["simulate", str(deck), "--t-end", "1n",
                     "--vdd", "1.8"]) == 0
        assert "worst droop" in capsys.readouterr().out

    def test_spice_suffix_times(self, deck, capsys):
        assert main(["simulate", str(deck), "--t-end", "500p",
                     "--method", "imatex"]) == 0

    def test_bad_output_format(self, deck, tmp_path):
        with pytest.raises(ValueError, match="unsupported output"):
            main(["simulate", str(deck), "--t-end", "1n",
                  "--out", str(tmp_path / "waves.xlsx")])

    def test_batch_negative_exits_with_usage_message(self, deck, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(deck), "--t-end", "1n",
                  "--distributed", "--batch", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "batch width must be >= 1" in err

    def test_batch_garbage_exits_with_usage_message(self, deck, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(deck), "--t-end", "1n",
                  "--distributed", "--batch", "foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected 'off', 'auto' or a positive integer" in err

    def test_batch_without_distributed_is_a_usage_error(self, deck, capsys):
        assert main(["simulate", str(deck), "--t-end", "1n",
                     "--batch", "auto"]) == 2
        assert "only applies to --distributed" in capsys.readouterr().err

    def test_batch_auto_distributed_accepted(self, deck, capsys):
        assert main(["simulate", str(deck), "--t-end", "1n",
                     "--distributed", "--batch", "auto"]) == 0
        assert "distributed:" in capsys.readouterr().out

    def test_distributed_csv_matches_single(self, deck, tmp_path):
        single = tmp_path / "s.csv"
        dist = tmp_path / "d.csv"
        main(["simulate", str(deck), "--t-end", "1n",
              "--nodes", "g2_2", "--out", str(single)])
        main(["simulate", str(deck), "--t-end", "1n", "--distributed",
              "--nodes", "g2_2", "--out", str(dist)])
        a = np.loadtxt(single, delimiter=",", skiprows=1)
        b = np.loadtxt(dist, delimiter=",", skiprows=1)
        assert np.allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("argv,name", [
        (["--method", "rmatex"], "r-matex"),
        (["--method", "imatex"], "i-matex"),
        (["--method", "tr", "--h", "10p"], "tr"),
        (["--method", "be", "--h", "10p"], "be"),
        (["--method", "tr-adaptive"], "tr-adaptive"),
    ])
    def test_method_prints_canonical_name(self, deck, capsys, argv, name):
        assert main(["simulate", str(deck), "--t-end", "500p", *argv]) == 0
        assert f"single node [{name}]:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["simulate", "missing.spice", "--t-end", "1n"],
        ["run", "--netlist", "missing.spice"],
        ["sweep", "--netlist", "missing.spice", "--scenarios", "random:2"],
    ])
    @pytest.mark.parametrize("method", ["rk4", "fe", "trapezoidal", "RMATEX"])
    def test_unknown_method_exits_before_the_deck_opens(
        self, capsys, command, method
    ):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--method", method])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {method!r}" in err
        for spelling in METHODS:
            assert spelling in err

    @pytest.mark.parametrize("method", ["tr", "be"])
    def test_fixed_grid_methods_need_h(self, method):
        with pytest.raises(ValueError, match="pass the step size with --h"):
            main(["simulate", "missing.spice", "--t-end", "1n",
                  "--method", method])

    @pytest.mark.parametrize("method", ["r-matex", "tr-adaptive"])
    def test_h_rejected_for_own_time_axis(self, method):
        with pytest.raises(ValueError, match="chooses its own time axis"):
            main(["simulate", "missing.spice", "--t-end", "1n",
                  "--method", method, "--h", "10p"])

    def test_distributed_baseline_rejected(self):
        with pytest.raises(ValueError, match="needs a MATEX method"):
            main(["simulate", "missing.spice", "--t-end", "1n",
                  "--distributed", "--method", "tr", "--h", "10p"])


class TestRun:
    """The streaming-ingest subcommand (``repro run --netlist``)."""

    @pytest.fixture
    def ibmpg_deck(self, tmp_path):
        from repro.pdn import PdnConfig, WorkloadSpec, synthesize_ibmpg

        path = tmp_path / "pg_like.spice"
        synthesize_ibmpg(
            path,
            PdnConfig(rows=8, cols=8),
            WorkloadSpec(n_sources=6, n_shapes=2, t_end=1e-9,
                         time_grid_points=8),
        )
        return path

    def test_t_end_defaults_to_tran(self, ibmpg_deck, capsys):
        assert main(["run", "--netlist", str(ibmpg_deck)]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "from the deck's .tran directive" in out

    def test_distributed_batched(self, ibmpg_deck, capsys):
        assert main(["run", "--netlist", str(ibmpg_deck),
                     "--distributed", "--batch", "auto"]) == 0
        assert "distributed:" in capsys.readouterr().out

    def test_missing_tran_needs_explicit_t_end(self, tmp_path, capsys):
        deck = tmp_path / "no_tran.spice"
        deck.write_text("R1 a 0 1\nC1 a 0 1p\nI1 a 0 1m\n")
        assert main(["run", "--netlist", str(deck)]) == 2
        assert "pass --t-end" in capsys.readouterr().err
        assert main(["run", "--netlist", str(deck), "--t-end", "1n"]) == 0

    def test_matches_object_parser_simulate(self, ibmpg_deck, tmp_path):
        """simulate and run read the deck alike through the full CLI."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(ibmpg_deck), "--t-end", "1n",
                     "--nodes", "n2_2", "--out", str(a)]) == 0
        assert main(["run", "--netlist", str(ibmpg_deck),
                     "--nodes", "n2_2", "--out", str(b)]) == 0
        va = np.loadtxt(a, delimiter=",", skiprows=1)
        vb = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.allclose(va, vb, atol=1e-9)


class TestSweep:
    @pytest.fixture
    def ibmpg_deck(self, tmp_path):
        from repro.pdn import PdnConfig, WorkloadSpec, synthesize_ibmpg

        path = tmp_path / "pg_like.spice"
        synthesize_ibmpg(
            path,
            PdnConfig(rows=8, cols=8),
            WorkloadSpec(n_sources=6, n_shapes=2, t_end=1e-9,
                         time_grid_points=8),
        )
        return path

    def test_random_scenarios_end_to_end(self, ibmpg_deck, capsys):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:3:7"]) == 0
        out = capsys.readouterr().out
        assert "compiled plan:" in out
        assert "pattern0" in out and "pattern2" in out
        assert "sweep: 3 scenarios" in out
        assert "factor cache:" in out

    def test_json_spec_and_out_dir(self, ibmpg_deck, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '[{"name": "nominal"}, {"name": "hot", "scale_loads": 1.3}]'
        )
        out_dir = tmp_path / "waves"
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", str(spec),
                     "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "nominal" in out and "hot" in out
        data = np.load(out_dir / "hot.npz")
        assert data["states"].shape[0] == data["times"].shape[0]
        nominal = np.load(out_dir / "nominal.npz")
        # A hotter pattern cannot droop less than nominal anywhere.
        assert data["states"].min() <= nominal["states"].min() + 1e-12

    def test_sweep_matches_independent_runs(self, ibmpg_deck, tmp_path,
                                            capsys):
        """CLI sweep scenarios == independent cold CLI runs (nominal)."""
        out_dir = tmp_path / "waves"
        spec = tmp_path / "spec.json"
        spec.write_text('[{"name": "nominal"}]')
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", str(spec),
                     "--out-dir", str(out_dir)]) == 0
        single = tmp_path / "single.npz"
        assert main(["run", "--netlist", str(ibmpg_deck),
                     "--distributed", "--batch", "auto",
                     "--out", str(single)]) == 0
        capsys.readouterr()
        a = np.load(out_dir / "nominal.npz")
        b = np.load(single)
        np.testing.assert_array_equal(a["states"], b["states"])

    def test_per_task_pool_sweep_equals_serial(self, ibmpg_deck, tmp_path,
                                               capsys):
        """``--batch off`` is width 1 on a pool too: same bytes as the
        in-process sweep."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            '[{"name": "nominal"}, {"name": "hot", "scale_loads": 1.3}]'
        )
        outs = {}
        for name, extra in (("serial", []), ("pool", ["--processes", "2"])):
            outs[name] = tmp_path / name
            assert main(["sweep", "--netlist", str(ibmpg_deck),
                         "--scenarios", str(spec), "--batch", "off",
                         "--out-dir", str(outs[name]), *extra]) == 0
        capsys.readouterr()
        for scenario in ("nominal", "hot"):
            a = np.load(outs["serial"] / f"{scenario}.npz")
            b = np.load(outs["pool"] / f"{scenario}.npz")
            assert a["states"].tobytes() == b["states"].tobytes()

    def test_bad_random_spec_is_usage_error(self, ibmpg_deck, capsys):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:0"]) == 2
        assert "random:<n>" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, ibmpg_deck, capsys):
        """A negative seed fails on argv content with a usage message,
        not with a default_rng traceback after the deck load."""
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:3:-1"]) == 2
        err = capsys.readouterr().err
        assert "seed >= 0" in err and "random:3:-1" in err

    def test_rom_sweep_end_to_end(self, ibmpg_deck, capsys):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:3:7",
                     "--rom", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "reduced model: q=" in out
        assert "rom tier:" in out
        assert "external models" in out  # ledger line in cache stats

    @pytest.mark.parametrize("spec", ["abc", "0", "-0.1", "0.05:0",
                                      "0.05:10:3"])
    def test_bad_rom_spec_is_usage_error(self, ibmpg_deck, capsys,
                                         spec):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:2", "--rom", spec]) == 2
        assert "TOL[:QMAX]" in capsys.readouterr().err

    def test_missing_spec_file_is_usage_error(self, ibmpg_deck, capsys):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "nope.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_non_matex_method_is_usage_error(self, ibmpg_deck, capsys):
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:2", "--method", "tr"]) == 2
        assert "MATEX method" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", "--scenarios", "random:2"],
        ["serve", "--socket", "unused.sock"],
    ])
    @pytest.mark.parametrize("method", ["be", "tr-adaptive"])
    def test_baseline_method_is_usage_error_before_the_deck_opens(
        self, capsys, command, method
    ):
        assert main([*command, "--netlist", "missing.spice",
                     "--method", method]) == 2
        captured = capsys.readouterr()
        assert "MATEX method" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, usage_error", [
        (["simulate", "missing.spice", "--t-end", "1n"], False),
        (["run", "--netlist", "missing.spice"], False),
        (["sweep", "--netlist", "missing.spice", "--scenarios", "random:2"],
         True),
        (["serve", "--netlist", "missing.spice", "--socket", "unused.sock"],
         True),
    ])
    @pytest.mark.parametrize("flag, message", [
        ("--gamma=-1", "gamma must be positive"),
        ("--eps=-1", "error budgets must be non-negative"),
    ])
    def test_bad_gamma_or_eps_fails_before_the_deck_opens(
        self, capsys, command, usage_error, flag, message
    ):
        """SolverOptions rejects the value from argv alone, through each
        command's argv-error channel, instead of after the deck load."""
        if usage_error:
            assert main([*command, flag]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
        else:
            with pytest.raises(ValueError, match=message):
                main([*command, flag])

    @pytest.mark.parametrize("command, usage_error", [
        (["simulate", "missing.spice"], False),
        (["run", "--netlist", "missing.spice"], False),
        (["sweep", "--netlist", "missing.spice", "--scenarios", "random:2"],
         True),
        (["serve", "--netlist", "missing.spice", "--socket", "unused.sock"],
         True),
    ])
    @pytest.mark.parametrize("t_end", ["-1n", "0"])
    def test_bad_horizon_fails_before_the_deck_opens(
        self, capsys, command, usage_error, t_end
    ):
        """The horizon is checked from argv alone, through each command's
        argv-error channel: the missing deck is never opened."""
        message = "t_end must be positive and finite"
        if usage_error:
            assert main([*command, f"--t-end={t_end}"]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
        else:
            with pytest.raises(ValueError, match=message):
                main([*command, f"--t-end={t_end}"])

    @pytest.mark.parametrize("flag", [
        ["--retries", "2"], ["--job-timeout", "30"], ["--backoff", "0.1"],
        ["--degrade-after", "3"],
    ])
    def test_supervision_flags_without_a_pool_are_a_usage_error(
        self, ibmpg_deck, capsys, flag
    ):
        """An in-process sweep has no pool to supervise: the flags fail
        from argv alone instead of building a policy nobody reads."""
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", "random:2", *flag]) == 2
        captured = capsys.readouterr()
        assert "only apply to --processes" in captured.err
        assert captured.out == ""  # before the deck load

    def test_seed_determinism_is_pinned_cross_platform(
        self, small_pdn_system
    ):
        """``random:<n>:<seed>`` names the same workload everywhere.

        The factors come from NumPy's PCG64 ``uniform`` stream, which
        is specified bit-exactly independent of platform; these pinned
        values only change if the generator family changes — which
        would silently rename every published sweep workload, so it
        must fail loudly here.
        """
        from repro.pdn import load_pattern_scenarios

        scenarios = load_pattern_scenarios(
            small_pdn_system, n=2, seed=2014
        )
        assert [s.name for s in scenarios] == ["pattern0", "pattern1"]
        assert scenarios[0].scales == (
            (0, 1.4185840281146644), (1, 1.214250727729247),
        )
        assert scenarios[1].scales == (
            (0, 0.7655725634264003), (1, 1.0268330260787777),
        )

    def test_out_dir_sanitises_scenario_names(self, ibmpg_deck, tmp_path,
                                              capsys):
        """Arbitrary spec names cannot escape --out-dir or collide."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            '[{"name": "block/quiet", "scale_loads": 0.9},'
            ' {"name": "block/quiet", "scale_loads": 1.1}]'
        )
        out_dir = tmp_path / "waves"
        assert main(["sweep", "--netlist", str(ibmpg_deck),
                     "--scenarios", str(spec),
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["block_quiet.1.npz", "block_quiet.npz"]
        # Both trajectories are real and distinct (different scalings).
        a = np.load(out_dir / "block_quiet.npz")["states"]
        b = np.load(out_dir / "block_quiet.1.npz")["states"]
        assert a.shape == b.shape and not np.array_equal(a, b)


class TestDeckErrors:
    """A deck the reader rejects is a usage error (exit 2) naming its line."""

    @pytest.mark.parametrize("text, message", [
        ("R1 a 0 1\nC1 a 0 1p\nR2 a 0\n", "line 3: malformed card 'R2 a 0'"),
        ("R1 a 0 1\nR1 a 0 2\n", "line 2: duplicate element name 'R1'"),
        ("R1 a 0 1\nC1 b 0 1p\n", "node(s) have no DC path to ground"),
    ])
    @pytest.mark.parametrize("command", [
        ["info", "{deck}", "--t-end", "1n"],
        ["dc", "{deck}"],
        ["simulate", "{deck}", "--t-end", "1n"],
        ["run", "--netlist", "{deck}", "--t-end", "1n"],
        ["sweep", "--netlist", "{deck}", "--t-end", "1n",
         "--scenarios", "random:2"],
    ])
    def test_bad_deck_is_one_error_line(self, tmp_path, capsys, text,
                                        message, command):
        deck = tmp_path / "d.spice"
        deck.write_text(text)
        argv = [arg.format(deck=deck) for arg in command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro.cli: error: ")
        assert message in line
        assert "Traceback" not in captured.out

    def test_long_card_is_one_short_line(self, tmp_path, capsys):
        deck = tmp_path / "d.spice"
        deck.write_text("R1 a 0 1\nR2 " + "a" * (1 << 20) + " 0\n")
        assert main(["info", str(deck), "--t-end", "1n"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro.cli: error: line 2: malformed card 'R2 aaa")
        assert line.endswith(f"… ({(1 << 20) + 5} characters)")
        assert len(line) < 200

    def test_undecodable_deck(self, tmp_path, capsys):
        deck = tmp_path / "d.spice"
        deck.write_bytes(b"R1 a 0 1\nR2 a 0 \xff\n")
        assert main(["run", "--netlist", str(deck), "--t-end", "1n"]) == 2
        assert "line 2: byte 0xff" in capsys.readouterr().err
