import argparse
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from stochbisect import experiments as ex
from stochbisect.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from stochbisect.experiments import (
    parse_report_csv,
    report_to_csv,
    report_to_json,
    truncate_at_noise_floor,
)

SEED = 424242  # tests here only need reproducibility, not specific outcomes


@pytest.fixture(scope="module")
def report():
    return ex.run_contraction_experiment("beta:2,2", runs=20, iters=10, seed=SEED)


class TestReportSerialization:
    def test_csv_round_trip(self, report):
        assert parse_report_csv(report_to_csv(report)) == report.to_payload()

    def test_json_round_trip(self, report):
        assert json.loads(report_to_json(report)) == report.to_payload()

    def test_wall_time_not_serialized(self, report):
        assert report.wall_time > 0.0
        assert "wall_time" not in report_to_json(report)
        assert "wall_time" not in report_to_csv(report)

    def test_series_round_trip(self):
        report = ex.run_stationarity_experiment(runs=50, iters=5, seed=SEED)
        payload = parse_report_csv(report_to_csv(report))
        assert payload["series"]["qq"]["rows"] == report.to_payload()["series"]["qq"]["rows"]

    def test_theory_reference_inside_flag(self, report):
        cell = report.to_payload()["cells"][0]
        assert cell["label"] == "mean_scaling_factor"
        assert "theory" in cell and "theory_inside" in cell


class TestDeterminism:
    @pytest.mark.parametrize("runner,kwargs", [
        (ex.run_contraction_experiment, {"dist": "uniform", "runs": 30, "iters": 8}),
        (ex.run_ksection_experiment, {"k": 2, "runs": 30, "iters": 8}),
        (ex.run_stationarity_experiment, {"runs": 60, "iters": 6}),
        (ex.run_decay_experiment, {"root_dist": "beta:2,2", "runs": 200, "iters": 10}),
        (ex.run_correlation_experiment,
         {"root_dist": "uniform", "dist": "beta:2,2", "runs": 100, "iters": 4}),
    ], ids=["contraction", "ksection", "stationarity", "decay", "correlation"])
    def test_byte_identical_reports(self, runner, kwargs):
        a = runner(seed=SEED, **kwargs)
        b = runner(seed=SEED, **kwargs)
        assert report_to_csv(a) == report_to_csv(b)
        assert report_to_json(a) == report_to_json(b)

    def test_different_seeds_differ(self):
        a = ex.run_contraction_experiment(runs=30, iters=8, seed=1)
        b = ex.run_contraction_experiment(runs=30, iters=8, seed=2)
        assert report_to_csv(a) != report_to_csv(b)


class TestContraction:
    def test_point_mass_degenerate_interval(self):
        report = ex.run_contraction_experiment("point:0.5", runs=50, iters=10, seed=SEED)
        est = report.cell("mean_scaling_factor").estimate
        assert (est.point, est.lower, est.upper) == (0.5, 0.5, 0.5)
        assert report.cell("mean_scaling_factor").reference_inside

    def test_config_echo(self):
        report = ex.run_contraction_experiment("beta:2,2", runs=20, iters=5, seed=SEED)
        assert report.config["cut"] == "beta:2,2"
        assert report.config["seed"] == SEED
        assert "tol" not in report.config  # every run takes exactly `iters` steps

    def test_validation(self):
        with pytest.raises(ValueError):
            ex.run_contraction_experiment(runs=1)


class TestKsection:
    def test_k1_matches_uniform_contraction(self):
        a = ex.run_ksection_experiment(1, runs=400, iters=30, seed=SEED)
        b = ex.run_contraction_experiment("uniform", runs=400, iters=30, seed=SEED)
        ea = a.cell("mean_scaling_factor").estimate
        eb = b.cell("mean_scaling_factor").estimate
        assert ea.overlaps(eb.lower, eb.upper)


class TestFixedRoot:
    def test_point_mass_always_27(self):
        report = ex.run_fixed_root_experiment(0.3, "point:0.5", runs=20, seed=SEED)
        assert report.cell("min_iterations").value == 27.0
        assert report.cell("max_iterations").value == 27.0
        assert report.cell("lucky_run_probability").estimate.point == 1.0

    def test_deterministic_baseline_recorded(self):
        report = ex.run_fixed_root_experiment(0.3, "uniform", runs=20, seed=SEED)
        assert report.cell("deterministic_iterations").value == 27.0


class TestStationarity:
    def test_degenerate_orbit_flagged_not_raised(self):
        report = ex.run_stationarity_experiment("point:0.5", "point:0.5",
                                                runs=50, iters=10, seed=SEED)
        assert report.cell("endpoint_fraction").value == 1.0
        assert report.cell("ks_pass").value == 0.0
        assert any("degenerate" in note for note in report.notes)

    def test_ks_series_lengths(self):
        report = ex.run_stationarity_experiment(runs=100, iters=7, seed=SEED)
        cols, rows = report.series["ks"]
        assert cols == ["n", "ks_statistic", "critical_value"]
        assert len(rows) == 7
        assert len(report.series["qq"][1]) == 100

    def test_asymmetric_start_converges_to_uniform(self):
        # Strongly skewed starting law: after 40 iterations the normalized
        # roots pass the KS test and the Q-Q data hugs the diagonal.
        report = ex.run_stationarity_experiment("beta:0.5,2", "uniform",
                                                runs=1000, iters=40,
                                                seed=ex.DEFAULT_SEED)
        assert report.cell("ks_pass").value == 1.0
        _, qq = report.series["qq"]
        assert max(abs(t - s) for t, s in qq) < 0.06


class TestDecay:
    def test_uniform_start_flags_no_signal(self):
        report = ex.run_decay_experiment("uniform", runs=10_000, iters=50, seed=SEED)
        assert report.cell("no_signal").value == 1.0
        assert any("no signal" in note for note in report.notes)

    def test_series_cover_all_iterations(self):
        report = ex.run_decay_experiment("beta:2,2", runs=500, iters=10, seed=SEED)
        _, ks_rows = report.series["ks_distance"]
        _, mean_rows = report.series["mean_deviation"]
        assert len(ks_rows) == 11 and ks_rows[0][0] == 0.0
        assert len(mean_rows) == 10 and mean_rows[0][0] == 1.0

    def test_decay_payload_round_trips_strict_json(self):
        report = ex.run_decay_experiment("beta:2,2", runs=500, iters=10, seed=SEED)
        text = report_to_json(report)
        assert "NaN" not in text
        assert json.loads(text) == report.to_payload()
        assert parse_report_csv(report_to_csv(report)) == report.to_payload()

    def test_truncation_helper(self):
        values = np.array([1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.015])
        kept = truncate_at_noise_floor(values, 0.05)
        assert list(kept) == [1.0, 0.5, 0.25, 0.12, 0.06]
        # floor below everything keeps the whole series
        assert truncate_at_noise_floor(values, 1e-9).size == values.size
        # floor above everything still keeps the minimum fit window
        assert truncate_at_noise_floor(values, 10.0).size == 3


class TestCorrelationExperiment:
    def test_degenerate_columns_raise_cleanly(self):
        from stochbisect.stats import DegenerateSampleError
        with pytest.raises(DegenerateSampleError):
            ex.run_correlation_experiment("point:0.5", "point:0.5",
                                          runs=2, iters=3, seed=SEED)

    def test_matrix_shape(self):
        report = ex.run_correlation_experiment("uniform", "uniform",
                                               runs=300, iters=5, seed=SEED)
        cols, rows = report.series["matrix"]
        assert len(cols) == 5 and len(rows) == 5
        assert rows[0][0] == 1.0


class TestOperatorExperiment:
    def test_identity_start(self):
        report = ex.run_operator_experiment("identity", "uniform", k=3, grid=257)
        _, rows = report.series["iterates"]
        assert all(row[1] < 1e-9 for row in rows)

    def test_cubic_ratio_series(self):
        report = ex.run_operator_experiment("cubic", "uniform", k=3, grid=2049)
        d0 = report.cell("initial_sup_distance").value
        _, rows = report.series["iterates"]
        for k, row in enumerate(rows, start=1):
            assert row[1] / d0 == pytest.approx(0.5**k, abs=1e-5)
        assert report.cell("all_within_bound").value == 1.0

    def test_endpoint_atom_propagates(self):
        from stochbisect.markov import EndpointAtomError
        with pytest.raises(EndpointAtomError):
            ex.run_operator_experiment("cubic", "point:1", k=2, grid=257)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _readme_commands() -> list[list[str]]:
    readme = Path(__file__).parent.parent / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text().splitlines()
            if line.startswith("stochbisect ")]


def _runner_flags() -> list[tuple[str, str, inspect.Parameter]]:
    """(subcommand, flag, runner parameter) for every runner parameter."""
    return [(name, "--" + param.name.replace("_", "-"), param)
            for name, sub in sorted(_subparsers().items())
            for param in inspect.signature(sub.get_default("run"),
                                           eval_str=True).parameters.values()]


_INT_FLAGS = [(name, flag) for name, flag, param in _runner_flags() if param.annotation is int]
_REQUIRED_FLAGS = [(name, flag) for name, flag, param in _runner_flags()
                   if param.default is param.empty]


class TestParser:
    """Each flag is the keyword argument of the runner its subcommand calls."""

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_flags_are_the_runner_parameters(self, name):
        sub = _subparsers()[name]
        dests = {a.dest for a in sub._actions} - {"help", "format", "out"}
        assert dests == set(inspect.signature(sub.get_default("run")).parameters)

    def test_omitted_flags_stay_out_of_the_namespace(self):
        args = vars(build_parser().parse_args(["ksection", "--k", "3"]))
        assert args == {"command": "ksection", "run": ex.run_ksection_experiment,
                        "k": 3, "format": "csv", "out": None}

    def test_omitted_flags_take_the_runner_defaults(self, capsys):
        assert main(["operator", "--k", "2", "--grid", "65"]) == EXIT_OK
        direct = ex.run_operator_experiment(k=2, grid=65)
        assert capsys.readouterr().out == report_to_csv(direct)

    def test_readme_commands_parse(self):
        commands = _readme_commands()
        assert sorted(argv[0] for argv in commands) == sorted(_subparsers())
        for argv in commands:
            args = vars(build_parser().parse_args(argv))
            run = args.pop("run")
            for key in ("command", "format", "out"):
                del args[key]
            inspect.signature(run).bind(**args)

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_help_renders(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: stochbisect {name}")

    @pytest.mark.parametrize("name, flag, default", [
        ("operator", "grid", "2049"), ("operator", "k", "30"), ("fixed-root", "tol", "1e-08")])
    def test_help_shows_the_runner_default(self, name, flag, default, capsys):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())  # rejoin wrapped lines
        pattern = rf"--{flag} {flag.upper()} [^-]*\(default: {re.escape(default)}\)"
        assert re.search(pattern, text)

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_every_optional_flag_ends_in_its_default(self, name, capsys):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        required = {flag for command, flag in _REQUIRED_FLAGS if command == name}
        # The first entry is -h, --help; each later one starts with its flag.
        entries = [" ".join(e.split()) for e in re.split(r"\n  (?=--)", options)[1:]]
        assert {entry.split()[0] for entry in entries} >= required | {"--format", "--out"}
        for entry in entries:
            if entry.split()[0] in required:
                assert "(default:" not in entry, entry
            else:
                assert re.search(r"\(default: [^()]+\)$", entry), entry

    @pytest.mark.parametrize("name, flag", _INT_FLAGS)
    def test_int_flag_rejects_a_fraction(self, name, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, flag, "1.5"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_required_flags_are_the_parameters_without_defaults(self):
        assert sorted(_REQUIRED_FLAGS) == [
            ("correlation", "--dist"), ("correlation", "--root-dist"),
            ("decay", "--root-dist"), ("fixed-root", "--r"), ("theory", "--dist")]

    @pytest.mark.parametrize("name, flag", _REQUIRED_FLAGS)
    def test_leaving_out_a_required_flag_exits_2(self, name, flag, capsys):
        others = [arg for command, other in _REQUIRED_FLAGS
                  if command == name and other != flag for arg in (other, "uniform")]
        with pytest.raises(SystemExit) as exc:
            main([name, *others])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"the following arguments are required: {flag}" in err

    def test_runner_is_looked_up_when_the_parser_is_built(self, monkeypatch):
        # A rebound module attribute (a wrapper, say) is what the CLI calls.
        def wrapped(dist: str, k_max: int = 6):
            return ex.run_theory_report(dist, k_max)

        monkeypatch.setattr(ex, "run_theory_report", wrapped)
        assert _subparsers()["theory"].get_default("run") is wrapped


class TestCli:
    def test_report_written_and_parseable(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["contraction", "--dist", "beta:2,2", "--runs", "20",
                     "--iters", "5", "--seed", str(SEED), "--out", str(out)])
        assert code == EXIT_OK
        payload = parse_report_csv(out.read_text())
        assert payload["experiment"] == "contraction"
        assert payload["config"]["cut"] == "beta:2,2"

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["theory", "--dist", "bates:20", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        labels = {c["label"]: c["value"] for c in payload["cells"]}
        assert labels["expected_contraction"] == pytest.approx(61 / 120, abs=1e-12)

    def test_byte_identical_across_invocations(self, tmp_path):
        paths = [tmp_path / f"r{i}.csv" for i in range(2)]
        for path in paths:
            assert main(["stationarity", "--runs", "50", "--iters", "5",
                         "--seed", str(SEED), "--out", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_spec_exits_2(self, capsys):
        assert main(["contraction", "--dist", "cauchy:1"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, capsys):
        assert main(["contraction", "--runs", "1"]) == EXIT_CONFIG
        # fixed-root needs a positive tol for its deterministic baseline and
        # at least one iteration; a NaN tol would stop every run at once.
        # theory's K-section table needs at least one row.
        for argv in ("theory --dist uniform --k-max 0",
                     "theory --dist uniform --k-max=-2",
                     "fixed-root --r 0.1 --tol 0",
                     "fixed-root --r 0.1 --tol=-1e-8",
                     "fixed-root --r 0.1 --tol nan",
                     "fixed-root --r 0.1 --max-iter 0"):
            assert main(argv.split()) == EXIT_CONFIG, argv
            assert "error" in capsys.readouterr().err

    def test_fixed_root_rejects_iters(self, capsys):
        # fixed-root runs stop at --tol or --max-iter; there is no --iters.
        with pytest.raises(SystemExit) as exc:
            main(["fixed-root", "--r", "0.3", "--iters", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --iters 5" in capsys.readouterr().err

    def test_contraction_rejects_tol(self, capsys):
        # contraction always runs --iters steps; there is no --tol.
        with pytest.raises(SystemExit) as exc:
            main(["contraction", "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # Halving cuts narrow every bracket below 1e-15 by step 50, so no run
        # supplies 60 factors; averaging the shorter runs would be wrong.
        ("contraction --dist point:0.5 --runs 2 --iters 60", "after 50 of 60 iterations"),
        # Cuts at 0.999 of the bracket need about 18,400 steps to reach 1e-8
        # around r = 0.5; the cap would pass for an iteration count.
        ("fixed-root --r 0.5 --dist point:0.999 --tol 1e-8 --runs 5",
         "5 of 5 runs hit max_iter = 1000"),
    ])
    def test_run_stopped_short_or_capped_exits_3(self, argv, message, capsys):
        assert main(argv.split()) == EXIT_NUMERICAL
        assert message in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, capsys):
        code = main(["correlation", "--root-dist", "point:0.5", "--dist", "point:0.5",
                     "--runs", "2", "--iters", "3"])
        assert code == EXIT_NUMERICAL
        assert "error" in capsys.readouterr().err

    def test_endpoint_cut_law_exits_3(self, capsys):
        # cuts at exactly 1 never shrink the bracket; the redraw cap trips
        code = main(["contraction", "--dist", "point:1", "--runs", "5", "--iters", "3"])
        assert code == EXIT_NUMERICAL
        assert "error" in capsys.readouterr().err

    def test_operator_endpoint_atom_exits_3(self, capsys):
        code = main(["operator", "--g0", "cubic", "--dist", "point:0",
                     "--k", "2", "--grid", "257"])
        assert code == EXIT_NUMERICAL

    def test_non_finite_empirical_sample_exits_2(self, tmp_path, capsys):
        data = tmp_path / "cuts.csv"
        data.write_text("0.2\nnan\n0.7\n")
        assert main(["theory", "--dist", f"empirical:{data}"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["theory", "--dist", "bates:100"],
        ["operator", "--g0", "cubic", "--dist", "bates:100", "--k", "1", "--grid", "65"],
    ])
    def test_bates_density_beyond_n_25_exits_3(self, argv, capsys):
        assert main(argv) == EXIT_NUMERICAL
        assert "n <= 25" in capsys.readouterr().err

    def test_bates_sampling_beyond_n_25_still_runs(self, tmp_path):
        # contraction needs only draws and the closed-form moments.
        out = tmp_path / "r.csv"
        assert main(["contraction", "--dist", "bates:100", "--runs", "20", "--iters", "5",
                     "--seed", str(SEED), "--out", str(out)]) == EXIT_OK

    def test_beta_gamma_underflow_exits_3(self, capsys):
        code = main(["stationarity", "--dist", "beta:0.003,0.003", "--runs", "1000",
                     "--iters", "10", "--seed", str(SEED)])
        assert code == EXIT_NUMERICAL
        assert "underflowed" in capsys.readouterr().err

    def test_stdout_default(self, capsys):
        assert main(["theory", "--dist", "uniform"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("experiment,theory")

    def test_empirical_spec_via_cli(self, tmp_path):
        data = tmp_path / "cuts.csv"
        data.write_text("0.45\n0.55\n0.5\n")
        out = tmp_path / "r.csv"
        code = main(["contraction", "--dist", f"empirical:{data}", "--runs", "20",
                     "--iters", "5", "--seed", str(SEED), "--out", str(out)])
        assert code == EXIT_OK
