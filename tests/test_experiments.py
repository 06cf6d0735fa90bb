import argparse
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochbisect import cli, stats
from stochbisect import experiments as ex
from stochbisect.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from stochbisect.experiments import (
    parse_report_csv,
    report_to_csv,
    report_to_json,
    truncate_at_noise_floor,
)
from stochbisect.seeding import substream

import report_oracle

SEED = 424242  # tests here only need reproducibility, not specific outcomes


@pytest.fixture(scope="module")
def report():
    return ex.run_contraction_experiment("beta:2,2", runs=20, iters=10, seed=SEED)


class TestReportSerialization:
    def test_csv_round_trip(self, report):
        assert parse_report_csv(report_to_csv(report)) == report.to_payload()

    def test_json_round_trip(self, report):
        assert json.loads(report_to_json(report)) == report.to_payload()

    def test_series_round_trip(self):
        report = ex.run_stationarity_experiment(runs=50, iters=5, seed=SEED)
        payload = parse_report_csv(report_to_csv(report))
        assert payload["series"]["qq"]["rows"] == report.to_payload()["series"]["qq"]["rows"]

    def test_row_length_must_match_columns(self):
        report = ex.ExperimentReport("x", {})
        with pytest.raises(ValueError):
            report.add_series("x", ["a", "b"], [(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            report.add_series("x", ["a", "b"], [(1.0, 2.0), (3.0,)])
        with pytest.raises(ValueError):
            report.add_series("x", [], [()])
        assert report.series == {}

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "a\rb", "a\nb"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_series_name_needs_no_csv_quoting(self, name):
        report = ex.ExperimentReport("x", {})
        with pytest.raises(ValueError):
            report.add_series(name, ["a"], [(1.0,)])
        assert report.series == {}

    def test_every_series_is_a_float_array(self):
        reports = [
            ex.run_stationarity_experiment(runs=50, iters=5, seed=SEED),
            ex.run_decay_experiment("beta:2,2", runs=100, iters=3, seed=SEED),
            ex.run_correlation_experiment("uniform", "uniform", runs=50, iters=3, seed=SEED),
            ex.run_operator_experiment("cubic", "uniform", k=2, grid=65),
            ex.run_theory_report("uniform"),
        ]
        for report in reports:
            for cols, rows in report.series.values():
                assert isinstance(rows, np.ndarray) and rows.dtype == float
                assert rows.shape == (len(rows), len(cols))

    def test_theory_reference_inside_flag(self, report):
        cell = report.to_payload()["cells"][0]
        assert cell["label"] == "mean_scaling_factor"
        assert "theory" in cell and "theory_inside" in cell


class TestFixedSettings:
    """Interval level, resamples, KS level, band width and K-section size are constants."""

    @pytest.mark.parametrize("runner, kwargs, echoed", [
        (ex.run_contraction_experiment, {"runs": 20, "iters": 5},
         {"level": 0.95, "resamples": 2000}),
        (ex.run_ksection_experiment, {"runs": 20, "iters": 5},
         {"level": 0.95, "resamples": 2000}),
        (ex.run_fixed_root_experiment, {"r": 0.3, "runs": 5},
         {"level": 0.95, "resamples": 2000}),
        (ex.run_stationarity_experiment, {"runs": 20, "iters": 2}, {"alpha": 0.01}),
        (ex.run_operator_experiment, {"k": 1, "grid": 65}, {"delta": 0.25}),
        (ex.run_theory_report, {"dist": "uniform"}, {"k_max": 6}),
    ], ids=["contraction", "ksection", "fixed-root", "stationarity", "operator", "theory"])
    def test_reports_echo_the_constants(self, runner, kwargs, echoed):
        config = runner(**kwargs).config
        assert {key: config[key] for key in echoed} == echoed

    @pytest.mark.parametrize("argv", [
        "contraction --level 0.9", "contraction --resamples 200",
        "ksection --level 0.9", "ksection --resamples 200",
        "fixed-root --r 0.3 --level 0.9", "fixed-root --r 0.3 --resamples 200",
        "stationarity --alpha 0.05", "operator --delta 0.1",
        "theory --dist uniform --k-max 3",
    ], ids=lambda argv: f"{argv.split()[0]}-{argv.split()[-2]}")
    def test_setting_is_not_a_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        flag, value = argv.split()[-2:]
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("k, iters", [(2, 1000), (6, 500)])
    def test_final_length_below_normal_floats_raises(self, k, iters):
        # The geometric mean read 0.0 at both ends here, against 1/2 and 1/4.
        with pytest.raises(ArithmeticError, match="below the smallest normal float"):
            ex.run_ksection_experiment(k, runs=20, iters=iters)

    @pytest.mark.parametrize("k", [0, 2.5, math.inf, math.nan])
    def test_invalid_k_is_a_config_error(self, k):
        # Checked by theory's rule before any run draws from a substream.
        with pytest.raises(ValueError, match="whole number of cuts"):
            ex.run_ksection_experiment(k, runs=20, iters=5)

    def test_whole_float_k_runs_as_its_int(self):
        # A whole float k passes theory's cut-count rule, and substream takes
        # only int and str path parts.
        got = report_to_csv(ex.run_ksection_experiment(2.0, runs=5, iters=3, seed=SEED))
        assert got == report_to_csv(ex.run_ksection_experiment(2, runs=5, iters=3, seed=SEED))
        assert "\nconfig,k,2\n" in got

    def test_final_length_above_normal_floats_keeps_the_report(self):
        est = ex.run_ksection_experiment(6, runs=20, iters=450).cell(
            "geometric_mean_length").estimate
        assert (est.point, est.lower, est.upper) == (
            0.21252969740304592, 0.2076241782204984, 0.21304854318800162)


class TestScalingCells:
    """`contraction` and `ksection` bootstrap whole runs, not single factors."""

    def test_dependent_factors_keep_nominal_coverage(self):
        # Each run repeats one uniform draw, the extreme of within-run
        # dependence. Resampling the 200 factors as if independent shrinks
        # the interval by sqrt(10) and covers the mean 1/2 about half the
        # time; resampling the 20 runs keeps close to 95%.
        runs, iters, reps = 20, 10, 300
        hits = 0
        for rep in range(reps):
            draws = substream(rep, "dependent-runs").uniform(size=(runs, 1))
            ells = np.repeat(draws, iters, axis=1)
            cell = ex._scaling_report("dependent", {}, ells, 0.5, rep).cells[0]
            hits += cell.estimate.contains(0.5)
        assert 0.90 <= hits / reps <= 0.99

    def test_run_constant_factors_give_the_run_interval(self):
        # Dyadic draws keep every row mean exact.
        draws = substream(SEED, "constant-runs").integers(1, 64, size=50) / 64
        ells = np.repeat(draws[:, None], 8, axis=1)
        cell = ex._scaling_report("constant", {}, ells, 0.5, SEED).cells[0]
        expected = stats.bootstrap_mean_ci(
            draws, rng=substream(SEED, "constant", "bootstrap-ell"))
        assert cell.estimate == expected


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

    def test_qq_series_is_capped_above_qq_rows_chains(self):
        # Cells and the KS series are those the uncapped code gave; only
        # the Q-Q series changes shape past stats.QQ_ROWS chains.
        report = ex.run_stationarity_experiment(runs=5000, iters=5)
        assert [(c.label, c.value) for c in report.cells] == [
            ("ks_statistic", 0.011161682484512547),
            ("ks_critical_value", 0.023023396795433984),
            ("ks_pass", 1.0),
            ("endpoint_fraction", 0.0),
        ]
        assert [list(row) for row in report.series["ks"][1]] == [
            [1.0, 0.010131111499691814, 0.023023396795433984],
            [2.0, 0.019277282696720965, 0.023023396795433984],
            [3.0, 0.022962497432226225, 0.023023396795433984],
            [4.0, 0.014775826611601484, 0.023023396795433984],
            [5.0, 0.011161682484512547, 0.023023396795433984],
        ]
        qq = np.asarray(report.series["qq"][1])
        assert qq.shape == (1000, 2)
        assert np.array_equal(qq[:, 0], (np.arange(1, 1001) - 0.5) / 1000)

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


def _runner(name: str):
    """The runner that subcommand `name` calls."""
    return getattr(ex, cli._RUNNERS[name])


def _runner_call(argv: list[str]):
    """(runner, keyword arguments) that the CLI would call for `argv`."""
    args = vars(build_parser().parse_args(argv))
    run = _runner(args.pop("command"))
    for key in ("format", "out"):
        del args[key]
    return run, args


def _runner_flags() -> list[tuple[str, str, inspect.Parameter]]:
    """(subcommand, flag, runner parameter) for every runner parameter."""
    return [(name, "--" + param.name.replace("_", "-"), param)
            for name in sorted(_subparsers())
            for param in inspect.signature(_runner(name), eval_str=True).parameters.values()]


_INT_FLAGS = [(name, flag) for name, flag, param in _runner_flags() if param.annotation is int]
_REQUIRED_FLAGS = [(name, flag) for name, flag, param in _runner_flags()
                   if param.default is param.empty]


class TestParser:
    """Each flag is the keyword argument of the runner its subcommand calls."""

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_flags_are_the_runner_parameters(self, name):
        sub = _subparsers()[name]
        dests = {a.dest for a in sub._actions} - {"help", "format", "out"}
        assert dests == set(inspect.signature(_runner(name)).parameters)

    def test_omitted_flags_stay_out_of_the_namespace(self):
        args = vars(build_parser().parse_args(["ksection", "--k", "3"]))
        assert args == {"command": "ksection", "k": 3, "format": "csv", "out": None}

    def test_omitted_flags_take_the_runner_defaults(self, capsys):
        assert main(["operator", "--k", "2", "--grid", "65"]) == EXIT_OK
        direct = ex.run_operator_experiment(k=2, grid=65)
        assert capsys.readouterr().out == report_to_csv(direct)

    def test_readme_commands_parse(self):
        commands = _readme_commands()
        assert sorted(argv[0] for argv in commands) == sorted(_subparsers())
        for argv in commands:
            run, args = _runner_call(argv)
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

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_help_is_the_runner_docstring_summary(self, name):
        summary = _runner(name).__doc__.strip().splitlines()[0]
        text = " ".join(build_parser().format_help().split())  # rejoin wrapped lines
        assert f" {name} {summary} " in text

    def test_runs_without_docstrings(self):
        # `python -OO` strips docstrings, so every help line is empty.
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-OO", "-m", "stochbisect.cli", "theory", "--dist", "uniform"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == report_to_csv(ex.run_theory_report("uniform"))

    def test_main_builds_the_parser_once_and_runs_the_rebound_runner(self, monkeypatch, capsys):
        assert main(["theory", "--dist", "uniform"]) == EXIT_OK
        expected = capsys.readouterr().out
        calls, original = [], ex.run_theory_report

        def wrapped(dist: str):
            calls.append(dist)
            return original(dist)

        def rebuilt():
            raise AssertionError("main built the parser again")

        monkeypatch.setattr(ex, "run_theory_report", wrapped)
        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(["theory", "--dist", "uniform"]) == EXIT_OK
        assert calls == ["uniform"]
        assert capsys.readouterr().out == expected


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
        for argv in ("fixed-root --r 0.1 --tol 0",
                     "fixed-root --r 0.1 --tol=-1e-8",
                     "fixed-root --r 0.1 --tol nan",
                     "fixed-root --r 0.1 --max-iter 0"):
            assert main(argv.split()) == EXIT_CONFIG, argv
            assert "error" in capsys.readouterr().err

    def test_endpoint_atom_error_prints_a_plain_float(self, capsys):
        assert main(["operator", "--g0", "point:0", "--k", "1", "--grid", "5"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: starting CDF has mass at 0: G(0)=1.0\n"

    def test_long_spec_is_echoed_in_full(self, capsys):
        assert main(["theory", "--dist", "beta:0.1234567,2"]) == EXIT_OK
        assert 'config,dist,"beta:0.1234567,2"\n' in capsys.readouterr().out

    def test_ksection_k_below_one_exits_2(self, capsys):
        assert main(["ksection", "--k", "0"]) == EXIT_CONFIG
        assert "whole number of cuts" in capsys.readouterr().err

    def test_operator_k_below_one_exits_2(self, capsys):
        assert main(["operator", "--k", "0", "--grid", "65"]) == EXIT_CONFIG
        assert "k must be positive" in capsys.readouterr().err

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

    @pytest.mark.parametrize("values", [None, "0.3\n1.0\n0.5\n"], ids=["point", "empirical"])
    def test_operator_root_atom_at_one_exits_3(self, values, tmp_path, capsys):
        # A root at 1 never moves; the grid CDF used to hide it as a ramp on
        # the last cell and report a distance shrinking towards 0.
        g0 = "point:1"
        if values is not None:
            (tmp_path / "roots.csv").write_text(values)
            g0 = f"empirical:{tmp_path / 'roots.csv'}"
        code = main(["operator", "--g0", g0, "--dist", "uniform", "--k", "3", "--grid", "65"])
        assert code == EXIT_NUMERICAL
        assert "mass at 1" in capsys.readouterr().err

    def test_operator_endpoint_only_empirical_exits_3(self, tmp_path, capsys):
        # Cuts only at 0 and 1 give q = 0: T is the identity and never contracts.
        data = tmp_path / "cuts.csv"
        data.write_text("0.0\n1.0\n")
        code = main(["operator", "--g0", "cubic", "--dist", f"empirical:{data}",
                     "--k", "3", "--grid", "65"])
        assert code == EXIT_NUMERICAL
        assert "endpoint" in capsys.readouterr().err

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

    def test_tiny_beta_shapes_run(self):
        # Both variates of a plain gamma ratio underflow to 0 here; numpy's
        # log-space Beta sampler draws these shapes without a 0/0.
        code = main(["stationarity", "--dist", "beta:0.003,0.003", "--runs", "1000",
                     "--iters", "10", "--seed", str(SEED)])
        assert code == EXIT_OK

    def test_main_times_the_run_on_stderr(self, capsys):
        assert main(["theory", "--dist", "uniform"]) == EXIT_OK
        captured = capsys.readouterr()
        assert re.fullmatch(r"# theory completed in \d+\.\d{3} s\n", captured.err)
        assert "completed" not in captured.out
        assert not hasattr(ex.run_theory_report("uniform"), "wall_time")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        assert main(["theory", "--dist", "uniform", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write report: ")
        assert str(out) in captured.err and captured.out == ""

    def test_stdout_default(self, capsys):
        assert main(["theory", "--dist", "uniform"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("experiment,theory")

    @pytest.mark.parametrize("argv", [
        "theory", "operator --k 3 --grid 129", "fixed-root --r 0.1 --tol 1e-6 --runs 5",
        "contraction --runs 5 --iters 5"], ids=lambda argv: argv.split()[0])
    def test_point_mass_reports_as_the_one_atom_empirical(self, argv, tmp_path, capsys):
        data = tmp_path / "one.txt"
        data.write_text("0.3\n")
        reports = []
        for spec in ("point:0.3", f"empirical:{data}"):
            assert main([*argv.split(), "--dist", spec]) == EXIT_OK
            rows = capsys.readouterr().out.splitlines()
            reports.append([row for row in rows
                            if not row.startswith(("config,dist,", "config,cut,"))])
        assert len(reports[0]) == len(rows) - 1
        assert reports[0] == reports[1]

    def test_empirical_spec_via_cli(self, tmp_path):
        data = tmp_path / "cuts.csv"
        data.write_text("0.45\n0.55\n0.5\n")
        out = tmp_path / "r.csv"
        code = main(["contraction", "--dist", f"empirical:{data}", "--runs", "20",
                     "--iters", "5", "--seed", str(SEED), "--out", str(out)])
        assert code == EXIT_OK


# Floats whose repr takes each of Python's spellings: signed zero, the least
# subnormal, exponent forms at both ends and the shortest round-trip digits.
_AWKWARD = [-0.0, 5e-324, 1e-300, 1e-5, 0.1, 1e16, 1e22, 123456789.0]


class TestCsvWriterOracle:
    """`report_to_csv` prints the bytes csv.writer prints for the same report."""

    @staticmethod
    def _check(report):
        text = report_to_csv(report)
        want = report_oracle.report_to_csv(report)
        if text != want:  # name the first differing line, not a diff of megabytes
            got_lines, want_lines = text.splitlines(), want.splitlines()
            first = next((i for i, pair in enumerate(zip(got_lines, want_lines))
                          if pair[0] != pair[1]), min(len(got_lines), len(want_lines)))
            pytest.fail(f"line {first} differs from csv.writer's: "
                        f"{got_lines[first:first + 1]} != {want_lines[first:first + 1]}")
        assert parse_report_csv(text) == report.to_payload()

    @pytest.mark.parametrize("cols", [1, 14])
    def test_awkward_floats(self, cols):
        values = _AWKWARD + [-v for v in _AWKWARD]
        report = ex.ExperimentReport("x", {"note": "a,b"}, notes=['say "x"'])
        report.add_series("awkward", [f"c{j}" for j in range(cols)],
                          np.resize(values, (len(values), cols)))
        self._check(report)

    @pytest.mark.parametrize("cols", [1, 14])
    @pytest.mark.parametrize("n", [0, 1, ex._CSV_CHUNK_ROWS - 1, ex._CSV_CHUNK_ROWS,
                                   ex._CSV_CHUNK_ROWS + 1])
    def test_row_counts_around_the_chunk(self, n, cols):
        rows = substream(n, "csv-rows", cols).standard_normal(size=(n, cols))
        report = ex.ExperimentReport("x", {})
        report.add_series("first", [f"c{j}" for j in range(cols)], rows)
        report.add_series("second", ["v"], rows[:, :1] ** 3)
        self._check(report)

    @pytest.mark.parametrize("name", ["{0}", "{}%s", "%d%%", "q-q é"])
    def test_series_names_with_template_characters(self, name):
        # A row's text is built by joining, so no name is read as a template.
        report = ex.ExperimentReport("x", {})
        report.add_series(name, ["a", "b"], np.resize(_AWKWARD, (len(_AWKWARD), 2)))
        self._check(report)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_readme_commands(self, argv):
        run, args = _runner_call(argv)
        self._check(run(**args))
