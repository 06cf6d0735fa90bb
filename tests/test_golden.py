"""Golden CLI reports: small configs compared byte for byte.

Each file under `tests/golden/` is the CSV report of one command below,
written by the CLI itself. A change that alters any of them changes what
users see; when that is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the difference and its reason in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from stochbisect.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CUTS = str(GOLDEN / "cuts.txt")

# One small config per experiment, plus the cut laws whose operator and
# quadrature paths differ: a Beta and a Bates density, a point mass and an
# empirical law (exact atoms), and the closed-form uniform case. The Beta
# laws cover every quadrature region: left substitution (a < 1), right
# substitution (b < 1), both at once, and graded fractional shapes.
COMMANDS = {
    "contraction": "contraction --dist beta:2,2 --runs 20 --iters 10 --resamples 200",
    "ksection": "ksection --k 2 --runs 20 --iters 10 --resamples 200",
    "fixed_root": "fixed-root --r 0.1 --dist bates:5 --tol 1e-6 --runs 20 --resamples 200",
    "fixed_root_point": "fixed-root --r 0.3 --dist point:0.5 --tol 1e-6 --runs 5 --resamples 50",
    "stationarity": "stationarity --root-dist beta:0.5,2 --dist uniform --runs 200 --iters 10",
    "decay": "decay --root-dist beta:0.1,2 --runs 500 --iters 10",
    "correlation": "correlation --root-dist beta:5,50 --dist beta:5,50 --runs 500 --iters 4",
    "operator_uniform": "operator --g0 cubic --dist uniform --k 5 --grid 129",
    "operator_beta": "operator --g0 cubic --dist beta:2,2 --k 2 --grid 65",
    "operator_bates": "operator --g0 beta:0.5,2 --dist bates:3 --k 2 --grid 65",
    "operator_point": "operator --g0 cubic --dist point:0.3 --k 3 --grid 129",
    "operator_empirical": f"operator --g0 cubic --dist empirical:{CUTS} --k 3 --grid 129",
    "operator_beta_singular": "operator --g0 cubic --dist beta:0.5,0.5 --k 2 --grid 65",
    "theory_uniform": "theory --dist uniform",
    "theory_bates": "theory --dist bates:20",
    "theory_beta": "theory --dist beta:0.5,2",
    "theory_beta_right": "theory --dist beta:2,0.5",
    "theory_beta_fractional": "theory --dist beta:2.5,1.5",
    "theory_point": "theory --dist point:0.3",
    "theory_empirical": f"theory --dist empirical:{CUTS}",
}


def _report(name: str, out: Path) -> bytes:
    assert main(COMMANDS[name].split() + ["--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert _report(name, tmp_path / "report.csv") == expected


if __name__ == "__main__":
    for key in sorted(COMMANDS):
        path = GOLDEN / f"{key}.csv"
        _report(key, path)
        print(f"wrote {path}", file=sys.stderr)
