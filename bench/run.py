"""stochbisect benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload readme --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed. Each run starts fresh interpreters: several
set-up probes (`setup_s`, median) and one worker that runs the workload
(`wall_s`, the median over passes of one pass's summed operation time, and
`peak_rss_mb`, the worker's peak resident memory after its first pass).
Both times are scaled by a speed probe timed in the same process (see
`worker.py`), so that the host's speed drift cancels; the raw medians are
printed as `wall_raw_s` and `setup_raw_s`. With `--trace 1` the worker
instead times untraced passes, then traced passes, and reports the
per-layer metrics. Metric names, units and workloads come from
`BENCHMARK.json`.

Standard output carries a `# machine` line (hardware, versions, BLAS
threads, git revision, seed), one `name value unit` line per metric plus
`failed_fraction`, and last the result object
`{"correct", "attempted", "failed", "metrics"}`. `failed` counts every
operation that raised, exited non-zero or failed its output check;
`correct` is false when any operation outside the workloads' documented
known defects failed. The exit code is non-zero, with no result printed,
when the checkout holds no usable package or the traced run's span counts
disagree with the counts its inputs imply.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_PROBES = 5
DEADLINE_S = 170.0

# One BLAS thread keeps runs steady on a small shared machine and makes
# the single-threaded baseline explicit.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env={**os.environ, **BLAS_ENV}, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(raw, speed-scaled) set-up times of fresh interpreters.

    The first probe only warms the bytecode cache and is discarded.
    """
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        start = time.monotonic()
        reply = run_worker(args, deadline - time.monotonic())
        if probe:
            raw = reply["ready"] - start
            samples.append((raw, raw * reply["speed_factor"]))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}

    try:
        if not (ROOT / "src" / "stochbisect" / "__init__.py").is_file():
            raise BenchError(f"no stochbisect package under {ROOT / 'src'}")
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, deadline)
        result = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            deadline - time.monotonic())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
        wanted = units["per_layer"]
    else:
        values = {"wall_s": statistics.median(result["scaled_walls"]),
                  "setup_s": statistics.median(scaled for _, scaled in setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        wanted = units["end_to_end"]
    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1

    machine = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": result["numpy"], "blas_threads": BLAS_ENV,
        "git": git_revision(), "passes": len(result["walls"]),
        "operations_per_pass": result["operations"],
    }
    print("# machine " + json.dumps(machine))
    if args.trace:
        print("# self-time share " + json.dumps(
            {k: round(v, 4) for k, v in result["self_share"].items()}))
    for note in result["failures"]:
        print(f"# failed: {note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if not args.trace:
        print(f"wall_raw_s {statistics.median(result['walls'])!r} s")
        print(f"setup_raw_s {statistics.median(raw for raw, _ in setup)!r} s")
    print(f"failed_fraction {result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps({"correct": result["only_known_defects"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
