"""The benchmark's span-count contract, replayed inside the test suite.

Every `readme`, `operator` and `population` operation in
`bench/workloads.py` names the number of spans its inputs imply for each
traced function it lists, and a traced benchmark run fails when a count
differs or a command does not exit 0. Renaming a runner, dropping a flag the workloads pass (`operator
--seed`, say) or moving work between traced functions therefore breaks
the benchmark; this test runs one traced pass so that the suite fails
first. It then replays the benchmark's output check: a second, untraced
pass must parse back every report and reproduce each report's digest,
which is what the benchmark's failure count rests on. A fourth test
replays one traced `solve` pass over one solve per (function, cut law)
pair and the known-defect inputs: no span count may differ, and every
failure must be a documented known defect. It only imports `bench/`.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", ["readme", "operator", "population"])
def test_traced_pass_matches_the_span_counts(workload):
    ops = WORKLOADS[workload](SEED)
    runner = worker.Runner(worker.import_package(), ops)
    outcomes = [{} for _ in ops]
    tracer = Tracer()
    check = worker.CrossCheck(tracer)
    tracer.install()
    try:
        runner.measured_pass(ops, outcomes, on_op=check)
    finally:
        tracer.uninstall()
    assert dict(check.mismatches) == {}
    exit_codes = {op.name: [code for code, _ in seen] for op, seen in zip(ops, outcomes)}
    assert exit_codes == {op.name: [0] for op in ops}

    accepted, _ = runner.check_pass(ops)
    assert worker.count_failures(ops, outcomes, accepted)[:2] == (0, [])
    assert [list(seen) for seen in outcomes] == [[key] for key in accepted]


def test_traced_solve_pass_reads_the_run_trace():
    # The solve worker reads `trace.records` and `trace.terminated_by`, and
    # the tracer counts `len(trace)` steps; a missing attribute fails the
    # solve. One solve per (function, cut law) pair and both known-defect
    # inputs cover every path through them.
    picked = {}
    for op in WORKLOADS["solve"](SEED):
        picked.setdefault((op.label, op.law), op)
    ops = list(picked.values())
    runner = worker.Runner(worker.import_package(), ops)
    outcomes = [{} for _ in ops]
    tracer = Tracer()
    check = worker.CrossCheck(tracer)
    tracer.install()
    try:
        runner.measured_pass(ops, outcomes, on_op=check)
    finally:
        tracer.uninstall()
    assert dict(check.mismatches) == {}

    accepted, _ = runner.check_pass(ops)
    failed, notes, only_known = worker.count_failures(ops, outcomes, accepted)
    # Today only the exact hit of the root still counts as failed.
    assert (failed, only_known) == (1, True)
    assert notes[0].startswith("solve exact-root-hit cut=point:0.5: stopped by exact_root")
