"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import ddbvp  # noqa: E402
from ddbvp import piecewise, solver  # noqa: E402
from ddbvp.piecewise import PiecewisePoly  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    workload = run.make_workload(name, 7, str(tmp_path), tiny=True)
    workload.warm_up()
    result = run.RunResult()
    run.run_pass(workload, result)
    assert result.attempted >= 1
    assert result.incorrect == 0, result.failures
    if name == "cli-batch":
        # Only the over-cap file may fail: solve raises DegreeCapError today.
        last = "file[%d]" % (result.attempted - 1)
        assert all(f.startswith(last + ": raised DegreeCapError") for f in result.failures), result.failures
    else:
        assert result.failed == 0, result.failures


def _perturbed(fam):
    bump = PiecewisePoly.constant(Fraction(1, 1000), fam.v.start, fam.v.end)
    return dataclasses.replace(fam, v=fam.v + bump)


@pytest.mark.parametrize("clean_passes", [0, 1])
def test_corrupted_solution_is_caught_and_counted(clean_passes, tmp_path, monkeypatch):
    workload = run.make_workload("wide-exact", 7, str(tmp_path), tiny=True)
    result = run.RunResult()
    for _ in range(clean_passes):
        run.run_pass(workload, result)
    assert result.failed == 0

    original = solver.solve_nonhomogeneous
    monkeypatch.setattr(solver, "solve_nonhomogeneous", lambda p: _perturbed(original(p)))
    run.run_pass(workload, result)
    corrupted = len(workload.instances)
    assert result.failed == corrupted
    assert result.incorrect == corrupted
    assert result.attempted == 2 * corrupted * (clean_passes + 1)


def test_check_rejects_solution_shifted_consistently_inside_the_interval():
    # Adding a constant to y on (0, N+1) keeps -(R y)'' = f0 piece by piece;
    # only the seam and C^1 conditions expose it.
    workload = workloads.WideExact(3, "", tiny=True)
    problem = workload.instances[0].problem
    fam = solver.solve_nonhomogeneous(problem)
    n = problem.stencil.N
    bump = piecewise.zero_extension(PiecewisePoly.constant(1, 0, n + 1), -n, 2 * n + 1)
    assert workloads.check_wide_solution(problem, fam.v, fam.extension) is None
    assert workloads.check_wide_solution(problem, _perturbed(fam).v, fam.extension + bump.scaled(Fraction(1, 1000))) is not None


def _bindings():
    """Every object bound in a ddbvp module global or a traced class attribute."""
    out = {}
    for module in tracer._ddbvp_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    for label, (owner, names) in tracer.TARGETS.items():
        if isinstance(owner, type):
            for name in names:
                out[(owner.__qualname__, name)] = vars(owner)[name]
    return out


def test_traced_run_self_times_and_restores_ddbvp(tmp_path):
    before = _bindings()
    spans = tmp_path / "spans.json.gz"
    result, metrics, lines = run.traced("wide-exact", 7, 0, str(tmp_path / "work"), str(spans), tiny=True)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    assert ddbvp.solve_nonhomogeneous is solver.solve_nonhomogeneous
    assert not hasattr(PiecewisePoly.refined, "__wrapped__")

    values = {name: m["value"] for name, m in metrics.items()}
    assert set(values) == set(tracer.PER_LAYER)
    assert values["solver.solve.total_s"] > 0
    assert values["solver.solve.self_s"] <= values["solver.solve.total_s"]
    assert values["solver.index_report.self_s"] <= values["solver.index_report.total_s"]
    problems = len(workloads.WideExact(7, "", tiny=True).instances)
    assert values["structure.analyze.per_problem"] == values["structure.analyze.calls"] / problems
    assert result.failed == 0

    with gzip.open(spans, "rt") as handle:
        doc = json.load(handle)
    assert len(doc["label"]) == len(doc["start"]) == len(doc["end"]) == len(doc["parent"])
    self_time = [e - s for s, e in zip(doc["start"], doc["end"])]
    for i, parent in enumerate(doc["parent"]):
        if parent >= 0:
            self_time[parent] -= doc["end"][i] - doc["start"][i]
    roots = sum(e - s for s, e, p in zip(doc["start"], doc["end"], doc["parent"]) if p < 0)
    assert min(self_time) >= 0
    assert sum(self_time) <= roots * (1 + 1e-9)
    assert roots <= sum(sum(v) for v in result.op_seconds.values())


def test_expected_csv_rows_counts_breakpoints_and_step():
    # N = 1, step 1/2 on (0, 2): breaks 0, 1, 2 and 1/3, 4/3.
    # regular rows at 1/2 and 3/2; two rows per interior break; one per end.
    assert workloads.expected_csv_rows(1, (Fraction(1, 3),), Fraction(1, 2)) == 2 + 2 * 3 + 2
