"""Runtime tracing of ddbvp's public functions, from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in every
``ddbvp`` module global (and class attribute) bound to it, because the
package modules use ``from``-imports and hold their own references.
``Tracer.uninstall`` puts every original back.  The wrappers record one span
per call: label, start, end and the id of the enclosing span.  Spans stay in
memory until ``write`` dumps them.

Self time of a span is its duration minus the durations of its direct child
spans, so self times summed over all spans equal the time of the outermost
spans.  ``total_s`` of a label counts only spans with no enclosing span of
the same label.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array
from fractions import Fraction

from ddbvp import cli, exactla, functionals, grid, piecewise, problem_io, solver, structure, verification

# label -> (owner, attribute names); several names may share one label
TARGETS = {
    "piecewise.refined": (piecewise.PiecewisePoly, ("refined",)),
    "piecewise.add": (piecewise.PiecewisePoly, ("__add__",)),
    "piecewise.trace": (piecewise.PiecewisePoly, ("trace",)),
    "piecewise.two_point_hermite": (piecewise, ("two_point_hermite",)),
    "piecewise.apply_difference_inverse": (piecewise, ("apply_difference_inverse",)),
    "exactla.det": (exactla, ("det",)),
    "exactla.rref": (exactla, ("rref",)),
    "exactla.invert": (exactla, ("invert",)),
    "structure.analyze": (structure, ("analyze",)),
    "structure.cofactor": (structure, ("cofactor",)),
    "functionals.image_functionals": (functionals, ("image_functionals",)),
    "functionals.rank_of_functionals": (functionals, ("rank_of_functionals",)),
    "functionals.solvability_constraints": (functionals, ("solvability_constraints",)),
    "functionals.evaluate": (functionals.NodeFunctional, ("evaluate",)),
    "solver.solve": (solver, ("solve_nonhomogeneous", "solve_homogeneous")),
    "solver.index_report": (solver, ("index_report",)),
    "solver.kernel_certificate": (solver, ("kernel_certificate",)),
    "solver.hermite_extension": (solver, ("hermite_extension",)),
    "problem_io.parse": (problem_io, ("parse_problem",)),
    "problem_io.report": (problem_io, ("solve_report",)),
    "problem_io.csv": (problem_io, ("solution_csv",)),
    "cli.main": (cli, ("main",)),
    "grid.assemble": (grid, ("assemble",)),
    "grid.samples": (grid, ("grid_samples",)),
    "grid.solve": (grid, ("solve_grid",)),
    "grid.index_estimate": (grid, ("index_estimate",)),
    "grid.spectrum_check": (grid, ("spectrum_check",)),
    "verification.c1": (verification, ("check_membership_theorem",)),
    "verification.c2": (verification, ("check_image_codimension",)),
    "verification.c3": (verification, ("check_constraint_counts",)),
    "verification.c4": (verification, ("check_kernel_certificates",)),
    "verification.c5": (verification, ("check_worked_solution",)),
    "verification.c6": (verification, ("check_boundary_rank_cases",)),
    "verification.c7": (verification, ("check_spectrum_containment",)),
    "verification.c8": (verification, ("check_oracle_convergence",)),
    "verification.c9": (verification, ("check_index_estimates",)),
    "verification.c10": (verification, ("check_structure_equivalence",)),
}

# Per-layer metrics reported by a traced run: name -> unit.  Every traced run
# reports all of them, with 0 for layers the workload does not reach.
PER_LAYER = {
    "piecewise.refined.calls": "count",
    "piecewise.refined.self_s": "s",
    "piecewise.refined.noop_ratio": "ratio",
    "piecewise.add.calls": "count",
    "piecewise.add.self_s": "s",
    "piecewise.add.same_breaks_ratio": "ratio",
    "piecewise.two_point_hermite.calls": "count",
    "piecewise.two_point_hermite.self_s": "s",
    "piecewise.apply_difference_inverse.calls": "count",
    "piecewise.apply_difference_inverse.self_s": "s",
    "piecewise.trace.calls": "count",
    "piecewise.trace.self_s": "s",
    "piecewise.out.max_bits": "bits",
    "piecewise.out.max_degree": "degree",
    "piecewise.out.max_pieces": "count",
    "exactla.det.calls": "count",
    "exactla.det.self_s": "s",
    "exactla.rref.calls": "count",
    "exactla.rref.self_s": "s",
    "exactla.invert.calls": "count",
    "exactla.invert.self_s": "s",
    "exactla.max_dim": "rows",
    "structure.analyze.calls": "count",
    "structure.analyze.self_s": "s",
    "structure.analyze.per_problem": "calls/problem",
    "structure.cofactor.calls": "count",
    "functionals.image_functionals.self_s": "s",
    "functionals.rank_of_functionals.self_s": "s",
    "functionals.evaluate.calls": "count",
    "functionals.evaluate.self_s": "s",
    "functionals.solvability_constraints.calls": "count",
    "solver.solve.total_s": "s",
    "solver.solve.self_s": "s",
    "solver.index_report.total_s": "s",
    "solver.index_report.self_s": "s",
    "solver.kernel_certificate.calls": "count",
    "solver.hermite_extension.self_s": "s",
    "problem_io.parse.self_s": "s",
    "problem_io.report.self_s": "s",
    "problem_io.csv.self_s": "s",
    "problem_io.csv.rows": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "grid.assemble.self_s": "s",
    "grid.samples.self_s": "s",
    "grid.solve.self_s": "s",
    "grid.index_estimate.self_s": "s",
    "grid.spectrum_check.self_s": "s",
    "grid.matrix_bytes": "bytes",
    "grid.max_size": "count",
    **{"verification.c%d.total_s" % i: "s" for i in range(1, 11)},
    "bench.trace_overhead": "ratio",
    "bench.spans": "count",
}


def _ddbvp_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "ddbvp" or name.startswith("ddbvp."))]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Recording happens only while ``active`` is set, so output checks run
    between operations do not show up in the layer statistics.
    """

    def __init__(self):
        self.labels = list(TARGETS)
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        # spans of all passes, column-wise
        self.span_label = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.pass_no = -1
        self._stack: list[list] = []  # open spans: [span id, time of child spans]
        self._depth = [0] * len(self.labels)
        self.begin_pass()

    # -- per-pass aggregates -------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_no += 1
        n = len(self.labels)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.counters: dict[str, float] = {}
        self.solutions: list = []

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, label: str, fn):
        idx = self.labels.index(label)
        extra = _EXTRAS.get(label)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.span_label)
            parent = stack[-1][0] if stack else -1
            self.span_label.append(idx)
            self.span_parent.append(parent)
            self.span_pass.append(self.pass_no)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            entry = [span_id, 0.0]
            stack.append(entry)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                duration = end - start
                self.span_start[span_id] = start
                self.span_end[span_id] = end
                self.calls[idx] += 1
                self.self_s[idx] += duration - entry[1]
                if depth[idx] == 0:
                    self.total_s[idx] += duration
                if stack:
                    stack[-1][1] += duration
            if extra is not None:
                extra(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = _ddbvp_modules()
        for label, (owner, names) in TARGETS.items():
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(label, original)
                if isinstance(owner, type):
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapper)
                    continue
                for module in modules:
                    for gname, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, gname, original))
                            setattr(module, gname, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def pass_metrics(self, problems: int) -> dict[str, float]:
        """Per-layer metrics of the current pass."""
        out = {name: 0.0 for name in PER_LAYER}
        for idx, label in enumerate(self.labels):
            for stat, values in (("calls", self.calls), ("self_s", self.self_s), ("total_s", self.total_s)):
                key = "%s.%s" % (label, stat)
                if key in out:
                    out[key] = float(values[idx])
        calls = dict(zip(self.labels, self.calls))
        if calls["piecewise.refined"]:
            out["piecewise.refined.noop_ratio"] = self.counters.get("refined_noop", 0) / calls["piecewise.refined"]
        if calls["piecewise.add"]:
            out["piecewise.add.same_breaks_ratio"] = self.counters.get("add_same", 0) / calls["piecewise.add"]
        out["structure.analyze.per_problem"] = calls["structure.analyze"] / problems
        for key in ("exactla.max_dim", "problem_io.csv.rows", "grid.matrix_bytes", "grid.max_size"):
            out[key] = float(self.counters.get(key, 0))
        for name, value in solution_stats(self.solutions).items():
            out["piecewise.out." + name] = float(value)
        out["bench.spans"] = float(sum(self.calls))
        return out

    def write(self, path: str) -> None:
        """Dump every recorded span (all passes) as gzipped column-wise JSON."""
        doc = {
            "labels": self.labels,
            "label": self.span_label.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "pass": self.span_pass.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


def solution_stats(solutions) -> dict[str, int]:
    """Coefficient growth of returned solutions: bit length, degree, pieces."""
    bits = degree = pieces = 0
    for v in solutions:
        pieces = max(pieces, len(v.pieces))
        degree = max(degree, v.degree)
        for c in [*v.breaks, *(x for piece in v.pieces for x in piece)]:
            bits = max(bits, Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
    return {"max_bits": bits, "max_degree": degree, "max_pieces": pieces}


def _refined(tracer, args, result):
    if len(result.breaks) == len(args[0].breaks):
        tracer._bump("refined_noop", 1)


def _add(tracer, args, result):
    if args[0].breaks == args[1].breaks:
        tracer._bump("add_same", 1)


def _matrix_dim(tracer, args, result):
    a = args[0]
    tracer._max("exactla.max_dim", max(len(a), len(a[0]) if a else 0))


def _csv(tracer, args, result):
    tracer._bump("problem_io.csv.rows", result.count("\n") - 1)


def _assemble(tracer, args, result):
    ops = (result.shift, result.shift_extended, result.second_difference, result.operator)
    tracer._bump("grid.matrix_bytes", sum(op.matrix.nbytes for op in ops))
    tracer._max("grid.max_size", result.size)


def _solve(tracer, args, result):
    if result.v is not None:
        tracer.solutions.append(result.v)


_EXTRAS = {
    "piecewise.refined": _refined,
    "piecewise.add": _add,
    "exactla.det": _matrix_dim,
    "exactla.rref": _matrix_dim,
    "exactla.invert": _matrix_dim,
    "problem_io.csv": _csv,
    "grid.assemble": _assemble,
    "solver.solve": _solve,
}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}
