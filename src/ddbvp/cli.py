"""Command line interface.

Four commands on JSON problem files (format documented in ``problem_io``):

* ``analyze``  - structure of the difference operator: regime, node
  relations, end columns, spectrum, index table.
* ``solve``    - exact solve; writes ``<prefix>-report`` and
  ``<prefix>-solution.csv``.
* ``spectrum`` - eigenvalues of the shift matrix, with optional grid
  containment checks.
* ``verify``   - the acceptance battery (fast or full).

Exit codes: 0 success, 1 unreadable or invalid input (including data whose
exact solve would exceed the polynomial degree cap, and a stencil coefficient
or a CSV sample outside the double range), 2 stencil outside the
supported regime (including a failed exact rank assumption, ``StructureError``),
3 infeasible problem (report still written), 4 verification failures.

Rejected input takes one path, whether it comes from a problem file or from
the command line: a ``ProblemFileError`` naming the field or flag, which
``main`` turns into one ``error:`` line and exit 1.  ``--samples`` goes
through the problem file's number validator, with its bit and exponent
bounds, and the argument parser raises its usage errors the same way
(``--help`` still exits 0).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from fractions import Fraction

from .grid import grid_resolution_error, spectrum_check
from .piecewise import DegreeCapError
from .problem_io import ParsedProblem, ProblemFileError, _clip, _rational, load_problem, solution_csv_lines, solve_report
from .solver import SolveStatus, boundary_matrix, solve_nonhomogeneous
from .structure import StructureError, UnsupportedRegimeError
from . import exactla

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REGIME = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

# Largest number of regular CSV rows, (N+1)/step, that ``solve`` will sample.
MAX_SAMPLE_ROWS = 10 ** 6


def _fmt_complex(z) -> str:
    if z.imag == 0:
        return "%.17g" % z.real
    return "%.17g%+.17gj" % (z.real, z.imag)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int/str digit limit while exact results are computed and formatted.

    Values computed from inputs within the limit can exceed it.  The limit is
    process-wide, so it is restored on the way out; parsing runs outside this
    scope and keeps it.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _print_stencil(parsed: ParsedProblem, out) -> None:
    print("stencil: N = %d, b = %s" % (parsed.stencil.N, parsed.stencil), file=out)


def cmd_analyze(args, out) -> int:
    parsed = load_problem(args.file)
    with _unlimited_int_digits():
        return _analyze_report(parsed, out)


def _analyze_report(parsed: ParsedProblem, out) -> int:
    stencil = parsed.stencil
    try:
        report = stencil.structure
    except UnsupportedRegimeError as exc:
        _print_regime(parsed, out)
        print("unsupported: %s" % exc, file=out)
        return EXIT_REGIME
    eigs = stencil.r1_eigenvalues  # a coefficient outside the double range stops here, before the first line
    _print_regime(parsed, out)

    gamma = report.gamma
    print("anchor node m = %d" % gamma.m, file=out)
    print("edge relation gamma1: %s" % _gamma_text(gamma.gamma1), file=out)
    print("interior relation gamma2: %s" % _gamma_text(gamma.gamma2), file=out)
    print("mirrored edge relation gamma1': %s" % _gamma_text(report.alt_gamma.gamma1), file=out)

    ends = report.ends
    print("end columns: first inner = (%s), last inner = (%s)" % (
        ", ".join(str(x) for x in ends.first_inner),
        ", ".join(str(x) for x in ends.last_inner)), file=out)
    if ends.dependent:
        print("end columns dependent: yes, alpha = (%s, %s), minor column l = %d"
              % (ends.alpha[0], ends.alpha[1], ends.l), file=out)
    else:
        print("end columns dependent: no", file=out)

    print("spectrum of R1:", file=out)
    for eig in eigs:
        print("  %s" % _fmt_complex(eig), file=out)

    k = parsed.problem.k
    table = report.index_table(k)
    print("index table at k = %d:" % k, file=out)
    print("  codimension of the difference image: %d" % table.codim_difference_image, file=out)
    print("  codimension, minimal domain: %d" % table.codim_minimal_domain, file=out)
    print("  codimension, zero-trace domain: %d" % table.codim_zero_trace_domain, file=out)
    print("  index, zero-trace problem: %d" % table.index_zero_trace, file=out)
    print("  index, minimal-domain problem: %d" % table.index_minimal, file=out)
    print("boundary matrix rank: %d" % exactla.TwoColumnSystem(boundary_matrix(report)).rank, file=out)
    return EXIT_OK


def _print_regime(parsed: ParsedProblem, out) -> None:
    stencil = parsed.stencil
    _print_stencil(parsed, out)
    print("shift matrix R1:", file=out)
    for row in stencil.r1:
        print("  [%s]" % ", ".join(str(x) for x in row), file=out)
    print("det R1 = %s" % stencil.det_r1, file=out)
    print("det R2 = %s" % stencil.det_r2, file=out)
    print("regime: %s" % stencil.regime.value, file=out)


def _gamma_text(coeffs: dict) -> str:
    if not coeffs:
        return "(empty)"
    return ", ".join("[%d] = %s" % (i, c) for i, c in sorted(coeffs.items()))


def cmd_solve(args, out) -> int:
    step = _rational(args.samples, "--samples")
    if step <= 0:
        raise ProblemFileError("--samples", "must be positive")
    parsed = load_problem(args.file)
    span = parsed.stencil.N + 1
    if span / step > MAX_SAMPLE_ROWS:
        raise ProblemFileError(
            "--samples", "%s gives more than %d CSV rows on (0, %d)" % (_clip(str(step)), MAX_SAMPLE_ROWS, span)
        )
    with _unlimited_int_digits():
        return _solve_and_write(args, parsed, step, out)


def _solve_and_write(args, parsed: ParsedProblem, step: Fraction, out) -> int:
    try:
        family = solve_nonhomogeneous(parsed.problem)
    except UnsupportedRegimeError as exc:
        print("unsupported: %s" % exc, file=out)
        return EXIT_REGIME
    report = solve_report(parsed, family)  # built before any file is opened
    report_path = args.out + "-report"
    csv_path = args.out + "-solution.csv"
    try:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(solution_csv_lines(family, parsed.problem.f0, step))
    except OverflowError:
        os.remove(csv_path)
        raise OverflowError("a sample of v, dv, w or f0 lies outside the double range; no CSV or report written") from None
    with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report)
    print("status: %s" % family.status.value, file=out)
    print("wrote %s and %s" % (report_path, csv_path), file=out)
    if family.status is SolveStatus.INFEASIBLE:
        for label, value in family.residuals:
            print("violated: %s, residual %s" % (label, value), file=out)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_spectrum(args, out) -> int:
    parsed = load_problem(args.file)
    for n in args.grid or ():
        error = grid_resolution_error(parsed.stencil.N, n)
        if error:
            raise ProblemFileError("--grid %d" % n, error)
    eigs = parsed.stencil.r1_eigenvalues  # a coefficient outside the double range stops here, before the first line
    _print_stencil(parsed, out)
    print("spectrum of R1:", file=out)
    for eig in eigs:
        print("  %s" % _fmt_complex(eig), file=out)

    resolutions = tuple(args.grid or ())
    if not resolutions and parsed.oracle is not None:
        resolutions = parsed.oracle.n_values
    for n in resolutions:
        chk = spectrum_check(parsed.stencil, n)
        print("grid n = %d: containment distance %.3e, block distance %.3e, %s"
              % (n, chk.containment_distance, chk.block_distance,
                 "ok" if chk.ok else "MISMATCH"), file=out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from .verification import run_battery

    results = run_battery(level=args.level)
    failed = 0
    for res in results:
        line = "criterion %2d %-38s %s" % (res.number, res.name + ":", "PASS" if res.passed else "FAIL")
        print(line, file=out)
        if res.detail:
            print("    %s" % res.detail, file=out)
        if not res.passed:
            failed += 1
    print("%d of %d checks passed" % (len(results) - failed, len(results)), file=out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ProblemFileError``; its subparsers inherit the class."""

    def error(self, message):
        # argparse quotes a rejected value whole; it is clipped as every other echoed value is
        raise ProblemFileError(self.prog, re.sub(r"'([^']*)'", lambda m: "'%s'" % _clip(m.group(1)), message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = _Parser(
        prog="ddbvp",
        description="Exact analysis and solution of second-order differential-difference boundary value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="structure report for a problem file")
    p_analyze.add_argument("file", help="JSON problem file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_solve = sub.add_parser("solve", help="solve a problem file exactly")
    p_solve.add_argument("file", help="JSON problem file")
    p_solve.add_argument("--samples", default="1/8", help="sample step for the CSV, a positive rational (default 1/8)")
    p_solve.add_argument("--out", required=True, help="output prefix for <prefix>-report and <prefix>-solution.csv")
    p_solve.set_defaults(func=cmd_solve)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of the shift matrix")
    p_spec.add_argument("file", help="JSON problem file")
    p_spec.add_argument("--grid", type=int, action="append", help="also check containment in the grid operator at this resolution (repeatable)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except (ProblemFileError, OSError, DegreeCapError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except StructureError as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
