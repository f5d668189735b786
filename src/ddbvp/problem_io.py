"""Problem files, solve reports and solution CSV output.

A problem file is a JSON document:

    {
      "N": 1,
      "b": ["1", "0", "1"],
      "k": 0,
      "f0": [{"interval": ["0", "2"], "coeffs": ["1"], "basis": "local"}],
      "f1": ["0"],
      "f2": ["0"],
      "oracle": {"n_values": [32, 64], "a": [ ...pieces like f0... ]}
    }

Every number that feeds the exact computation is an integer or a "p/q"
string; floats are rejected so no rounding can sneak in through an input
file, and so is a number whose numerator or denominator is longer than
``MAX_RATIONAL_BITS``, with one error naming the field.  f1/f2/oracle are optional.  Piece coefficients are in the local
coordinate of the piece (x = t - left endpoint).  Polynomial degrees are
checked against ``piecewise.DEGREE_CAP`` on parsing: every piece of f0 and
of oracle.a, f1 and f2 after trailing zeros are trimmed, and the degree 2k+3
of the Hermite extension that every solve builds, so k <= 30.

Reports embed the canonical re-serialization of their input between marker
lines, so a solution can be reproduced byte-for-byte from the report alone.
The solution CSV walks v, v', w and f0, aligned on one partition, piece by
piece, and prints every value as the correctly rounded float of the exact one.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import Iterator

from .grid import grid_resolution_error
from .piecewise import DEGREE_CAP, DegreeCapError, PiecewisePoly, _taylor, align_many, progression_floats, ptrim
from .solver import BVPProblem, SolutionFamily, SolveStatus
from .structure import Stencil

INPUT_BEGIN = "--- canonical problem input ---"
INPUT_END = "--- end problem input ---"

CSV_HEADER = "t,v,dv,w,f0"


class ProblemFileError(ValueError):
    """Problem file rejected; the message names the offending field."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__("%s: %s" % (where, message))


@dataclass(frozen=True)
class OracleRequest:
    n_values: tuple[int, ...]
    a: PiecewisePoly | None


@dataclass(frozen=True)
class ParsedProblem:
    stencil: Stencil
    problem: BVPProblem
    oracle: OracleRequest | None


# Longest echo of a rejected value in an error line; longer ones are clipped.
ECHO_CHARS = 40


def _clip(text: str) -> str:
    """``text``, or its first ECHO_CHARS characters and its length when it is longer."""
    if len(text) <= ECHO_CHARS:
        return text
    return "%s… (%d characters)" % (text[:ECHO_CHARS], len(text))


# Longest numerator or denominator of a number in a problem file, in bits.  Exact work grows
# with the entries' length, and an exponent string is short: "1e200000" (664,386 bits) as b_-1
# kept solve busy for 42 s.  With two nonzero stencil entries of 8,192 bits (values near 1,
# distinct denominators) solve took 0.07 s at N = 1, k = 0 and 0.14 s at N = 2, k = 2, but at
# N = 64, k = 30 it took 103 s with 1,025-bit entries (one core of a 2-core Xeon), so the bound
# stops runaway cost from short fields, not the cost of a large N.  It accepts "1e400" and
# "1e-400" (1,329 bits) and 1,500-digit "p/q" strings (4,980 bits).
MAX_RATIONAL_BITS = 8192


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProblemFileError(where, "expected an integer or a 'p/q' string, got %s" % _clip(repr(value)))
    if isinstance(value, str):
        # Fraction builds 10^e for a decimal exponent e; refuse an e that no nonzero number of
        # this many characters can have within the bound, before 10^e is built
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", value, re.IGNORECASE) if "e" in value.lower() else None
        if exponent and abs(int(exponent[1])) > MAX_RATIONAL_BITS + 2 * len(value):
            raise ProblemFileError(where, "decimal exponent of %s is out of range" % _clip(repr(value)))
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFileError(where, "not a rational: %s (%s)" % (_clip(repr(value)), _clip(str(exc)))) from None
    x = value if isinstance(value, Fraction) else Fraction(value)
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_RATIONAL_BITS:
        raise ProblemFileError(where, "numerator or denominator longer than %d bits" % MAX_RATIONAL_BITS)
    return x


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(where, "expected an integer, got %s" % _clip(repr(value)))
    return value


def _pieces(value, where: str) -> PiecewisePoly:
    if not isinstance(value, list) or not value:
        raise ProblemFileError(where, "expected a nonempty list of pieces")
    breaks = []
    polys = []
    for idx, piece in enumerate(value):
        here = "%s[%d]" % (where, idx)
        if not isinstance(piece, dict):
            raise ProblemFileError(here, "expected an object with interval/coeffs")
        unknown = set(piece) - {"interval", "coeffs", "basis"}
        if unknown:
            raise ProblemFileError(here, "unknown keys: %s" % ", ".join(sorted(unknown)))
        basis = piece.get("basis", "local")
        if basis != "local":
            raise ProblemFileError(here + ".basis", "only 'local' coefficients are supported")
        interval = piece.get("interval")
        if not isinstance(interval, list) or len(interval) != 2:
            raise ProblemFileError(here + ".interval", "expected [left, right]")
        left = _rational(interval[0], here + ".interval[0]")
        right = _rational(interval[1], here + ".interval[1]")
        if right <= left:
            raise ProblemFileError(here + ".interval", "must be increasing")
        coeffs = piece.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ProblemFileError(here + ".coeffs", "expected a nonempty list")
        poly = tuple(_rational(c, "%s.coeffs[%d]" % (here, j)) for j, c in enumerate(coeffs))
        if idx == 0:
            breaks.append(left)
        elif left != breaks[-1]:
            raise ProblemFileError(here + ".interval", "pieces must be adjacent (previous piece ends at %s)" % breaks[-1])
        breaks.append(right)
        polys.append(poly)
    try:
        return PiecewisePoly.from_pieces(breaks, polys)
    except DegreeCapError as exc:
        raise ProblemFileError(where, str(exc)) from None


# Largest N of a problem file.  analyze on a fresh stencil, mostly its one forward pass of
# [T | I] and the back substitution, takes about 0.033-0.053 s at N = 64 and 0.11-0.13 s at
# N = 96 with independent end columns, 0.013-0.025 and 0.040-0.046 s with dependent ones (six
# medians of 9 runs each, interleaved with the Gauss-Jordan elimination it replaced, which took
# 0.050-0.082, 0.18-0.22, 0.024-0.045 and 0.078-0.089 s; one core of a shared 2-core Xeon); the
# cap is not yet re-set from these figures.
MAX_STENCIL_N = 64


def _coeff_list(value, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise ProblemFileError(where, "expected a nonempty list of coefficients")
    coeffs = ptrim([_rational(c, "%s[%d]" % (where, j)) for j, c in enumerate(value)])
    if len(coeffs) - 1 > DEGREE_CAP:
        raise ProblemFileError(where, "polynomial degree %d exceeds cap %d" % (len(coeffs) - 1, DEGREE_CAP))
    return coeffs


def parse_problem(text: str) -> ParsedProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError("line %d, column %d" % (exc.lineno, exc.colno), exc.msg) from None
    except ValueError:
        # an integer literal beyond the interpreter's decimal conversion limit
        raise ProblemFileError("document", "integer literal of more than %d digits" % sys.get_int_max_str_digits()) from None
    except RecursionError:
        raise ProblemFileError("document", "arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ProblemFileError("document", "expected a JSON object")
    unknown = set(doc) - {"N", "b", "k", "f0", "f1", "f2", "oracle"}
    if unknown:
        raise ProblemFileError("document", "unknown keys: %s" % ", ".join(sorted(unknown)))
    for key in ("N", "b", "k", "f0"):
        if key not in doc:
            raise ProblemFileError(key, "missing required field")

    big = _integer(doc["N"], "N")
    if big < 1:
        raise ProblemFileError("N", "must be >= 1")
    if big > MAX_STENCIL_N:
        raise ProblemFileError("N", "must be <= %d, got %d" % (MAX_STENCIL_N, big))
    raw_b = doc["b"]
    if not isinstance(raw_b, list):
        raise ProblemFileError("b", "expected a list of 2N+1 rationals")
    if len(raw_b) != 2 * big + 1:
        raise ProblemFileError("b", "expected 2N+1 = %d entries, got %d" % (2 * big + 1, len(raw_b)))
    coeffs = [_rational(x, "b[%d]" % j) for j, x in enumerate(raw_b)]
    try:
        stencil = Stencil.from_coeffs(coeffs)
    except ValueError as exc:
        raise ProblemFileError("b", str(exc)) from None

    k = _integer(doc["k"], "k")
    if k < 0:
        raise ProblemFileError("k", "must be >= 0")

    f0 = _pieces(doc["f0"], "f0")
    f1 = _coeff_list(doc["f1"], "f1") if "f1" in doc else (Fraction(0),)
    f2 = _coeff_list(doc["f2"], "f2") if "f2" in doc else (Fraction(0),)
    if 2 * k + 3 > DEGREE_CAP:
        raise ProblemFileError(
            "k", "the solve builds a Hermite extension of degree 2k+3 = %d, above the "
            "polynomial degree cap %d" % (2 * k + 3, DEGREE_CAP)
        )

    oracle = None
    if "oracle" in doc:
        raw = doc["oracle"]
        if not isinstance(raw, dict):
            raise ProblemFileError("oracle", "expected an object")
        unknown = set(raw) - {"n_values", "a"}
        if unknown:
            raise ProblemFileError("oracle", "unknown keys: %s" % ", ".join(sorted(unknown)))
        ns = raw.get("n_values", [])
        if not isinstance(ns, list):
            raise ProblemFileError("oracle.n_values", "expected a list of integers")
        n_values = tuple(_integer(x, "oracle.n_values[%d]" % j) for j, x in enumerate(ns))
        for j, n in enumerate(n_values):
            error = grid_resolution_error(big, n)
            if error:
                raise ProblemFileError("oracle.n_values[%d]" % j, error)
        a = _pieces(raw["a"], "oracle.a") if "a" in raw else None
        oracle = OracleRequest(n_values=n_values, a=a)

    try:
        problem = BVPProblem(stencil=stencil, k=k, f0=f0, f1=f1, f2=f2)
    except ValueError as exc:
        raise ProblemFileError("f0", str(exc)) from None
    return ParsedProblem(stencil=stencil, problem=problem, oracle=oracle)


def load_problem(path: str) -> ParsedProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _pieces_doc(f: PiecewisePoly) -> list:
    out = []
    breaks = f.breaks
    for i, piece in enumerate(f.pieces):
        out.append({
            "interval": [str(breaks[i]), str(breaks[i + 1])],
            "coeffs": [str(c) for c in piece],
            "basis": "local",
        })
    return out


def canonical_problem_text(parsed: ParsedProblem) -> str:
    """Canonical serialization: fixed key order, reduced 'p/q' rationals."""
    stencil = parsed.stencil
    problem = parsed.problem
    doc = {
        "N": stencil.N,
        "b": [str(stencil.b(j)) for j in range(-stencil.N, stencil.N + 1)],
        "k": problem.k,
        "f0": _pieces_doc(problem.f0),
    }
    if problem.f1 != (Fraction(0),):
        doc["f1"] = [str(c) for c in problem.f1]
    if problem.f2 != (Fraction(0),):
        doc["f2"] = [str(c) for c in problem.f2]
    if parsed.oracle is not None:
        oracle = {}
        if parsed.oracle.n_values:
            oracle["n_values"] = list(parsed.oracle.n_values)
        if parsed.oracle.a is not None:
            oracle["a"] = _pieces_doc(parsed.oracle.a)
        doc["oracle"] = oracle
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# solution CSV


# one CSV row: t, v, dv, w, f0, each float to 17 significant digits
_ROW = ",".join(["%.17g"] * 5) + "\n"


def solution_csv(family: SolutionFamily, f0: PiecewisePoly, step: Fraction) -> str:
    """The whole sampled solution table as one string; see ``solution_csv_lines``."""
    return "".join(solution_csv_lines(family, f0, step))


def solution_csv_lines(family: SolutionFamily, f0: PiecewisePoly, step: Fraction) -> Iterator[str]:
    """Sampled solution table, t,v,dv,w,f0, one newline-terminated line at a time.

    Regular rows sample the open interval at t = start + i*step, skipping
    every breakpoint of v, w or f0; each breakpoint contributes one row per
    existing one-sided limit (left first).  Infeasible problems produce just
    the header.

    v, v', w and f0 are aligned on one partition, and its pieces are walked
    once, in row order: the right-limit row at the piece's left end, the
    regular rows inside it, the left-limit row at its right end.  Rows are
    made as they are taken, and no row is held.  An endpoint value is the
    order-0 ``_taylor`` ratio, divided as one int / int.  The regular rows
    of a piece zip its t column, divided out of integers, with one
    ``progression_floats`` per column: when the piece's first regular row is
    taken, each column computes the integer numerators of its first
    degree + 1 rows, and every later numerator and every float is made as
    its row is taken.  Every printed float is the correctly rounded exact
    value, and a value outside the double range raises ``OverflowError``
    when its row is taken.
    """
    yield CSV_HEADER + "\n"
    if family.v is None:
        return
    if step <= 0:
        raise ValueError("sample step must be positive")
    v = family.v
    columns = align_many((v, v.derivative(1), family.w, f0))
    nodes, scale = columns[0].nodes, columns[0].scale

    # t_i = start + i*step = (first + i*stride) / den, and a node n is n * step.denominator / den
    den = scale * step.denominator
    first = nodes[0] * step.denominator
    stride = step.numerator * scale
    for idx, (lo, hi) in enumerate(zip(nodes, nodes[1:])):
        forms = [g.forms[idx] for g in columns]
        yield _ROW % (lo / scale, *[truediv(*_taylor(*form, 0, 1, 0)) for form in forms])
        # the regular rows strictly inside (lo, hi), at local x = t_i - lo
        lo_t, hi_t = lo * step.denominator, hi * step.denominator
        t_nums = range(first + ((lo_t - first) // stride + 1) * stride, hi_t, stride)
        values = [progression_floats(form, t_nums.start - lo_t, stride, den, len(t_nums)) for form in forms]
        yield from map(_ROW.__mod__, zip(map(truediv, t_nums, repeat(den)), *values))
        yield _ROW % (hi / scale, *[truediv(*_taylor(*form, hi - lo, scale, 0)) for form in forms])


# ---------------------------------------------------------------------------
# solve report


def _matrix_lines(family: SolutionFamily) -> list[str]:
    out = []
    for row in family.boundary_matrix:
        out.append("  [%s, %s]" % (row[0], row[1]))
    return out


def _smoothness_lines(family: SolutionFamily) -> list[str]:
    report = family.smoothness
    if report is None:
        return ["smoothness: not applicable (no solution)"]
    out = ["smoothness report (order k = %d):" % report.k]
    out.append("  data in W^k: %s" % ("yes" if report.data_smooth else "no"))
    if report.data_defects:
        for node, order, value in report.data_defects:
            out.append("    data jump at t = %s, order %d: %s" % (node, order, value))
    if report.node_jumps:
        out.append("  interior node jumps of the solution:")
        for node, order, value in report.node_jumps:
            out.append("    t = %s, derivative order %d: %s" % (node, order, value))
    if report.offgrid_defects:
        out.append("  off-node jumps of the solution:")
        for node, order, value in report.offgrid_defects:
            out.append("    t = %s, derivative order %d: %s" % (node, order, value))
    out.append("  solution in W^{k+2} inside the interval: %s" % ("yes" if report.smooth_interior else "no"))
    out.append("  extension in W^{k+2} across the seams: %s" % ("yes" if report.smooth_extension else "no"))
    for name, ok, residuals in (
        ("zero-trace class", report.zero_trace_solvable, report.zero_trace_residuals),
        ("minimal domain", report.minimal_solvable, report.minimal_residuals),
    ):
        out.append("  solvable in the %s: %s" % (name, "yes" if ok else "no"))
        for label, value in residuals:
            out.append("    violated: %s, residual %s" % (label, value))
    return out


def solve_report(parsed: ParsedProblem, family: SolutionFamily) -> str:
    stencil = parsed.stencil
    lines = []
    lines.append("second-order difference boundary value problem")
    lines.append("stencil: N = %d, b = %s" % (stencil.N, stencil))
    lines.append("smoothness order k = %d" % parsed.problem.k)
    lines.append("")
    lines.append("status: %s" % family.status.value)
    lines.append("boundary matrix (rows: edge relation, interior relation):")
    lines.extend(_matrix_lines(family))
    lines.append("rank: %d" % family.boundary_rank)
    lines.append("right-hand side: (%s, %s)" % family.rhs)
    if family.d is not None:
        lines.append("integration constants: d1 = %s, d2 = %s" % family.d)
    if family.kernel:
        lines.append("kernel directions (w = c1*t + c2):")
        for direction in family.kernel:
            lines.append("  c = (%s, %s)" % direction.c)
    elif family.status is not SolveStatus.INFEASIBLE:
        lines.append("kernel: trivial")
    if family.residuals:
        lines.append("violated solvability constraints:")
        for label, value in family.residuals:
            lines.append("  %s, residual %s" % (label, value))
    lines.append("")
    lines.extend(_smoothness_lines(family))
    lines.append("")
    lines.append(INPUT_BEGIN)
    lines.append(canonical_problem_text(parsed).rstrip("\n"))
    lines.append(INPUT_END)
    return "\n".join(lines) + "\n"


def extract_problem_text(report_text: str) -> str:
    """Pull the canonical problem input back out of a report."""
    try:
        head = report_text.index(INPUT_BEGIN) + len(INPUT_BEGIN)
        tail = report_text.index(INPUT_END)
    except ValueError:
        raise ValueError("report carries no embedded problem input") from None
    return report_text[head:tail].strip() + "\n"
