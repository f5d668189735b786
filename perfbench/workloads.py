"""The benchmark workloads: seeded inputs, one pass of operations, output checks.

Each workload turns a seed into inputs, then exposes one pass as a list of
``Op``.  An op's ``run`` is the timed call into ddbvp's public API; its
``check`` runs afterwards, outside the timed region, and returns an error
message or None.  Exact results are compared exactly, never within a
tolerance; only the grid oracle's double-precision results use one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ddbvp import cli, exactla, grid, piecewise, problem_io, solver, structure, verification
from ddbvp.piecewise import PiecewisePoly


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _exact_only(f: PiecewisePoly) -> bool:
    return all(type(x) is Fraction for x in f.breaks) and all(
        type(c) is Fraction for piece in f.pieces for c in piece
    )


# ---------------------------------------------------------------------------
# verify-full


class VerifyFull:
    """``run_battery("full")``: the acceptance battery, fixed internal seed."""

    reference = "fraction"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.problems_per_pass = 1

    def warm_up(self) -> None:
        verification.check_worked_solution()

    def ops(self) -> list[Op]:
        return [Op("battery", lambda: verification.run_battery("full"), _check_battery)]


def _check_battery(results) -> str | None:
    numbers = sorted(r.number for r in results if r.number)
    if numbers != list(range(1, 11)):
        return "battery ran criteria %s, expected 1..10" % numbers
    failed = [r.number for r in results if not r.passed]
    return "criteria %s failed" % failed if failed else None


# ---------------------------------------------------------------------------
# wide-exact


@dataclass(frozen=True)
class WideInstance:
    problem: solver.BVPProblem
    dependent: bool


def wide_stencil(rng: random.Random, n: int, dependent: bool) -> structure.Stencil:
    """Supported-regime stencil by construction.

    b_0 = ... = b_{N-1} = 0 makes R2 strictly lower triangular (det R2 = 0),
    and det R1 = +-b_N * b_{-1}^N != 0.  The clipped end columns
    (b_{-1}, ..., b_{-N}) and (b_N, 0, ..., 0) are dependent exactly when
    b_{-2} = ... = b_{-N} = 0.
    """
    b = {j: 0 for j in range(-n, n + 1)}
    # Fixed magnitudes for the two entries that set det R1, so the size of
    # the rationals, and with it the cost, varies little from seed to seed.
    b[-1] = rng.choice((3, -3))
    b[n] = rng.choice((2, -2))
    if not dependent:
        for j in range(-n, -1):
            b[j] = rng.choice((1, -1, 2, -2))
    return structure.Stencil.from_coeffs([b[j] for j in range(-n, n + 1)])


def _small_poly(rng: random.Random, degree: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(degree)]
    return tuple(coeffs) + (Fraction(rng.choice((1, -1, 2))),)


class WideExact:
    """solve_nonhomogeneous + index_report on wide supported-regime stencils.

    The sweep is the diagonal of N in {8, 16, 24} x k in {0, 4, 8}, so every
    N and every k appears once and N = 24, k = 8 stays in; each cell runs with
    independent and with dependent end columns.
    """

    reference = "fraction"

    CELLS = ((8, 0), (16, 4), (24, 8))
    STENCIL_SEED = 20260816
    TINY_CELLS = ((2, 0), (3, 1))

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        # The stencils come from a fixed seed: with seeded stencils the cost
        # of the N = 24 solves, and so the pass time, varied by 15% from seed
        # to seed.  The run's seed draws f0, f1 and f2.
        stencil_rng = random.Random(self.STENCIL_SEED)
        self.instances = []
        for n, k in self.TINY_CELLS if tiny else self.CELLS:
            for dependent in (False, True):
                stencil = wide_stencil(stencil_rng, n, dependent)
                # Redraw the rare stencil whose boundary matrix has rank 1, so
                # that every instance has a unique solution to check.
                while exactla.rank(solver.boundary_matrix(structure.analyze(stencil))) != 2:
                    stencil = wide_stencil(stencil_rng, n, dependent)
                f0 = PiecewisePoly.from_global(_small_poly(rng, 2), (0, n + 1))
                problem = solver.BVPProblem(
                    stencil=stencil, k=k, f0=f0, f1=_small_poly(rng, 1), f2=_small_poly(rng, 2)
                )
                self.instances.append(WideInstance(problem, dependent))
        self.problems_per_pass = len(self.instances)
        self._verified: dict[int, tuple] = {}

    def warm_up(self) -> None:
        first = self.instances[0].problem
        solver.solve_nonhomogeneous(first)
        solver.index_report(first)

    def ops(self) -> list[Op]:
        out = []
        for i, inst in enumerate(self.instances):
            problem = inst.problem
            out.append(Op(
                "solve[%d]" % i,
                lambda p=problem: solver.solve_nonhomogeneous(p),
                lambda fam, i=i, inst=inst: self._check_solution(i, inst, fam),
            ))
            out.append(Op(
                "index_report[%d]" % i,
                lambda p=problem: solver.index_report(p),
                lambda rep, inst=inst: _check_index_report(inst, rep),
            ))
        return out

    def _check_solution(self, i: int, inst: WideInstance, fam) -> str | None:
        if fam.v is None or fam.extension is None:
            return "no solution (status %s)" % fam.status.value
        # An output equal to one already verified is verified.
        fingerprint = (fam.v.breaks, fam.v.pieces, fam.extension.breaks, fam.extension.pieces)
        if self._verified.get(i) == fingerprint:
            return None
        error = check_wide_solution(inst.problem, fam.v, fam.extension)
        if error is None:
            self._verified[i] = fingerprint
        return error


def check_wide_solution(problem: solver.BVPProblem, v: PiecewisePoly, y: PiecewisePoly) -> str | None:
    """Exact check of a solution v with its extension y on (-N, 2N+1).

    y equals f1, v and f2 on the three intervals and is continuous, and
    w = R y is C^1 on (0, N+1) with -w'' = f0 piece by piece.  Continuity
    and the C^1 condition are what tie the pieces together: a constant added
    to y on (0, N+1) alone keeps -w'' = f0 on every piece.
    """
    n = problem.stencil.N
    if not (_exact_only(v) and _exact_only(y)):
        return "solution carries a non-Fraction value"
    if (y.start, y.end) != (-n, 2 * n + 1):
        return "extension lives on (%s, %s)" % (y.start, y.end)
    if not y.restricted(0, n + 1).same(v):
        return "extension differs from v on (0, N+1)"
    if not y.restricted(-n, 0).same(PiecewisePoly.from_global(problem.f1, (-n, 0))):
        return "extension differs from f1 on (-N, 0)"
    if not y.restricted(n + 1, 2 * n + 1).same(PiecewisePoly.from_global(problem.f2, (n + 1, 2 * n + 1))):
        return "extension differs from f2 on (N+1, 2N+1)"
    if any(y.jump(t, 0) != 0 for t in y.breaks[1:-1]):
        return "extension is discontinuous"
    w = piecewise.apply_shifted_sum(problem.stencil, y)
    if any(w.jump(t, mu) != 0 for t in w.breaks[1:-1] for mu in (0, 1)):
        return "R y is not C^1 on (0, N+1)"
    if not w.derivative(2).scaled(-1).same(problem.f0):
        return "-(R y)'' != f0"
    return None


def _check_index_report(inst: WideInstance, rep) -> str | None:
    if not rep.all_ok:
        return "index report rows disagree: %s" % [r.name for r in rep.rows if not r.ok]
    if rep.dependent != inst.dependent:
        return "end columns reported %s, built %s" % (rep.dependent, inst.dependent)
    return None


# ---------------------------------------------------------------------------
# cli-batch

# Supported-regime stencils whose 2 x 2 boundary matrix has rank 2, so every
# problem on them has a unique solution and `solve` exits 0; the last three
# (N = 3) or four (N = 2) have dependent end columns.  Scaling a stencil by a
# nonzero constant keeps both properties.  N = 1 stencils (b, 0, c) are drawn
# directly: rank 2 holds exactly when b != -c.
CLI_POOL = {
    2: ((1, 0, 0, 2, 2), (2, 0, 0, 1, -3), (-3, -2, -2, -2, 2), (1, 2, -2, 2, -3),
        (-3, 0, 0, 2, 0), (2, 0, 0, 3, 0), (1, -1, -1, -1, 1), (0, -2, 0, 0, -3)),
    3: ((-1, 2, 1, -1, -2, -1, -3), (3, -1, -2, 1, 2, -1, 2), (0, 0, 1, 0, 1, 0, -2),
        (1, 0, -3, 0, 0, 0, -2), (-1, 0, 3, 0, -1, 0, 3), (0, 0, 1, 0, 0, 0, -2),
        (-2, 0, 3, 0, 2, 0, -3)),
}
CLI_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
CLI_STEP = Fraction(1, 64)
CLI_K = (0, 1, 2, 3)
N1_PER_K = 10  # 4 k x (10 + 8 + 7 stencils) = 100 regular files


@dataclass(frozen=True)
class CliFile:
    path: str
    n: int
    fractional_breaks: tuple[Fraction, ...]  # off-node breaks of f0, mod 1
    solve_codes: frozenset[int]
    analyze_codes: frozenset[int]


def _n1_stencil(rng: random.Random) -> tuple[int, ...]:
    left = rng.choice((1, -1, 2, -2, 3))
    return (left, 0, rng.choice([c for c in (1, -1, 2, -2, 3) if c != -left]))


def _cli_document(rng: random.Random, coeffs, k: int, with_extension: bool) -> tuple[dict, Fraction]:
    n = (len(coeffs) - 1) // 2
    q = rng.choice((3, 5, 7))
    phase = Fraction(rng.randint(1, q - 1), q)
    cut = rng.randint(0, n) + phase
    pieces = []
    for lo, hi in ((0, cut), (cut, n + 1)):
        poly = [str(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(rng.randint(1, 3))]
        pieces.append({"interval": [str(lo), str(hi)], "coeffs": poly})
    scale = rng.choice(CLI_SCALES)
    doc = {"N": n, "b": [str(scale * c) for c in coeffs], "k": k, "f0": pieces}
    if with_extension:
        doc["f1"] = [rng.randint(-3, 3), rng.choice((1, -1, 2))]
        doc["f2"] = [rng.choice((1, -1)), rng.randint(-3, 3)]
    return doc, phase


class CliBatch:
    """``ddbvp solve`` then ``ddbvp analyze`` on a batch of problem files.

    Besides the regular files the batch holds one out-of-regime stencil
    (exit 2), one malformed field (exit 1) and one file whose Hermite
    extension degree 2k+3 exceeds the polynomial degree cap.  For that file
    `solve` must end in a documented exit code: 1 (rejected) or 0 with a
    correct solution.  It raises DegreeCapError instead at the time of
    writing, and stays in the batch as a failed operation.
    """

    reference = "fraction"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.files: list[CliFile] = []
        ok = frozenset({0})
        # Every pool stencil meets every k once, so the cost of a pass
        # depends little on the seed; the seed draws scales and data.
        for k in CLI_K[:2] if tiny else CLI_K:
            stencils = [_n1_stencil(rng) for _ in range(1 if tiny else N1_PER_K)]
            stencils += CLI_POOL[2][:1] + CLI_POOL[3][:1] if tiny else CLI_POOL[2] + CLI_POOL[3]
            for coeffs in stencils:
                doc, phase = _cli_document(rng, coeffs, k, with_extension=len(self.files) % 2 == 1)
                self._write(doc, doc["N"], (phase,), ok, ok)

        c = rng.choice((2, 3, -2, -3))  # det R1 = c^2 - 1 != 0 and det R2 = c != 0
        regime_doc, _ = _cli_document(rng, (1, 0, 1), 0, with_extension=False)
        regime_doc["b"] = [1, c, 1]
        self._write(regime_doc, 1, (), frozenset({2}), frozenset({2}))

        bad_doc, _ = _cli_document(rng, CLI_POOL[2][0], 1, with_extension=True)
        bad_doc["b"][rng.randrange(5)] = 0.5  # floats are rejected by the parser
        self._write(bad_doc, 2, (), frozenset({1}), frozenset({1}))

        over_cap = 31 if tiny else 40  # extension degree 2k+3 = 65 or 83 > 64
        cap_doc = {"N": 1, "b": [1, 0, 1], "k": over_cap, "f1": [1], "f0": [{"interval": [0, 2], "coeffs": [1]}]}
        self._write(cap_doc, 1, (), frozenset({0, 1}), frozenset({0, 1}))
        self.problems_per_pass = len(self.files)

    def _write(self, doc: dict, n: int, phases, solve_codes, analyze_codes) -> None:
        path = os.path.join(self.workdir, "p%03d.json" % len(self.files))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        self.files.append(CliFile(path, n, tuple(phases), solve_codes, analyze_codes))

    def warm_up(self) -> None:
        self._file_op(0, self.files[0]).run()

    def ops(self) -> list[Op]:
        return [self._file_op(i, f) for i, f in enumerate(self.files)]

    def _file_op(self, i: int, f: CliFile) -> Op:
        """One user action: `solve` then `analyze` on the same file."""
        prefix = os.path.join(self.outdir, "p%03d" % i)
        solve_argv = ["solve", f.path, "--out", prefix, "--samples", str(CLI_STEP)]
        analyze_argv = ["analyze", f.path]
        return Op(
            "file[%d]" % i,
            lambda: (run_cli(solve_argv), run_cli(analyze_argv)),
            lambda out: _check_solve(f, prefix, out[0]) or _check_analyze(f, out[1]),
        )


def _check_solve(f: CliFile, prefix: str, out) -> str | None:
    code, _ = out
    if code not in f.solve_codes:
        return "solve exit %s, expected %s" % (code, sorted(f.solve_codes))
    if code != 0:
        return None
    with open(prefix + "-report", encoding="utf-8") as handle:
        report = handle.read()
    with open(prefix + "-solution.csv", encoding="utf-8") as handle:
        csv = handle.read()
    if "status: unique" not in report and "status: affine family" not in report:
        return "report carries no solution status"
    embedded = problem_io.extract_problem_text(report)
    if problem_io.canonical_problem_text(problem_io.parse_problem(embedded)) != embedded:
        return "embedded problem text does not round-trip"
    lines = csv.splitlines()
    if lines[0] != problem_io.CSV_HEADER:
        return "CSV header %r" % lines[0]
    expected = expected_csv_rows(f.n, f.fractional_breaks, CLI_STEP)
    if len(lines) - 1 != expected:
        return "CSV has %d rows, expected %d" % (len(lines) - 1, expected)
    return None


def _check_analyze(f: CliFile, out) -> str | None:
    code, text = out
    if code not in f.analyze_codes:
        return "analyze exit %s, expected %s" % (code, sorted(f.analyze_codes))
    if code == 0 and "regime: singular minor" not in text:
        return "analyze output lacks the regime line"
    return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def expected_csv_rows(n: int, phases, step: Fraction) -> int:
    """Rows of the solution CSV on (0, N+1).

    The solution's breakpoints are the integer nodes plus every off-node
    break of f0 repeated in each unit interval (the inverse difference
    operator mixes the unit components).  Each interior breakpoint gives two
    one-sided rows, each endpoint one; regular rows sit at the multiples of
    the step that are not breakpoints.
    """
    breaks = {Fraction(i) for i in range(n + 2)}
    breaks |= {j + p for j in range(n + 1) for p in phases}
    end = n + 1
    regular = sum(1 for i in range(int(end / step) + 1) if i * step not in breaks)
    return regular + 2 * (len(breaks) - 2) + 2


# ---------------------------------------------------------------------------
# grid-oracle

# The named stencils of the acceptance battery.
GRID_STENCILS = ((1, 0, 1), (0, 1, 1, 1, 2), (1, 1, 2, 4, 4))
GRID_RESOLUTIONS = (64, 128, 256, 512)
# At n = 512 the two full SVDs of index_estimate and the dense eigenvalue
# solve of spectrum_check would dominate the pass; they run up to n = 256.
DENSE_DECOMPOSITION_MAX_N = 256
RESIDUAL_TOLERANCE = 1e-8


class GridOracle:
    """The double-precision finite-difference oracle on the named stencils."""

    reference = "lapack"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = random.Random(seed)
        self.resolutions = (8, 16) if tiny else GRID_RESOLUTIONS
        self.cases = []
        for coeffs in GRID_STENCILS:
            stencil = structure.Stencil.from_coeffs(coeffs)
            n = stencil.N
            cut = rng.randint(0, n) + Fraction(rng.randint(1, 4), 5)
            f0 = PiecewisePoly.from_pieces(
                (0, cut, n + 1), (_small_poly(rng, 2), _small_poly(rng, 1))
            )
            self.cases.append((stencil, f0))
        self.problems_per_pass = len(self.cases) * len(self.resolutions)

    def warm_up(self) -> None:
        stencil, f0 = self.cases[0]
        ops = grid.assemble(stencil, 8)
        grid.solve_grid(ops, grid.grid_samples(f0, ops))

    def ops(self) -> list[Op]:
        out = []
        for s, (stencil, f0) in enumerate(self.cases):
            for n in self.resolutions:
                out.extend(self._case_ops(s, stencil, f0, n))
        return out

    def _case_ops(self, s: int, stencil, f0, n: int) -> list[Op]:
        state: dict[str, object] = {}
        size = n * (stencil.N + 1) - 1
        tag = "[%d,n=%d]" % (s, n)

        def assemble():
            state["ops"] = grid.assemble(stencil, n)
            return state["ops"]

        def samples():
            state["f"] = grid.grid_samples(f0, state["ops"])
            return state["f"]

        def check_ops(ops):
            return None if ops.operator.matrix.shape == (size, size) else "operator shape %s" % (ops.operator.matrix.shape,)

        def check_samples(f):
            return None if f.shape == (size,) and np.isfinite(f).all() else "bad samples"

        def check_solve(sol):
            a = state["ops"].operator.matrix
            rel = np.linalg.norm(a @ sol.values - state["f"]) / np.linalg.norm(state["f"])
            return None if rel < RESIDUAL_TOLERANCE else "relative residual %.2e" % rel

        ops = [
            Op("assemble" + tag, assemble, check_ops),
            Op("samples" + tag, samples, check_samples),
            Op("solve" + tag, lambda: grid.solve_grid(state["ops"], state["f"]), check_solve),
        ]
        if n <= DENSE_DECOMPOSITION_MAX_N:
            ops.append(Op("index_estimate" + tag, lambda: grid.index_estimate(state["ops"]),
                          lambda est: None if est.balanced else "kernel %d, cokernel %d" % (est.kernel_dim, est.cokernel_dim)))
            ops.append(Op("spectrum_check" + tag, lambda: grid.spectrum_check(stencil, n),
                          lambda chk: None if chk.ok else "containment distance %.2e" % chk.containment_distance))
        return ops


WORKLOADS = {
    "verify-full": VerifyFull,
    "wide-exact": WideExact,
    "cli-batch": CliBatch,
    "grid-oracle": GridOracle,
}
