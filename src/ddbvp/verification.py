"""Acceptance battery: every numbered property the package promises.

Each check returns a :class:`CheckResult` instead of raising, so the CLI can
print one line per criterion and the test suite can assert on them
individually.  A check's body returns only ``(passed, detail)``; its
``_criterion(number, name)`` decorator states the criterion's number and
name once and builds the result.  ``run_battery`` holds the one list of
criteria for both levels.  Random instances are drawn from a fixed-seed
generator: the battery is deterministic from run to run.

The random function constructors double as reusable test utilities:

* ``random_zero_trace_function``: a piecewise polynomial in the zero-trace
  class of order k (C^{k-1} across interior nodes, derivatives 0..k-1
  vanishing at both endpoints): on each unit interval the
  ``two_point_hermite`` piece between random node jets, drawn as integer
  derivatives and passed as integer Taylor jets over (k-1)!, plus
  x^k(1-x)^k times a random quadratic, added in the same integer
  accumulator; the function is built from those forms directly;
* ``random_order_k_function``: same gluing with free endpoint jets (order-k
  smoothness only);
* ``random_image_member``: a random order-k function minus the
  ``hermite_interpolant`` of two node jets, so that all image membership
  conditions vanish exactly; the two jets are the values of the membership
  stack the caller passes in, turned into integer Taylor jets once.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exactla
from .functionals import (
    NodeFunctional,
    evaluate_stack,
    image_functionals,
    membership_functionals,
    rank_of_functionals,
    solvability_constraints,
)
from .grid import assemble, convergence_study, index_estimate, spectrum_check
from .piecewise import (
    PiecewisePoly,
    _form,
    apply_difference,
    apply_difference_inverse,
    hermite_interpolant,
    trace_defects,
    two_point_hermite,
)
from .solver import BVPProblem, SolveStatus, boundary_matrix, kernel_certificate, solve_homogeneous
from .structure import Regime, Stencil, StructureReport

DEFAULT_SEED = 20260816
MAX_TRIES = 50000  # draws ``random_regime_stencils`` makes before it gives up
CODIMENSION_ORDERS = (0, 1, 2)  # criterion 2
CONSTRAINT_ORDERS = (0, 1)  # criterion 3
BOX_BOUND = 3  # criterion 6 scans the N = 1 box |b_j| <= BOX_BOUND
SPECTRUM_RESOLUTIONS = (8, 16)  # criterion 7
INDEX_RESOLUTION = 64  # criterion 9
EQUIVALENCE_ORDERS = (1, 2)  # criterion 10

NAMED_COEFFS = ((1, 0, 1), (0, 1, 1, 1, 2), (1, 1, 2, 4, 4))


@dataclass(frozen=True)
class CheckResult:
    """One criterion's verdict; ``number`` and ``name`` come from its ``_criterion`` decorator."""

    number: int
    name: str
    passed: bool
    detail: str


def named_stencils() -> tuple[Stencil, ...]:
    return tuple(Stencil.from_coeffs(c) for c in NAMED_COEFFS)


def random_regime_stencils(
    count: int = 20,
    max_shift: int = 3,
    bound: int = 3,
    seed: int = DEFAULT_SEED,
) -> tuple[Stencil, ...]:
    """Fixed-seed rejection sampling for supported-regime stencils.

    Draws integer stencils with N <= max_shift and |b_j| <= bound and keeps
    those with det R1 != 0, det R2 = 0.  Returns fewer than ``count`` only
    when the box is too small (e.g. bound = 0).  The draw runs once per
    process for each set of arguments; every call returns fresh stencil
    objects, which analyze on first use as any new stencil does.
    """
    return tuple(Stencil.from_coeffs(c) for c in _regime_coeffs(count, max_shift, bound, seed))


@functools.cache
def _regime_coeffs(count: int, max_shift: int, bound: int, seed: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(seed)
    found: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    tries = 0
    while len(found) < count and tries < MAX_TRIES:
        tries += 1
        n = rng.randint(1, max_shift)
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(2 * n + 1))
        if coeffs in seen:
            continue
        seen.add(coeffs)
        if Stencil.from_coeffs(coeffs).regime is Regime.SINGULAR_MINOR:
            found.append(coeffs)
    return tuple(found)


# ---------------------------------------------------------------------------
# random function constructors


def _hermite_glued(length: int, k: int, rng: random.Random, zero_end_jets: bool) -> PiecewisePoly:
    """The ``hermite_interpolant`` of drawn node jets plus x^k (1 - x)^k q on each piece.

    The drawn derivatives v_mu, mu < k, become Taylor numerators
    v_mu (k-1)! / mu! over (k-1)!.  q is a drawn quadratic, and the bump
    leaves every jet of order below k unchanged; it is added to each
    ``two_point_hermite`` piece P / D as D times its integer coefficients.
    With k = 0 there are no jets, and q is the sum of two drawn quadratics.
    """
    fact = math.factorial(max(k - 1, 0))
    scales = [fact // math.factorial(mu) for mu in range(k)]
    jets = [
        ((0,) * k if zero_end_jets and node in (0, length) else tuple(rng.randint(-4, 4) * m for m in scales), fact)
        for node in range(length + 1)
    ]
    shape = [0] * k + [(-1) ** j * math.comb(k, j) for j in range(k + 1)]  # x^k (1 - x)^k
    forms = []
    for left, right in zip(jets, jets[1:]):
        q = [rng.randint(-3, 3) for _ in range(3)]
        if not k:
            q = [c + rng.randint(-3, 3) for c in q]
        nums, den = two_point_hermite(left, right)
        acc = list(nums) + [0] * (len(shape) + 2 - len(nums))
        for i, a in enumerate(shape):
            for j, c in enumerate(q):
                acc[i + j] += den * a * c
        forms.append(_form(acc, den))
    return PiecewisePoly(tuple(range(length + 1)), 1, tuple(forms))


def random_zero_trace_function(interval_count: int, k: int, rng: random.Random) -> PiecewisePoly:
    """Random member of the order-k zero-trace class on (0, interval_count)."""
    return _hermite_glued(interval_count, k, rng, zero_end_jets=True)


def random_order_k_function(interval_count: int, k: int, rng: random.Random) -> PiecewisePoly:
    """Random piecewise polynomial of interior smoothness order k."""
    return _hermite_glued(interval_count, k, rng, zero_end_jets=False)


def random_image_member(structure: StructureReport, fns: list[NodeFunctional], rng: random.Random) -> PiecewisePoly:
    """Random order-k function satisfying all image membership conditions.

    ``fns`` is ``membership_functionals(structure.gamma, k)``, the stack the
    caller checks the result against; k is half its length.  Takes a random
    order-k function w0 and subtracts a Hermite-glued correction.  In the
    right-edge relations the atoms w^(mu)(N+1) and w^(mu)(m) each appear in
    exactly one functional, with weight 1, so the correction's node jets are
    zero except there, where they equal the edge and interior relation values
    on w0.  Every other node jet of w0 survives, so the result is in general
    not in the zero-trace class.
    """
    n = structure.stencil.N
    k = len(fns) // 2  # edge[mu], interior[mu] for mu < k
    w0 = random_order_k_function(n + 1, k, rng)
    values = evaluate_stack(fns, w0)
    jets = [((0,) * k, 1)] * (n + 2)
    for node, derivatives in ((n + 1, values[0::2]), (structure.gamma.m, values[1::2])):
        jets[node] = exactla.integer_numerators([x / math.factorial(mu) for mu, x in enumerate(derivatives)])
    return w0 - hermite_interpolant(jets)


# ---------------------------------------------------------------------------
# the numbered checks


def _criterion(number: int, name: str):
    """Number and name a check: its ``(passed, detail)`` becomes a :class:`CheckResult`."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            return CheckResult(number, name, *check(*args, **kwargs))

        return run

    return decorate


@_criterion(1, "image membership")
def check_membership_theorem(pool: tuple[Stencil, ...], orders=(1, 2, 3)) -> tuple[bool, str]:
    """Criterion 1: the difference operator maps the zero-trace class onto
    the functional-characterized image, in both directions, exactly."""
    rng = random.Random(DEFAULT_SEED + 1)
    for stencil in pool:
        structure = stencil.structure
        for k in orders:
            fns = membership_functionals(structure.gamma, k)

            v = random_zero_trace_function(stencil.N + 1, k, rng)
            if trace_defects(v, k):
                return False, "constructor failed the zero-trace test (N=%d, k=%d)" % (stencil.N, k)
            w = apply_difference(stencil, v)
            bad = [fn.label for fn, value in zip(fns, evaluate_stack(fns, w)) if value != 0]
            if bad:
                return False, "forward conditions violated: %s (b=%s, k=%d)" % (bad, stencil, k)

            w2 = random_image_member(structure, fns, rng)
            bad = [fn.label for fn, value in zip(fns, evaluate_stack(fns, w2)) if value != 0]
            if bad:
                return False, "image constructor left nonzero conditions: %s" % bad
            v2 = apply_difference_inverse(structure, w2)
            if trace_defects(v2, k):
                return False, "preimage left the zero-trace class (b=%s, k=%d)" % (stencil, k)
    return True, "%d stencils x %s, forward and inverse, exact" % (len(pool), list(orders))


@_criterion(2, "image codimension counts")
def check_image_codimension(named: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 2: functional rank matches the image codimension of the index table."""
    for stencil in named:
        structure = stencil.structure
        for k in CODIMENSION_ORDERS:
            got = rank_of_functionals(image_functionals(structure, k))
            expected = structure.index_table(k).codim_difference_image
            if got != expected:
                return False, "b=%s k=%d: rank %d, expected %d" % (stencil, k, got, expected)
    return True, "named stencils, k in %s, exact integer match" % (list(CODIMENSION_ORDERS),)


@_criterion(3, "solvability constraint counts")
def check_constraint_counts(named: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 3: post-elimination solvability constraint counts match the
    domain codimensions of the index table."""
    for stencil in named:
        structure = stencil.structure
        for k in CONSTRAINT_ORDERS:
            zero_trace, minimal = (dc.count for dc in solvability_constraints(structure, k))
            table = structure.index_table(k)
            expect_min, expect_zt = table.codim_minimal_domain, table.codim_zero_trace_domain
            if (minimal, zero_trace) != (expect_min, expect_zt):
                return False, ("b=%s k=%d: got (%d, %d), expected (%d, %d)"
                               % (stencil, k, minimal, zero_trace, expect_min, expect_zt))
    return True, "named stencils, k in %s, both domain variants" % (list(CONSTRAINT_ORDERS),)


@_criterion(4, "trivial kernel certificates")
def check_kernel_certificates(pool: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 4: the order-k operator kernel is trivial on every stencil."""
    for stencil in pool:
        cert = kernel_certificate(stencil.structure)
        if cert.rank != 2 or cert.dim_kernel != 0:
            return False, "b=%s: rank %d" % (stencil, cert.rank)
    return True, "rank 2 on all %d stencils, exact" % len(pool)


@_criterion(5, "worked solution")
def check_worked_solution() -> tuple[bool, str]:
    """Criterion 5: the model problem reproduces its closed-form solution."""
    stencil = Stencil.from_coeffs([1, 0, 1])
    family = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=PiecewisePoly.constant(1, 0, 2)))
    expected_v = PiecewisePoly.from_pieces(
        (0, 1, 2),
        [(0, 0, Fraction(-1, 2)), (Fraction(-1, 2), 1, Fraction(-1, 2))],
    )
    problems = []
    if family.status is not SolveStatus.UNIQUE:
        problems.append("status %s" % family.status.value)
    if family.d != (Fraction(1), Fraction(-1, 2)):
        problems.append("d = %s" % (family.d,))
    if family.boundary_matrix != ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))):
        problems.append("boundary matrix %s" % (family.boundary_matrix,))
    if family.v is None or not family.v.same(expected_v):
        problems.append("solution differs from the closed form")
    if family.v is not None and family.v.jump(1, 1) != 2:
        problems.append("derivative jump %s" % family.v.jump(1, 1))
    if problems:
        return False, "; ".join(problems)
    return True, "v = (-t^2/2; (t-1) - 1/2 - (t-1)^2/2), jump 2 at t = 1, exact"


def _violating_data(stencil: Stencil, count: int) -> list[int] | None:
    """The lowest degree d with data f0 = t^d violating boundary constraint j, for each j < count.

    Solves with f0 = t^d for d = 0..5 in order, one solve per degree for all
    the constraints, and stops once every "boundary constraint j" with
    j < count has appeared among some solve's residuals.  None when some
    constraint is never violated, or a residual names a constraint j >= count.
    """
    wanted = {"boundary constraint %d" % j: j for j in range(count)}
    witnesses: dict[int, int] = {}
    for degree in range(6):
        f0 = PiecewisePoly.from_global((0,) * degree + (1,), (0, stencil.N + 1))
        for label, _ in solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f0)).residuals:
            if label not in wanted:
                return None
            witnesses.setdefault(wanted[label], degree)
        if len(witnesses) == count:
            return [witnesses[j] for j in range(count)]
    return None


@_criterion(6, "boundary rank cases")
def check_boundary_rank_cases() -> tuple[bool, str]:
    """Criterion 6: boundary matrix rank cases with explicit witnesses.

    Scans the full N = 1 integer box |b_j| <= ``BOX_BOUND`` and classifies
    its supported-regime stencils, the only ones it analyzes, by boundary
    matrix rank.  A rank of 0 fails the criterion: the slopes of a kernel
    element of the order-zero problem solve R1 b = c * 1 for one constant c,
    so the kernel has dimension at most 1 and the rank is at least 1.  For
    one representative of each observed rank it verifies dim ker = 2 - rank
    (by solving with f0 = 0) and #constraints = 2 - rank (by monomial data
    violating each "boundary constraint j" of the solve's residuals,
    ``_violating_data``).  A box with no rank-1 instance is reported as such,
    which is not a failure.
    """
    representatives: dict[int, Stencil] = {}
    counts = {2: 0, 1: 0}
    for coeffs in itertools.product(range(-BOX_BOUND, BOX_BOUND + 1), repeat=3):
        stencil = Stencil.from_coeffs(coeffs)
        if stencil.regime is not Regime.SINGULAR_MINOR:
            continue
        rank = exactla.rank(boundary_matrix(stencil.structure))
        if rank not in counts:
            return False, "b=%s: boundary rank %d, which the regime rules out" % (stencil, rank)
        counts[rank] += 1
        representatives.setdefault(rank, stencil)

    if 2 not in representatives:
        return False, "no full-rank instance found in the box, which contradicts the named examples"

    notes = ["box scan |b_j| <= %d, N = 1: rank counts %s" % (BOX_BOUND, counts)]
    for rank, stencil in sorted(representatives.items(), reverse=True):
        expected_dim = 2 - rank
        zero = PiecewisePoly.zero(0, stencil.N + 1)
        family = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=zero))
        if len(family.kernel) != expected_dim:
            return False, "b=%s: kernel dim %d, expected %d" % (stencil, len(family.kernel), expected_dim)
        for direction in family.kernel:
            if trace_defects(direction.v, 1):
                return False, "b=%s: kernel direction fails the trace test" % (stencil,)
        if expected_dim > 0:
            witnesses = _violating_data(stencil, expected_dim)
            if witnesses is None:
                return False, ("b=%s: could not exhibit violating data for all %d constraints"
                               % (stencil, expected_dim))
            notes.append("rank %d witness b=%s, violating monomial degrees %s" % (rank, stencil, witnesses))
        else:
            notes.append("rank 2 witness b=%s, kernel trivial, no constraints" % (stencil,))
    if 1 not in representatives:
        notes.append("no rank-1 instance in the box (reported, not failed)")
    return True, "; ".join(notes)


@_criterion(7, "spectrum containment")
def check_spectrum_containment(pool: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 7: exact shift-matrix spectrum sits inside the grid spectrum."""
    worst = 0.0
    for stencil in pool:
        for n in SPECTRUM_RESOLUTIONS:
            chk = spectrum_check(stencil, n)
            worst = max(worst, chk.containment_distance)
            if not chk.ok:
                return False, "b=%s n=%d: distance %.3e" % (stencil, n, chk.containment_distance)
    return True, "%d stencils, n in %s, worst distance %.2e" % (len(pool), list(SPECTRUM_RESOLUTIONS), worst)


@_criterion(8, "oracle convergence")
def check_oracle_convergence(named: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 8: grid solutions converge to the exact ones, order >= 1.8.

    The model problem, on the first named stencil (1, 0, 1), has a
    piecewise-quadratic solution, which the second-difference scheme
    reproduces to rounding; an order cannot be observed there, so the
    criterion is tightened to exact reproduction plus an order measurement on
    a companion problem whose solution is quartic.
    """
    stencil = named[0]
    f_const = PiecewisePoly.constant(1, 0, 2)
    exact_const = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f_const))
    study_const = convergence_study(stencil, f_const, exact_const.v)
    last_error = study_const.rows[-1].max_error
    if last_error >= 1e-3:
        return False, "model problem error %.3e at n=%d" % (last_error, study_const.rows[-1].n)
    if not study_const.exact_reproduction and (study_const.observed_order or 0) < 1.8:
        return False, "model problem observed order %.2f" % (study_const.observed_order or float("nan"))

    f_quad = PiecewisePoly.from_global((0, 0, 1), (0, 2))
    exact_quad = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f_quad))
    study_quad = convergence_study(stencil, f_quad, exact_quad.v)
    order = study_quad.observed_order
    if study_quad.exact_reproduction or order is None or order < 1.8:
        return False, "companion problem order %s" % (order,)
    return True, ("model problem reproduced to %.1e at n=128; companion (quartic solution) order %.3f"
                  % (last_error, order))


@_criterion(9, "discrete index balance")
def check_index_estimates(named: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 9: numerical kernel and cokernel dimensions agree."""
    stencils = named + (Stencil.from_coeffs([1, 0, -1]),)
    cases = 0
    for stencil in stencils:
        domain = (0, stencil.N + 1)
        for label, a in (("0", None),
                         ("1", PiecewisePoly.constant(1, *domain)),
                         ("t", PiecewisePoly.from_global((0, 1), domain))):
            est = index_estimate(assemble(stencil, INDEX_RESOLUTION, a))
            if not est.balanced:
                return False, ("b=%s a=%s: kernel %d, cokernel %d"
                               % (stencil, label, est.kernel_dim, est.cokernel_dim))
            cases += 1
    return True, "%d stencil/coefficient cases at n=%d, all balanced" % (cases, INDEX_RESOLUTION)


@_criterion(10, "mirrored structure equivalence")
def check_structure_equivalence(pool: tuple[Stencil, ...]) -> tuple[bool, str]:
    """Criterion 10: mirrored node relations cut out the same constraint space."""
    for stencil in pool:
        structure = stencil.structure
        for k in EQUIVALENCE_ORDERS:
            std = membership_functionals(structure.gamma, k)
            alt = membership_functionals(structure.alt_gamma, k)
            r_std = rank_of_functionals(std)
            r_alt = rank_of_functionals(alt)
            r_both = rank_of_functionals(tuple(std) + tuple(alt))
            if not (r_std == r_alt == r_both):
                return False, "b=%s k=%d: ranks %d / %d / stacked %d" % (stencil, k, r_std, r_alt, r_both)
    return True, "%d stencils, k in %s, equal-rank stacks" % (len(pool), list(EQUIVALENCE_ORDERS))


# ---------------------------------------------------------------------------


def run_battery(level: str = "fast") -> list[CheckResult]:
    """Run the acceptance checks; 'full' adds random stencils, criterion 1 at k = 3, and criteria 6-9."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    full = level == "full"
    named = named_stencils()
    pool = named + random_regime_stencils() if full else named
    criteria = [
        (check_membership_theorem, pool, (1, 2, 3) if full else (1, 2)),
        (check_image_codimension, named),
        (check_constraint_counts, named),
        (check_kernel_certificates, pool),
        (check_worked_solution,),
        *([(check_boundary_rank_cases,),
           (check_spectrum_containment, pool),
           (check_oracle_convergence, named),
           (check_index_estimates, named)] if full else []),
        (check_structure_equivalence, pool),
    ]
    return [check(*args) for check, *args in criteria]
