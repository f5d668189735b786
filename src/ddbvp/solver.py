"""Exact solution of the second-order differential-difference boundary value problem.

The problem solved here is

    -(R v)''(t) = f0(t)        on (0, N+1),
    v = f1 on [-N, 0],         v = f2 on [N+1, 2N+1],

with R the integer-shift difference operator of a stencil in the supported
(singular-minor) regime.  Writing w = R v, every solution of -w'' = f0 is

    w(t) = d1*t + d2 - I(t),        I = double antiderivative of f0,

so the boundary value problem collapses to a 2 x 2 rational linear system for
(d1, d2): the two order-zero node relations of the structure data applied to
w.  Depending on the rank of that boundary matrix the solution is unique, an
affine family (the kernel directions are preimages of linear functions), or
nonexistent; all three cases are decided exactly and reported with exact
residuals.  The pair's (d1, d2) elimination is the one the constraint stacks
use (``functionals.eliminate_constants``): it gives the boundary matrix, its
rank, the residuals, named "boundary constraint j", the least-norm d and the
kernel directions.

Inhomogeneous extension data is folded in by subtracting a smooth extension
psi that matches f1 / f2 to the required derivative order and is supported in
the two outermost unit intervals of (0, N+1) (a two-point Hermite match of
degree 2k+3).  The reduced problem for w = y - psi has zero extension data and
right-hand side f0 + (R psi)''.

There is one solve path, ``solve_nonhomogeneous``; ``solve_homogeneous`` is
its zero-extension-data case.  The solve and the index report read the node
relations, end columns and R1^-1 from the stencil's ``StructureReport``
(``Stencil.structure``), which is derived once per stencil object.

Beyond the solve itself the module certifies the structure theory on the
instance: triviality of the kernel of the order-k operator, the codimension
counts of the admissible-data subspaces, and the resulting index table.  The
kernel certificate needs no preimage: R^-1 1 and R^-1 t are linear on each
unit interval, with values and slopes read off the row sums rho_i and the
weighted row sums a_i = sum_j R1^-1[i][j] * j of the integer R1^-1, so its
traces and order-0/1 jumps are integer rows over the inverse's denominator.
Its rank is 2 for every invertible R1: a kernel element with no order-0/1
jumps is one linear function, and the zero traces make it vanish.
``index_report`` reads the boundary rank off the first two rows of the
zero-trace stack's (d1, d2) block, which are ``boundary_matrix``, as an
``exactla.TwoColumnSystem``, the elimination the solve reads its rank from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction

from . import exactla
from .exactla import to_fraction
from .functionals import (
    SolvabilityConstraints,
    eliminate_constants,
    evaluate_stack,
    membership_functionals,
    rank_of_functionals,
    solvability_constraints,
)
from .piecewise import (
    PiecewisePoly,
    _form_of,
    _jet_at,
    apply_difference_inverse,
    apply_shifted_sum,
    concat,
    hermite_interpolant,
    ptrim,
    smoothness_defects,
)
from .structure import IndexTable, Stencil, StructureReport


class SolveStatus(Enum):
    UNIQUE = "unique"
    AFFINE = "affine family"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class BVPProblem:
    """Problem data; f1/f2 are global-coordinate polynomial coefficient tuples.

    f0 is refined on construction so its breakpoints include every interior
    integer node; this changes nothing about the function, it only aligns the
    piece structure with the node grid the theory works on.
    """

    stencil: Stencil
    k: int
    f0: PiecewisePoly
    f1: tuple[Fraction, ...] = (Fraction(0),)
    f2: tuple[Fraction, ...] = (Fraction(0),)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("smoothness order k must be >= 0")
        n = self.stencil.N
        if (self.f0.start, self.f0.end) != (Fraction(0), Fraction(n + 1)):
            raise ValueError("f0 must live on (0, %d)" % (n + 1))
        object.__setattr__(self, "f0", self.f0.refined(range(1, n + 1)))
        object.__setattr__(self, "f1", ptrim([to_fraction(c) for c in self.f1]))
        object.__setattr__(self, "f2", ptrim([to_fraction(c) for c in self.f2]))

    @property
    def homogeneous_extension(self) -> bool:
        return self.f1 == (Fraction(0),) and self.f2 == (Fraction(0),)

    @cached_property
    def constraints(self) -> SolvabilityConstraints:
        """The zero-trace and minimal-domain constraint stacks of order k, each built on first use and kept."""
        return solvability_constraints(self.stencil.structure, self.k)


@dataclass(frozen=True)
class KernelDirection:
    """A kernel element: preimage of the linear function c1 + c2*t."""

    c: tuple[Fraction, Fraction]
    v: PiecewisePoly


@dataclass(frozen=True)
class SmoothnessReport:
    """Where (and whether) the solution loses smoothness at order k.

    ``node_jumps`` lists the exact jumps of v', ..., v^(k+1) at the interior
    integer nodes; ``offgrid_defects`` every other nonzero jump, meaning
    breaks the data introduced off the node grid, or a continuity failure at
    a node (the solve construction rules the latter out).  ``extension_jumps``
    measures the assembled extension y across the seams at 0 and N+1 (orders
    0..k+1).  The two solvable flags report whether the data admits *some*
    solution in the zero-trace class of order k+2, respectively in the
    minimal domain, with the exact residuals of the violated constraints.
    """

    k: int
    data_smooth: bool
    data_defects: tuple[tuple[Fraction, int, Fraction], ...]
    node_jumps: tuple[tuple[Fraction, int, Fraction], ...]
    offgrid_defects: tuple[tuple[Fraction, int, Fraction], ...]
    smooth_interior: bool
    extension_jumps: tuple[tuple[Fraction, int, Fraction], ...]
    smooth_extension: bool
    zero_trace_solvable: bool
    zero_trace_residuals: tuple[tuple[str, Fraction], ...]
    minimal_solvable: bool
    minimal_residuals: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class SolutionFamily:
    """Outcome of a solve: exact particular solution plus kernel directions."""

    status: SolveStatus
    boundary_matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    boundary_rank: int
    rhs: tuple[Fraction, Fraction]
    d: tuple[Fraction, Fraction] | None
    v: PiecewisePoly | None
    w: PiecewisePoly | None
    kernel: tuple[KernelDirection, ...]
    residuals: tuple[tuple[str, Fraction], ...]
    extension: PiecewisePoly | None
    smoothness: SmoothnessReport | None


def boundary_matrix(structure: StructureReport) -> list[list[Fraction]]:
    """The 2 x 2 matrix of the order-zero node relations acting on d1*t + d2."""
    f_edge, f_int = membership_functionals(structure.gamma, 1)
    return [
        [f_edge.on_monomial(1), f_edge.on_monomial(0)],
        [f_int.on_monomial(1), f_int.on_monomial(0)],
    ]


def hermite_extension(stencil: Stencil, k: int, f1: tuple[Fraction, ...], f2: tuple[Fraction, ...]) -> PiecewisePoly:
    """Smooth extension psi on (-N, 2N+1): f1 left, f2 right, bump inside.

    psi equals f1 on (-N, 0) and f2 on (N+1, 2N+1); inside (0, N+1) it decays
    from the f1-matching derivative data at 0 to zero across (0, 1), stays
    zero in the middle, and grows into the f2-matching data across (N, N+1).
    Matching covers orders 0..k+1, so psi has order k+2 across every seam.
    The end jets are the integer Taylor jets of f1 at 0 and f2 at N+1
    (``_jet_at``), the form ``hermite_interpolant`` takes.
    """
    n = stencil.N
    count = k + 2
    zero = ((0,) * count, 1)
    parts = [
        PiecewisePoly.from_global(f1, (-n, 0)),
        hermite_interpolant([_jet_at(_form_of(f1), 0, 1, count), zero]),
    ]
    if n > 1:
        parts.append(PiecewisePoly.zero(1, n))
    parts.append(hermite_interpolant([zero, _jet_at(_form_of(f2), n + 1, 1, count)]).shifted(n))
    parts.append(PiecewisePoly.from_global(f2, (n + 1, 2 * n + 1)))
    psi = concat(parts)
    if smoothness_defects(psi, k + 2):
        raise RuntimeError("extension construction produced a non-smooth seam")
    return psi


def _smoothness(
    n: int,
    k: int,
    data_defects: tuple[tuple[Fraction, int, Fraction], ...],
    y: PiecewisePoly,
    zero_trace_bad: tuple[tuple[str, Fraction], ...],
    minimal_bad: tuple[tuple[str, Fraction], ...],
) -> SmoothnessReport:
    """The report from the jump table of y; ``data_defects`` are the reduced data's.

    y pastes one-piece pads to v at the seams 0 and N+1, so its other jumps
    are v's.  ``zero_trace_bad`` and ``minimal_bad`` are the violated
    constraints of the two solution classes; a class is solvable exactly when
    its list is empty.
    """
    extension_jumps = []
    node_jumps = []
    offgrid = []
    for t, mu, jump in y.jumps(k + 2):
        node = t.numerator if t.denominator == 1 else None  # an integer break of y is a seam or a node 1..N
        if node == 0 or node == n + 1:
            extension_jumps.append((t, mu, jump))
        elif node is not None and mu >= 1:
            node_jumps.append((t, mu, jump))
        elif jump != 0:
            offgrid.append((t, mu, jump))
    # every nonzero jump of v is either a node jump or an off-grid defect
    smooth_interior = not offgrid and all(jump == 0 for _, _, jump in node_jumps)
    smooth_extension = smooth_interior and all(jump == 0 for _, _, jump in extension_jumps)

    return SmoothnessReport(
        k=k,
        data_smooth=not data_defects,
        data_defects=data_defects,
        node_jumps=tuple(node_jumps),
        offgrid_defects=tuple(offgrid),
        smooth_interior=smooth_interior,
        extension_jumps=tuple(extension_jumps),
        smooth_extension=smooth_extension,
        zero_trace_solvable=not zero_trace_bad,
        zero_trace_residuals=zero_trace_bad,
        minimal_solvable=not minimal_bad,
        minimal_residuals=minimal_bad,
    )


def solve_homogeneous(problem: BVPProblem) -> SolutionFamily:
    """Solve with zero extension data (f1 = f2 = 0)."""
    if not problem.homogeneous_extension:
        raise ValueError("extension data is nonzero; use solve_nonhomogeneous")
    return solve_nonhomogeneous(problem)


def solve_nonhomogeneous(problem: BVPProblem) -> SolutionFamily:
    """Solve with polynomial extension data f1 / f2 (zero by default).

    Reduces to a zero-extension problem for w = y - psi with right-hand side
    f0 + (R psi)'', where psi is the Hermite extension of the data, then
    solves the 2 x 2 boundary system for (d1, d2).  The particular d
    minimizes d1^2 + d2^2 over the solution set.  When the data is smooth
    enough for the constraint stacks of order k, d minimizes it over the
    solution set of the zero-trace stack if that stack is feasible, else of
    the minimal-domain stack if that one is, so the returned representative
    is as smooth as the data allows.

    The boundary right-hand side is the value of the order-zero node pair on
    the double antiderivative.  The pair opens the stack the solve evaluates:
    the zero-trace membership stack on smooth data, built once per problem,
    feasible or not (``BVPProblem.constraints``), and the pair alone on rough
    data.  The pair's elimination (``eliminate_constants``) gives
    ``boundary_matrix`` (its values on t and 1), ``boundary_rank`` and,
    through ``violations``, the residuals: the status is INFEASIBLE exactly
    when one of them is nonzero, and that return eliminates neither
    constraint stack and never builds the minimal one.  The stack is
    evaluated whole, once (``evaluate_stack``, one jet per node and side);
    the minimal stack opens with the same pair, so only its other members
    are read.  A stack's values feed both its residuals and, through the
    integer elimination of its (d1, d2) block (``DataConstraints.system``,
    an ``exactla.TwoColumnSystem``), the refined d: each d is that system's
    least-norm solution, and the kernel directions c are the boundary
    system's right null basis.
    """
    structure = problem.stencil.structure
    n = problem.stencil.N
    k = problem.k
    psi = hermite_extension(problem.stencil, k, problem.f1, problem.f2)
    shifted = apply_shifted_sum(problem.stencil, psi)
    reduced = problem.f0 + shifted.derivative(2)
    second = reduced.antiderivative().antiderivative()  # I with I(0) = I'(0) = 0 and I'' = reduced

    data_defects = tuple(smoothness_defects(reduced, k))
    # on smooth data the boundary pair is read as the head of the zero-trace stack
    stack = membership_functionals(structure.gamma, 1) if data_defects else problem.constraints.membership
    boundary = eliminate_constants(stack[:2])
    values = evaluate_stack(stack, second)
    rhs = values[:2]
    residuals = boundary.violations(rhs, "boundary constraint")
    if residuals:
        return SolutionFamily(
            status=SolveStatus.INFEASIBLE,
            boundary_matrix=boundary.block,
            boundary_rank=boundary.rank,
            rhs=tuple(rhs),
            d=None, v=None, w=None,
            kernel=(),
            residuals=residuals,
            extension=None,
            smoothness=None,
        )

    d, null = boundary.system.least_norm(rhs), boundary.system.right_null
    if data_defects:
        zero_trace_bad = tuple(("data jump at %s, order %d" % (t, mu), val) for t, mu, val in data_defects)
        minimal_bad = zero_trace_bad
    else:
        # values are those of the zero-trace stack; the minimal one also opens with the boundary pair
        zero_trace, minimal = problem.constraints
        zero_trace_bad = zero_trace.violations(values)
        if minimal is zero_trace:
            minimal_values, minimal_bad = values, zero_trace_bad
        else:
            minimal_values = rhs + evaluate_stack(minimal.stack[2:], second)
            minimal_bad = minimal.violations(minimal_values)
        # a stack with no violation is consistent, so its solution set is not empty
        if not zero_trace_bad:
            d = zero_trace.system.least_norm(values)
        elif not minimal_bad:
            d = minimal.system.least_norm(minimal_values)
    w = PiecewisePoly.from_global((d[1], d[0]), (0, n + 1)) - second
    v = apply_difference_inverse(structure, w) + psi.restricted(0, n + 1)
    y = concat([psi.restricted(-n, 0), v, psi.restricted(n + 1, 2 * n + 1)])
    kernel = tuple(
        KernelDirection(
            c=c,
            v=apply_difference_inverse(structure, PiecewisePoly.from_global((c[1], c[0]), (0, n + 1))),
        )
        for c in null
    )
    return SolutionFamily(
        status=SolveStatus.AFFINE if null else SolveStatus.UNIQUE,
        boundary_matrix=boundary.block,
        boundary_rank=boundary.rank,
        rhs=tuple(rhs),
        d=d,
        v=v, w=w + shifted,
        kernel=kernel,
        residuals=(),
        extension=y,
        smoothness=_smoothness(n, k, data_defects, y, zero_trace_bad, minimal_bad),
    )


@dataclass(frozen=True)
class KernelCertificate:
    """Exact rank certificate for the kernel of the order-k operator.

    A kernel element must be a preimage v = R^-1(c1 + c2*t) of a linear
    function; it is admissible only if it has zero endpoint traces and no
    order-0/1 interior jumps (a piecewise-linear function of order 2 cannot
    kink).  Row j of ``matrix`` holds condition j on R^-1 1 and on R^-1 t, so
    rank 2 certifies that only c = 0 survives.

    Both preimages are linear on each unit interval.  With P = R1^-1 = M / d,
    rho_i = sum_j M[i][j] and a_i = sum_j M[i][j] * j (0-based), unit i of
    R^-1 1 is rho_i / d and unit i of R^-1 t is (a_i + rho_i s) / d, s the
    local coordinate.  So the rows are, over d: trace at 0 (rho_0, a_0); trace
    at N+1 (rho_N, a_N + rho_N); at node i, the order-0 jump
    (rho_i - rho_{i-1}, a_i - a_{i-1} - rho_{i-1}) and the order-1 jump
    (0, rho_i - rho_{i-1}).

    For invertible R1 the rank is always 2: with no order-0/1 jumps v is one
    linear function on (0, N+1), the zero traces make it vanish at 0 and
    N+1, so v = 0 and c1 + c2*t = R v = 0.  So no kernel basis is built:
    criterion 4 and ``index_report`` check that rank is 2 and dim_kernel 0.
    """

    rank: int
    dim_kernel: int
    conditions: tuple[str, ...]
    matrix: tuple[tuple[Fraction, Fraction], ...]


def kernel_certificate(structure: StructureReport) -> KernelCertificate:
    """The certificate from R1^-1's integer row sums, with Fractions built only for ``matrix``; no preimage is built."""
    n = structure.stencil.N
    d = structure.inverse_den
    rho = [sum(row) for row in structure.inverse]
    a = [sum(j * x for j, x in enumerate(row)) for row in structure.inverse]
    rows = [[rho[0], a[0]], [rho[n], a[n] + rho[n]]]
    labels = ["trace at 0", "trace at %d" % (n + 1)]
    for i in range(1, n + 1):
        step = rho[i] - rho[i - 1]
        rows += [[step, a[i] - a[i - 1] - rho[i - 1]], [0, step]]
        labels += ["jump at %d, order 0" % i, "jump at %d, order 1" % i]
    rank = exactla.integer_rank(rows)
    return KernelCertificate(
        rank=rank,
        dim_kernel=2 - rank,
        conditions=tuple(labels),
        matrix=tuple((Fraction(x, d), Fraction(y, d)) for x, y in rows),
    )


@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: object
    got: object

    @property
    def ok(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class IndexReport:
    """Instance-level verification of the codimension and index counts."""

    stencil: Stencil
    k: int
    dependent: bool
    table: IndexTable
    boundary_rank: int
    rows: tuple[CheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def index_report(problem: BVPProblem) -> IndexReport:
    structure = problem.stencil.structure
    k = problem.k
    table = structure.index_table(k)
    zero_trace, minimal = problem.constraints
    # the minimal-domain stack is image_functionals(structure, k); the zero-trace
    # stack opens with the mu = 0 node pair, so its first two block rows are boundary_matrix
    image_rank = rank_of_functionals(minimal.stack)
    cert = kernel_certificate(structure)
    rows = (
        CheckRow("image codimension at order k", table.codim_difference_image, image_rank),
        CheckRow("zero-trace data constraints", table.codim_zero_trace_domain, zero_trace.count),
        CheckRow("minimal-domain data constraints", table.codim_minimal_domain, minimal.count),
        CheckRow("kernel dimension", 0, cert.dim_kernel),
        CheckRow("index, zero-trace problem", table.index_zero_trace, cert.dim_kernel - zero_trace.count),
        CheckRow("index, minimal-domain problem", table.index_minimal, cert.dim_kernel - minimal.count),
    )
    return IndexReport(
        stencil=problem.stencil,
        k=k,
        dependent=structure.ends.dependent,
        table=table,
        boundary_rank=exactla.TwoColumnSystem(zero_trace.block[:2]).rank,
        rows=rows,
    )
