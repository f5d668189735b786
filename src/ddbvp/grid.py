"""Finite-difference cross-check for the exact machinery.

Everything in this module is double-precision evidence, deliberately kept
apart from the rational computations: grids validate spectra, convergence
rates and index claims numerically, and they are the only place a nonzero
zeroth-order coefficient a(t) is handled.  Nothing here feeds back into an
exact result.

The grid puts n subdivisions on each unit interval of (0, N+1), so there are
M - 1 interior points t_i = i/n with M = n(N+1).  Dirichlet zeros at t_0 and
t_M are eliminated structurally (interior unknowns only).  The difference
operator is applied in extended form: from interior samples of v it produces
(Rv) at all grid points 0..M (zero fill outside), and only then is the
negative second difference taken back down to the interior points.  Composing
the two square interior matrices instead would silently impose (Rv)(0) =
(Rv)(M) = 0, which is a condition on Rv that the problem never asks for.
The interior shift matrix is a view of the extended one.  ``solve_grid``
factors once; its ``condition`` is a lower-bound 1-norm estimate from that LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .piecewise import PiecewisePoly
from .structure import Stencil, build_shift_matrix, spectrum

MAX_GRID_UNKNOWNS = 4096  # largest n(N+1)-1 taken from input; 4 dense matrices ~512 MB


@dataclass(frozen=True)
class GridOperator:
    """One dense double-precision grid matrix."""

    description: str
    n: int
    size: int
    matrix: np.ndarray


@dataclass(frozen=True)
class GridOperators:
    """The assembled operator family; ``shift`` is a view of ``shift_extended``."""

    stencil: Stencil
    n: int
    size: int
    shift: GridOperator
    shift_extended: GridOperator
    second_difference: GridOperator
    operator: GridOperator
    a_samples: np.ndarray | None

    @property
    def points(self) -> list[Fraction]:
        return [Fraction(i, self.n) for i in range(1, self.size + 1)]


def grid_samples(f: PiecewisePoly, ops: GridOperators) -> np.ndarray:
    """f at the interior grid points, averaging the one-sided limits across a jump."""
    samples = np.array(f.sample(ops.points), dtype=float)
    for b in f.breaks[1:-1]:
        i = b * ops.n - 1
        if i.denominator == 1 and 0 <= i < ops.size:
            samples[int(i)] = float((f.trace(b, 0, -1) + f.trace(b, 0, +1)) / 2)
    return samples


def assemble(stencil: Stencil, n: int, a: PiecewisePoly | None = None) -> GridOperators:
    """Assemble the grid operators at resolution n (n >= 4 per unit interval)."""
    if n < 4:
        raise ValueError("need at least 4 subdivisions per unit interval")
    big = stencil.N
    m_total = n * (big + 1)
    size = m_total - 1

    # grid point i = 0..M takes b_j from interior unknown i + jn (column i + jn - 1)
    shift_ext = np.zeros((m_total + 1, size))
    for j in range(-big, big + 1):
        rows = np.arange(max(0, 1 - j * n), min(m_total, size - j * n) + 1)
        shift_ext[rows, rows + j * n - 1] = float(stencil.b(j))

    h2 = (1.0 / n) ** 2
    second = np.zeros((size, m_total + 1))
    for offset, weight in enumerate((1.0, -2.0, 1.0)):
        np.fill_diagonal(second[:, offset:], weight / h2)
    # -(second @ shift_ext): n >= 4 leaves one nonzero term per entry, so this is exact
    full = (2.0 * shift_ext[1:-1] - shift_ext[:-2] - shift_ext[2:]) * (1.0 / h2)
    a_samples = None
    if a is not None:
        a_samples = np.array(a.sample([Fraction(i, n) for i in range(1, m_total)]))
        full[np.diag_indices(size)] += a_samples

    return GridOperators(
        stencil=stencil,
        n=n,
        size=size,
        shift=GridOperator("difference operator, interior to interior", n, size, shift_ext[1:-1]),
        shift_extended=GridOperator("difference operator, interior to all grid points", n, size, shift_ext),
        second_difference=GridOperator("second difference, all grid points to interior", n, size, second),
        operator=GridOperator("boundary value operator", n, size, full),
        a_samples=a_samples,
    )


@dataclass(frozen=True)
class GridSolution:
    """``condition`` is ||A||_1 max_j ||A^-1 p_j||_1 / ||p_j||_1 over three fixed Hager/Higham probes: a lower bound on kappa_1."""

    values: np.ndarray
    condition: float
    ill_conditioned: bool
    least_squares: bool


def solve_grid(ops: GridOperators, f0_samples: np.ndarray) -> GridSolution:
    """One LU solve, shared with the probes of ``condition``; least squares when that exceeds 1e12."""
    a = ops.operator.matrix
    rhs = np.asarray(f0_samples, dtype=float)
    if rhs.shape != (ops.size,):
        raise ValueError("right-hand side must have one sample per interior point")
    ramp = 1.0 + np.arange(ops.size) / (ops.size - 1)
    probes = np.column_stack([np.ones(ops.size), ramp, ramp * (-1.0) ** np.arange(ops.size)])
    try:
        solved = np.linalg.solve(a, np.column_stack([rhs, probes]))
        growth = np.abs(solved[:, 1:]).sum(axis=0) / np.abs(probes).sum(axis=0)
        condition = float(np.linalg.norm(a, 1) * growth.max())
    except np.linalg.LinAlgError:
        condition = math.inf
    ill = not math.isfinite(condition) or condition > 1e12
    values = np.linalg.lstsq(a, rhs, rcond=None)[0] if ill else solved[:, 0]
    return GridSolution(values=values, condition=condition, ill_conditioned=ill, least_squares=ill)


@dataclass(frozen=True)
class SpectrumCheck:
    """Distances between exact and grid spectra.

    ``containment_distance`` is the largest distance from an eigenvalue of R1
    to the nearest eigenvalue of the interior grid shift matrix; the grid
    matrix block-decomposes by residue class mod n into n-1 copies of R1 and
    one copy of R2, so ``block_distance`` (largest distance from a grid
    eigenvalue to the union of the R1 and R2 spectra) should be tiny as well.
    """

    n: int
    containment_distance: float
    block_distance: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.containment_distance <= self.tolerance


def spectrum_check(stencil: Stencil, n: int, tolerance: float = 1e-8) -> SpectrumCheck:
    sm = build_shift_matrix(stencil)
    exact_r1 = spectrum(sm)
    r2 = np.array([[float(x) for x in row] for row in sm.r2_lists()], dtype=float)
    exact_r2 = np.linalg.eigvals(r2) if sm.stencil.N >= 1 and r2.size else np.array([])
    ops = assemble(stencil, n)
    grid_eigs = np.linalg.eigvals(ops.shift.matrix)

    containment = max(float(np.abs(grid_eigs - lam).min()) for lam in exact_r1)
    union = np.concatenate([exact_r1, exact_r2]) if exact_r2.size else exact_r1
    block = max(float(np.abs(union - mu).min()) for mu in grid_eigs)
    return SpectrumCheck(n=n, containment_distance=containment, block_distance=block, tolerance=tolerance)


@dataclass(frozen=True)
class IndexEstimate:
    """Numerical kernel and cokernel dimensions from singular values."""

    kernel_dim: int
    cokernel_dim: int
    threshold: float
    smallest_forward: float
    smallest_adjoint: float

    @property
    def index(self) -> int:
        return self.kernel_dim - self.cokernel_dim

    @property
    def balanced(self) -> bool:
        return self.kernel_dim == self.cokernel_dim


def index_estimate(ops: GridOperators, relative_threshold: float = 1e-8) -> IndexEstimate:
    """Count singular values of the grid operator below the relative threshold.

    The operator is square, and A and A^T share their singular values, so one
    SVD gives both counts: ``kernel_dim == cokernel_dim`` and ``balanced``
    hold by construction.  ``balanced`` is a smoke check of the assembly, not
    evidence that the continuous problem has index zero.
    """
    singular = np.linalg.svd(ops.operator.matrix, compute_uv=False)
    top = singular.max()
    cut = relative_threshold * top if top > 0 else relative_threshold
    small = int((singular < cut).sum())
    smallest = float(singular.min())
    return IndexEstimate(
        kernel_dim=small,
        cokernel_dim=small,
        threshold=cut,
        smallest_forward=smallest,
        smallest_adjoint=smallest,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max-node errors against an exact solution over a resolution sweep.

    When the scheme happens to be exact for the instance (the truncation
    error of the second difference vanishes on polynomials of degree <= 3),
    all errors sit at rounding level and an observed order is meaningless;
    ``exact_reproduction`` flags that case and ``orders`` is empty.
    """

    rows: tuple[ConvergenceRow, ...]
    orders: tuple[float, ...]
    exact_reproduction: bool

    @property
    def observed_order(self) -> float | None:
        return min(self.orders) if self.orders else None


def convergence_study(
    stencil: Stencil,
    f0: PiecewisePoly,
    exact_v: PiecewisePoly,
    resolutions: tuple[int, ...] = (32, 64, 128),
    a: PiecewisePoly | None = None,
    rounding_floor: float = 1e-10,
) -> ConvergenceStudy:
    rows = []
    for n in resolutions:
        ops = assemble(stencil, n, a)
        sol = solve_grid(ops, grid_samples(f0, ops))
        exact = np.array([float(exact_v.value(t)) for t in ops.points])
        rows.append(ConvergenceRow(n=n, max_error=float(np.abs(sol.values - exact).max())))

    exact_reproduction = all(r.max_error < rounding_floor for r in rows)
    orders = []
    if not exact_reproduction:
        for prev, nxt in zip(rows, rows[1:]):
            if nxt.max_error == 0 or prev.max_error == 0:
                continue
            ratio = math.log(prev.max_error / nxt.max_error)
            step = math.log(nxt.n / prev.n)
            orders.append(ratio / step)
    return ConvergenceStudy(rows=tuple(rows), orders=tuple(orders), exact_reproduction=exact_reproduction)
