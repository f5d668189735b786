"""Structure of an integer-shift difference operator on a bounded interval.

The operator studied here is

    (R v)(t) = sum_{j=-N}^{N} b_j v(t + j),

applied to functions on the interval Q = (0, N+1) that are extended by zero
outside.  Cutting Q into the N+1 unit intervals (k-1, k) and stacking the
restrictions turns R into multiplication by the constant (N+1) x (N+1)
Toeplitz matrix

    R1[i][k] = b_{k-i}          (1-based i, k),

so every structural question about R reduces to linear algebra over the
stencil entries.  R2 denotes the leading principal N x N minor of R1.

The package handles the degenerate regime det R1 != 0, det R2 = 0.  There the
operator is invertible on L2(Q) but does not preserve higher smoothness: its
image inside the order-k Sobolev space is a proper subspace cut out by
finitely many rational node conditions.  This module computes the data those
conditions are built from:

* an interior node m and coefficients gamma expressing one row dependency of
  R2 (and its mirror image), which generate the node conditions;
* the two "end columns" of R1 (first column without its first entry, last
  column without its last entry), whose linear dependence or independence
  decides between two different condition counts;
* R1^-1, whose adjugate det R1 * R1^-1 gives every cofactor of R1;
* the resulting codimension/index table.

``analyze`` derives all of this once per stencil: it checks the regime,
inverts R1 a single time and reads the R2 row dependency (its last row), the
admissible column (its last column) and the gamma1 expansions (combinations
of its rows) off R1^-1; only the end-column dependency takes its own N x 2
elimination.  It returns a ``StructureReport`` (carrying R1^-1) that every
consumer reads instead of recomputing.  All of this is exact rational
arithmetic.  Only ``spectrum`` leaves the rationals, returning floating-point
eigenvalues for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exactla


class UnsupportedRegimeError(ValueError):
    """Stencil falls outside the det R1 != 0, det R2 = 0 regime.

    The nonsingular-minor case is covered by the classical theory of elliptic
    functional differential equations (Skubachevskii, "Elliptic Functional
    Differential Equations and Applications", Birkhauser 1997); a singular R1
    breaks invertibility of the difference operator altogether.  Neither is
    handled here.  The error carries the ``matrix`` and ``regime`` it was decided on.
    """

    def __init__(self, message: str, matrix: "ShiftMatrix", regime: "RegimeReport"):
        super().__init__(message)
        self.matrix = matrix
        self.regime = regime


class StructureError(RuntimeError):
    """An exact rank assumption of the supported regime failed to hold."""


@dataclass(frozen=True)
class Stencil:
    """Integer-shift stencil b_{-N}, ..., b_N with rational entries."""

    N: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Stencil":
        entries = tuple(exactla.to_fraction(c) for c in coeffs)
        if len(entries) % 2 == 0 or len(entries) < 3:
            raise ValueError("stencil needs an odd number >= 3 of coefficients")
        return cls(N=(len(entries) - 1) // 2, coeffs=entries)

    def b(self, j: int) -> Fraction:
        """Coefficient of the shift by j; zero outside [-N, N]."""
        if -self.N <= j <= self.N:
            return self.coeffs[j + self.N]
        return Fraction(0)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class ShiftMatrix:
    """The Toeplitz matrix R1 of the vectorized operator, with cached minors."""

    stencil: Stencil
    r1: tuple[tuple[Fraction, ...], ...]
    det_r1: Fraction
    det_r2: Fraction

    @property
    def size(self) -> int:
        return self.stencil.N + 1

    def r1_lists(self) -> exactla.Mat:
        return [list(row) for row in self.r1]

    def r2_lists(self) -> exactla.Mat:
        n = self.stencil.N
        return [list(row[:n]) for row in self.r1[:n]]

    def entry(self, i: int, k: int) -> Fraction:
        """1-based entry R1[i][k] = b_{k-i}."""
        return self.r1[i - 1][k - 1]


class Regime(Enum):
    """Classification of a stencil by the two determinants."""

    SINGULAR_MINOR = "singular minor"        # det R1 != 0, det R2 == 0: handled here
    NONSINGULAR_BOTH = "nonsingular both"    # classical smooth theory applies
    SINGULAR_FULL = "singular full matrix"   # det R1 == 0: operator not invertible


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    det_r1: Fraction
    det_r2: Fraction

    @property
    def supported(self) -> bool:
        return self.regime is Regime.SINGULAR_MINOR


@dataclass(frozen=True)
class GammaData:
    """Node-relation coefficients generated by the row dependency of R2.

    ``variant`` records which end of the interval the edge relation closes at:

    * ``"right_edge"``: u(N+1) = sum_{i != m+1} gamma1[i] * u(i-1) together
      with u(m) = sum_{i != m} gamma2[i] * u(i);
    * ``"left_edge"`` (the mirrored construction): u(0) = sum_{i != m}
      gamma1[i] * u(i) together with the same interior relation.

    Keys of gamma1 run over 1..N+1 minus the excluded index, keys of gamma2
    over 1..N minus m.  Relations hold for the operator image derivative by
    derivative, which is what makes them usable at every smoothness order.
    """

    N: int
    m: int
    gamma1: dict[int, Fraction]
    gamma2: dict[int, Fraction]
    variant: str = "right_edge"


@dataclass(frozen=True)
class EndColumnData:
    """The two clipped end columns of R1 and their dependency data.

    ``first_inner`` is the first column without its first entry, i.e.
    (b_{-1}, ..., b_{-N}); ``last_inner`` the last column without its last
    entry, (b_N, ..., b_1).  When they are linearly dependent, ``alpha`` holds
    the dependency (alpha1, alpha2) normalized so its first nonzero component
    is 1, and ``l`` is the smallest column index in 1..N for which R2 with row
    m and column l removed is nonsingular (the empty 0 x 0 case counts as
    nonsingular).
    """

    first_inner: tuple[Fraction, ...]
    last_inner: tuple[Fraction, ...]
    dependent: bool
    alpha: tuple[Fraction, Fraction] | None
    l: int | None


@dataclass(frozen=True)
class IndexTable:
    """Codimensions and indices implied by the end-column alternative at order k.

    ``codim_difference_image``: codimension of the difference operator's image
    inside the order-(k+2) space of functions with matching node relations.
    ``codim_minimal_domain`` / ``codim_zero_trace_domain``: codimension of the
    image of -(R v)'' over, respectively, the minimal domain (solution and
    image both of order k+2) and the zero-trace domain.  The two index rows
    are for the boundary value problem with inhomogeneous extension data,
    posed with zero-trace (whole-interval smooth) and minimal-domain targets.
    """

    k: int
    dependent: bool
    codim_difference_image: int
    codim_minimal_domain: int
    codim_zero_trace_domain: int
    index_zero_trace: int
    index_minimal: int


def build_shift_matrix(stencil: Stencil) -> ShiftMatrix:
    """Assemble R1[i][k] = b_{k-i} and its two determinants."""
    n = stencil.N
    r1 = tuple(tuple(stencil.b(k - i) for k in range(1, n + 2)) for i in range(1, n + 2))
    det_r1 = exactla.det([list(row) for row in r1])
    det_r2 = exactla.det([list(row[:n]) for row in r1[:n]])
    return ShiftMatrix(stencil=stencil, r1=r1, det_r1=det_r1, det_r2=det_r2)


def classify_regime(sm: ShiftMatrix) -> RegimeReport:
    if sm.det_r1 == 0:
        regime = Regime.SINGULAR_FULL
    elif sm.det_r2 == 0:
        regime = Regime.SINGULAR_MINOR
    else:
        regime = Regime.NONSINGULAR_BOTH
    return RegimeReport(regime=regime, det_r1=sm.det_r1, det_r2=sm.det_r2)


def _require_supported(sm: ShiftMatrix, regime: RegimeReport) -> None:
    if regime.supported:
        return
    if regime.regime is Regime.NONSINGULAR_BOTH:
        raise UnsupportedRegimeError(
            "det R1 = %s and det R2 = %s: both minors nonsingular, so the operator "
            "preserves smoothness and the classical theory applies (see Skubachevskii, "
            "Elliptic Functional Differential Equations and Applications); this package "
            "only handles the singular-minor regime" % (regime.det_r1, regime.det_r2), sm, regime,
        )
    raise UnsupportedRegimeError(
        "det R1 = 0: the vectorized difference operator is not invertible on the "
        "interval and none of the structure theory here applies", sm, regime,
    )


def _gamma(sm: ShiftMatrix, inverse: exactla.Mat, m: int, gamma2: dict[int, Fraction], variant: str) -> GammaData:
    """Node-relation coefficients of one variant, read off R1^-1.

    gamma2 is the R2 row dependency: row m of R2 equals
    sum_{i != m} gamma2[i] * row_i.  gamma1 expands one clipped edge row of
    R1 in the other rows clipped the opposite way, skipping one row:

    * ``"right_edge"``: the last row without its last entry, in the rows
      without their first entry, skipping row p = m+1;
    * ``"left_edge"``: the first row without its first entry, in the rows
      without their last entry, skipping row p = m.  Together with the unchanged
      interior relation this cuts out the same constraint space as the
      right-edge variant; the rank equality is exercised in the test suite.

    Either way the rows of R1 but p, with one column q deleted, must reach a
    target t on the other columns.  With P = R1^-1, every y with
    (y R1)_k = t_k for k != q is y = sum_{k != q} t_k P[k] + tau P[q], and
    tau = -y_p / P[q][p] sets y_p = 0.  The rows are a basis exactly when their
    minor, the cofactor B[p][q] = det R1 * P[q][p], is nonzero.
    """
    n = sm.stencil.N
    if variant == "right_edge":
        p, q, target = m + 1, 1, {k: sm.entry(n + 1, k - 1) for k in range(2, n + 2)}
    else:
        p, q, target = m, n + 1, {k: sm.entry(1, k + 1) for k in range(1, n + 1)}
    pivot = inverse[q - 1][p - 1]
    if pivot == 0:
        raise StructureError("%s relation rows failed to form a basis" % variant)
    terms = [(t, inverse[k - 1]) for k, t in target.items() if t]
    y = [sum((t * row[i] for t, row in terms), Fraction(0)) for i in range(n + 1)]
    tau = -y[p - 1] / pivot
    gamma1 = {i: y[i - 1] + tau * inverse[q - 1][i - 1] for i in range(1, n + 2) if i != p}
    return GammaData(N=n, m=m, gamma1=gamma1, gamma2=gamma2, variant=variant)


def _end_columns(sm: ShiftMatrix, inverse: exactla.Mat) -> EndColumnData:
    """Clipped end columns of R1 and, if dependent, their normalized relation.

    l is read off the last column of R1^-1 without its last entry, the null
    vector of R2 (R1^-1[N+1][N+1] = det R2 / det R1 = 0).  R2 without row m
    has rank N-1 and shares it, and by Cramer's rule that block's minor
    without column l is nonzero exactly where the null vector is.
    """
    n = sm.stencil.N
    first = tuple(sm.entry(i, 1) for i in range(2, n + 2))
    last = tuple(sm.entry(i, n + 1) for i in range(1, n + 1))
    pair = [[first[i], last[i]] for i in range(n)]
    null = exactla.nullspace(pair)
    if not null:
        return EndColumnData(first_inner=first, last_inner=last, dependent=False, alpha=None, l=None)
    # the nullity is 1: nullity 2 needs both columns zero, leaving b_0 alone, and det R2 = b_0^N = 0 forces det R1 = 0
    alpha = null[0]
    lead = next(x for x in alpha if x != 0)
    alpha = tuple(x / lead for x in alpha)
    l = next(i for i in range(1, n + 1) if inverse[i - 1][n] != 0)
    return EndColumnData(first_inner=first, last_inner=last, dependent=True, alpha=alpha, l=l)


def cofactor(report: StructureReport, i: int, k: int) -> Fraction:
    """Signed cofactor B[i][k] of the 1-based (i, k) entry of R1.

    Read off the adjugate: adj R1 = det R1 * R1^-1 and B[i][k] = adj R1[k][i].
    """
    size = report.matrix.size
    if not (1 <= i <= size and 1 <= k <= size):
        raise ValueError("cofactor indices out of range")
    return report.matrix.det_r1 * report.r1_inverse[k - 1][i - 1]


def spectrum(sm: ShiftMatrix) -> np.ndarray:
    """Eigenvalues of R1 in double precision, sorted by (real, imag).

    The spectrum of the difference operator on L2(0, N+1) is exactly the
    spectrum of R1, so this doubles as a diagnostic for the discrete operator
    built in :mod:`ddbvp.grid`.
    """
    dense = np.array([[float(x) for x in row] for row in sm.r1], dtype=float)
    eigs = np.linalg.eigvals(dense)
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def index_table(ends: EndColumnData, k: int) -> IndexTable:
    """Codimension and index counts at smoothness order k >= 0."""
    if k < 0:
        raise ValueError("order k must be >= 0")
    if ends.dependent:
        codim_rq = k + 3
        codim_minimal = k + 1
    else:
        codim_rq = 2 * (k + 2)
        codim_minimal = 2 * (k + 1)
    codim_zero_trace = 2 * (k + 1)
    return IndexTable(
        k=k,
        dependent=ends.dependent,
        codim_difference_image=codim_rq,
        codim_minimal_domain=codim_minimal,
        codim_zero_trace_domain=codim_zero_trace,
        index_zero_trace=-2 * (k + 1),
        index_minimal=-codim_minimal,
    )


@dataclass(frozen=True)
class StructureReport:
    """Bundled structural data for one stencil in the supported regime.

    ``r1_inverse`` is R1^-1, exact; it drives the inverse difference operator
    and, through the adjugate, every cofactor of R1.
    """

    stencil: Stencil
    matrix: ShiftMatrix
    regime: RegimeReport
    gamma: GammaData
    alt_gamma: GammaData
    ends: EndColumnData
    r1_inverse: tuple[tuple[Fraction, ...], ...]

    def index_table(self, k: int) -> IndexTable:
        return index_table(self.ends, k)


def analyze(stencil: Stencil) -> StructureReport:
    """Full structural analysis; raises UnsupportedRegimeError outside the regime.

    This is the one place a stencil's structure is derived: the regime check
    and the inversion of R1 each happen once here, and every consumer reads
    the returned report.  The last row of R1^-1 without its last entry is the
    left null vector c of R2 (R1^-1[N+1][N+1] = det R2 / det R1 = 0); m is its
    first nonzero index.
    """
    sm = build_shift_matrix(stencil)
    regime = classify_regime(sm)
    _require_supported(sm, regime)
    inverse = exactla.invert(sm.r1_lists())
    n = stencil.N
    c = inverse[n][:n]
    m = next(i for i, x in enumerate(c, start=1) if x != 0)
    gamma2 = {i: -c[i - 1] / c[m - 1] for i in range(1, n + 1) if i != m}
    return StructureReport(
        stencil=stencil,
        matrix=sm,
        regime=regime,
        gamma=_gamma(sm, inverse, m, gamma2, "right_edge"),
        alt_gamma=_gamma(sm, inverse, m, gamma2, "left_edge"),
        ends=_end_columns(sm, inverse),
        r1_inverse=tuple(tuple(row) for row in inverse),
    )
