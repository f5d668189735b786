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

R1 is held as integer Toeplitz rows T over one denominator D, the lcm of
the stencil's (``Stencil.r1_numerators``), and a stencil runs one
elimination of R1: ``Stencil.r1_pass``, one fraction-free forward pass of
[T | I] (``exactla.ForwardPass``).  Its signed last pivot is det T, so det R1
= det T / D^(N+1), and by Cramer's rule its last row's entry in the
identity's last column gives det R2 = det T2 / D^N, T2 the leading N x N
block of T; only a singular R1 runs a pass of T2 itself, and only when det
R2 is read.  The regime is decided from these two determinants alone, so a
stencil outside the regime never builds an inverse.  ``r1_elimination``
back-substitutes the same pass, once, for R1^-1 = D T^-1 as integer rows
over one positive denominator; only ``analyze`` reads it.  ``analyze``
eliminates nothing of R1 itself: it reads the R2 row dependency (the last
row of R1^-1), the admissible column (its last column) and the gamma1
expansions (combinations of its rows) off that one inverse; only the
end-column dependency takes its own N x 2 elimination, an
``exactla.TwoColumnSystem``.  R1^-1 stays in integers: the report holds the
stencil's integer rows, the gamma1 expansions are integer dot products with
one Fraction per coefficient, ``cofactor`` builds one Fraction per call, and
``StructureReport.r1_inverse`` builds the Fraction matrix only when it is
read.  A ``Stencil`` carries R1, its integer rows, their forward pass and
back substitution, its two determinants, its regime and its ``structure``
(the ``StructureReport`` of ``analyze``), each computed on first use, and
every consumer reads them from the stencil instead of recomputing.  All of
this is exact rational arithmetic.  Only the stencil's ``r1_eigenvalues``
and ``r2_eigenvalues`` leave the rationals: floating-point spectra for
diagnostics, which the command line and the grid's ``spectrum_check`` read
from one decomposition of each matrix per stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import exactla


class UnsupportedRegimeError(ValueError):
    """Stencil falls outside the det R1 != 0, det R2 = 0 regime.

    The nonsingular-minor case is covered by the classical theory of elliptic
    functional differential equations (Skubachevskii, "Elliptic Functional
    Differential Equations and Applications", Birkhauser 1997); a singular R1
    breaks invertibility of the difference operator altogether.  Neither is
    handled here.
    """


class StructureError(RuntimeError):
    """An exact rank assumption of the supported regime failed to hold."""


@dataclass(frozen=True)
class Stencil:
    """Integer-shift stencil b_{-N}, ..., b_N with rational entries.

    A stencil carries what is derived from it: R1, its integer rows, their
    one forward pass (``r1_pass``: det R1 and det R2) and its back
    substitution (``r1_elimination``: R1^-1), its two determinants, its
    ``structure`` and the double-precision eigenvalues of R1 and of R2
    (``r1_eigenvalues``, ``r2_eigenvalues``), each computed on first use and
    kept as long as the stencil object lives.
    """

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

    @cached_property
    def r1(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Toeplitz matrix R1[i][k] = b_{k-i} of the vectorized operator."""
        n = self.N
        return tuple(tuple(self.b(k - i) for k in range(1, n + 2)) for i in range(1, n + 2))

    @cached_property
    def r1_numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """R1 = T / D: the integer Toeplitz rows T[i][k] = D b_{k-i} over D, the lcm of the coefficients' denominators."""
        n = self.N
        nums, den = exactla.integer_numerators(self.coeffs)
        return tuple(tuple(nums[n - i:2 * n + 1 - i]) for i in range(n + 1)), den

    @cached_property
    def r1_pass(self) -> exactla.ForwardPass:
        """The one fraction-free forward pass of [T | I], T the integer rows of ``r1_numerators``.

        It keeps the pass's rows only until ``r1_elimination`` back-substitutes
        them, so a stencil holds its determinants and R1^-1, not the pass.
        """
        return exactla.ForwardPass(self.r1_numerators[0])

    @cached_property
    def r1_elimination(self) -> tuple[int, tuple[tuple[int, ...], ...], int]:
        """(det T, M, d) by back substitution on ``r1_pass``: R1^-1 = D T^-1 = M / d, d > 0; (0, (), 1) for a singular T."""
        det, t_inverse, t_den = self.r1_pass.inverse()
        den = self.r1_numerators[1]
        # T^-1 is in lowest terms, so gcd(t_den, D) is all that cancels
        g = math.gcd(t_den, den)
        return det, tuple(tuple(x * (den // g) for x in row) for row in t_inverse), t_den // g

    @cached_property
    def det_r1(self) -> Fraction:
        return Fraction(self.r1_pass.det, self.r1_numerators[1] ** (self.N + 1))

    @cached_property
    def det_r2(self) -> Fraction:
        """det of R2, the leading principal N x N minor of R1.

        Read off ``r1_pass`` by Cramer's rule (``ForwardPass.leading_minor``);
        only a singular R1 runs a pass of R2's block of T, and only when det
        R2 is read.
        """
        n = self.N
        rows, den = self.r1_numerators
        elimination = self.r1_pass
        if elimination.det:
            return Fraction(elimination.leading_minor, den ** n)
        return Fraction(exactla.integer_det([row[:n] for row in rows[:n]]), den ** n)

    @property
    def regime(self) -> Regime:
        """Classification by the two determinants' numerators on ``r1_pass``; det R2 is read only when det R1 != 0."""
        elimination = self.r1_pass
        if not elimination.det:
            return Regime.SINGULAR_FULL
        return Regime.SINGULAR_MINOR if not elimination.leading_minor else Regime.NONSINGULAR_BOTH

    @cached_property
    def structure(self) -> StructureReport:
        """``analyze(self)``, computed on first use; raises UnsupportedRegimeError outside the regime."""
        return analyze(self)

    def _r1_in_doubles(self) -> np.ndarray:
        """R1 in double precision; a coefficient outside the double range raises OverflowError naming it."""
        for j, c in enumerate(self.coeffs, start=-self.N):
            try:
                outside = c != 0 and float(c) == 0.0
            except OverflowError:
                outside = True
            if outside:
                raise OverflowError("stencil coefficient b_%d lies outside the double range" % j)
        return np.array(self.r1, dtype=float)

    @cached_property
    def r1_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of R1 in double precision, sorted by (real, imag), as a read-only array.

        The spectrum of the difference operator on L2(0, N+1) is exactly the
        spectrum of R1, so this doubles as a diagnostic for the discrete
        operator built in :mod:`ddbvp.grid`.  A coefficient outside the double
        range, too large or a nonzero one that rounds to 0.0, raises
        OverflowError naming it, on every read.
        """
        eigs = np.linalg.eigvals(self._r1_in_doubles())
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
        eigs.flags.writeable = False
        return eigs

    @cached_property
    def r2_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of R2, the leading N x N block of R1, in double precision, as a read-only array.

        Decomposed on its own first read, so a reader of ``r1_eigenvalues``
        alone never pays for it; out-of-range coefficients raise as for
        ``r1_eigenvalues``.
        """
        eigs = np.linalg.eigvals(self._r1_in_doubles()[:-1, :-1])
        eigs.flags.writeable = False
        return eigs


class Regime(Enum):
    """Classification of a stencil by the two determinants."""

    SINGULAR_MINOR = "singular minor"        # det R1 != 0, det R2 == 0: handled here
    NONSINGULAR_BOTH = "nonsingular both"    # classical smooth theory applies
    SINGULAR_FULL = "singular full matrix"   # det R1 == 0: operator not invertible


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


def _require_supported(stencil: Stencil) -> None:
    regime = stencil.regime
    if regime is Regime.SINGULAR_MINOR:
        return
    if regime is Regime.NONSINGULAR_BOTH:
        raise UnsupportedRegimeError(
            "det R1 = %s and det R2 = %s: both minors nonsingular, so the operator "
            "preserves smoothness and the classical theory applies (see Skubachevskii, "
            "Elliptic Functional Differential Equations and Applications); this package "
            "only handles the singular-minor regime" % (stencil.det_r1, stencil.det_r2)
        )
    raise UnsupportedRegimeError(
        "det R1 = 0: the vectorized difference operator is not invertible on the "
        "interval and none of the structure theory here applies"
    )


def _gamma(
    stencil: Stencil, inverse: Sequence[Sequence[int]], d: int, m: int, gamma2: dict[int, Fraction], variant: str
) -> GammaData:
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
    minor, the cofactor B[p][q] = det R1 * P[q][p], is nonzero.  In integers,
    with P = M / d and t = T / D: y = Y / (D d) for Y = sum_k T_k M[k], and
    gamma1[i] = (Y_i M[q][p] - Y_p M[q][i]) / (D d M[q][p]), one Fraction each.
    """
    n = stencil.N
    # target[j] belongs to the 0-based row rows[j] of R1^-1
    if variant == "right_edge":
        p, q, rows = m + 1, 1, range(1, n + 1)
        target = [stencil.b(r - n - 1) for r in rows]
    else:
        p, q, rows = m, n + 1, range(n)
        target = [stencil.b(r + 1) for r in rows]
    pivot = inverse[q - 1][p - 1]
    if pivot == 0:
        raise StructureError("%s relation rows failed to form a basis" % variant)
    nums, den = exactla.integer_numerators(target)
    terms = [(t, inverse[r]) for r, t in zip(rows, nums) if t]
    y = [sum(t * row[i] for t, row in terms) for i in range(n + 1)]
    y_p, row_q = y[p - 1], inverse[q - 1]
    scale = den * d * pivot
    gamma1 = {i: Fraction(y[i - 1] * pivot - y_p * row_q[i - 1], scale) for i in range(1, n + 2) if i != p}
    return GammaData(N=n, m=m, gamma1=gamma1, gamma2=gamma2, variant=variant)


def _end_columns(stencil: Stencil, inverse: Sequence[Sequence[int]]) -> EndColumnData:
    """Clipped end columns of R1 and, if dependent, their normalized relation.

    The dependency alpha is the right null vector of the N x 2 pair
    (first, last), from its ``exactla.TwoColumnSystem``, scaled so that its
    first nonzero entry is 1.  l is read off the last column of R1^-1
    without its last entry, the null vector of R2 (R1^-1[N+1][N+1] = det R2
    / det R1 = 0).  R2 without row m has rank N-1 and shares it, and by
    Cramer's rule that block's minor without column l is nonzero exactly
    where the null vector is.
    """
    n = stencil.N
    first = tuple(stencil.b(1 - i) for i in range(2, n + 2))
    last = tuple(stencil.b(n + 1 - i) for i in range(1, n + 1))
    null = exactla.TwoColumnSystem(list(zip(first, last))).right_null
    if not null:
        return EndColumnData(first_inner=first, last_inner=last, dependent=False, alpha=None, l=None)
    # the nullity is 1: nullity 2 needs both columns zero, leaving b_0 alone, and det R2 = b_0^N = 0 forces det R1 = 0
    lead = next(x for x in null[0] if x != 0)
    alpha = tuple(x / lead for x in null[0])
    l = next(i for i in range(1, n + 1) if inverse[i - 1][n] != 0)
    return EndColumnData(first_inner=first, last_inner=last, dependent=True, alpha=alpha, l=l)


def cofactor(stencil: Stencil, i: int, k: int) -> Fraction:
    """Signed cofactor B[i][k] of the 1-based (i, k) entry of R1.

    Read off the adjugate: adj R1 = det R1 * R1^-1 and B[i][k] = adj R1[k][i],
    one Fraction from the report's integer inverse.
    """
    if not (1 <= i <= stencil.N + 1 and 1 <= k <= stencil.N + 1):
        raise ValueError("cofactor indices out of range")
    report = stencil.structure
    det = stencil.det_r1
    return Fraction(det.numerator * report.inverse[k - 1][i - 1], det.denominator * report.inverse_den)


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

    R1^-1 is stored in integers, ``inverse`` over the one positive
    denominator ``inverse_den``, in lowest terms (the rows of the stencil's
    ``r1_elimination``, not a copy); it drives the
    inverse difference operator and, through the adjugate, every cofactor of
    R1.  ``r1_inverse`` builds its Fractions on each read.
    """

    stencil: Stencil
    gamma: GammaData
    alt_gamma: GammaData
    ends: EndColumnData
    inverse: tuple[tuple[int, ...], ...]
    inverse_den: int

    @property
    def r1_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """R1^-1 as Fractions, built on every read."""
        d = self.inverse_den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.inverse)

    def index_table(self, k: int) -> IndexTable:
        return index_table(self.ends, k)


def analyze(stencil: Stencil) -> StructureReport:
    """Full structural analysis; raises UnsupportedRegimeError outside the regime.

    This is the one place a stencil's structure is derived, and
    ``Stencil.structure`` keeps its result.  It eliminates nothing of R1:
    R1^-1 is the stencil's ``r1_elimination``, the back substitution of the
    forward pass the regime check has already run, and the report holds that
    tuple itself.  The last row
    of R1^-1 without its last entry is the left null vector c of R2
    (R1^-1[N+1][N+1] = det R2 / det R1 = 0); m is its first nonzero index.
    """
    _require_supported(stencil)
    _, inverse, d = stencil.r1_elimination
    n = stencil.N
    c = inverse[n][:n]
    m = next(i for i, x in enumerate(c, start=1) if x != 0)
    gamma2 = {i: Fraction(-c[i - 1], c[m - 1]) for i in range(1, n + 1) if i != m}
    return StructureReport(
        stencil=stencil,
        gamma=_gamma(stencil, inverse, d, m, gamma2, "right_edge"),
        alt_gamma=_gamma(stencil, inverse, d, m, gamma2, "left_edge"),
        ends=_end_columns(stencil, inverse),
        inverse=inverse,
        inverse_den=d,
    )
