"""Dense exact linear algebra over the rationals.

Matrices come in and go out as plain lists of lists of ``fractions.Fraction``;
no floating point, no tolerance.  The eliminations run on integers: each row
is scaled to integers by the lcm of its denominators, then every step of a
fraction-free elimination (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination") replaces a row by
(p * row - f * pivot_row) // prev, with p the current and prev the previous
pivot.  By Sylvester's identity every intermediate entry is a minor of the
scaled matrix, so each division is exact and entries grow only as fast as
those minors.

There are two kernels.  ``_forward`` eliminates below the pivots only, the
first n columns of an n-row matrix, and stops at the first column without a
pivot: its last pivot is the determinant up to the sign of the row swaps.
``ForwardPass`` runs it once on [a | I] for a square integer a.  That one
pass gives det a (the signed last pivot), det of a's leading principal
block without the last row and column (by Cramer's rule, the signed last
row's entry in the identity's last column, for a nonsingular a) and, only
when asked, a^-1 by exact back substitution (``_back_substitute``) as integer
rows over one positive denominator, gcd and sign divided out.  The pass
keeps its n x 2n rows only until it is back-substituted, or not at all for
a singular a.  ``integer_inverse`` is that pass plus back substitution, ``integer_det`` the
pass on a alone.  ``_eliminate`` is the Gauss-Jordan kernel, which also
clears above each pivot; only ``integer_rank`` and ``rref`` use it.  ``det``,
``rank``, ``rref`` and ``invert`` scale the rows of a rational matrix to
integers first and build their Fractions from those results, so Fractions
are built only at the boundary.

The package's rational systems have two unknowns: the constants (d1, d2) of
w = d1 t + d2 - I under a stack of node functionals, and the N x 2 pair of
clipped end columns.  ``TwoColumnSystem`` eliminates such an m x 2 block on
its own, without the kernel: the block over its lcm, its first nonzero row
and the first row independent of it, and Cramer's rule on those two rows.
It gives the rank, the left null vectors as integer rows and the right null
basis, both in the basis the RREF gives, and the least-norm solution of a
consistent right side.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

Mat = list[list[Fraction]]


def to_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions; reject floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to Fraction; pass a string or Fraction" % x)
    return Fraction(x)


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n_i and one common denominator D, the lcm, with values[i] = n_i / D."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _integer_rows(a: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row of a times the lcm of its denominators, and those multipliers."""
    pairs = [integer_numerators([to_fraction(x) for x in row]) for row in a]
    return [nums for nums, _ in pairs], [scale for _, scale in pairs]


def _eliminate(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Each step takes the first nonzero entry p of the next column at or below
    the current row as pivot and replaces every other row by
    (p * row - f * pivot_row) // prev, where f is the row's entry in the pivot
    column and prev the previous pivot (1 at the start).  By Sylvester's
    identity every entry stays a minor of the input, so the division is
    exact (Bareiss 1968).  At the end every pivot row holds the last pivot d
    in its own pivot column and zeros in the others, the rows below the rank
    are zero, and the reduced row echelon form is m / d row by row.  For a
    nonsingular square input, det = sign * d.

    Returns the pivot columns and the sign of the row permutation.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
            elif p != prev:
                m[i] = [p * x // prev for x in m[i]]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def _forward(m: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination of the first n columns of an n-row integer matrix, in place.

    Step c takes the first nonzero entry p of column c at or below row c as
    pivot, swaps it into row c and replaces every row below by
    (p * row - f * pivot_row) // prev, with f the row's entry in column c and
    prev the previous pivot (1 at the start).  Afterwards row i holds, in
    each column j >= i, the minor of the row-permuted input on rows 0..i and
    columns 0..i-1 and j (Bareiss 1968); so the left n x n block is upper
    triangular with the leading principal minors on its diagonal, and the
    determinant of a square input is the sign times the last pivot.

    Returns the sign of the row permutation, or 0 at the first column with
    no pivot, where the left block is singular and the pass stops.
    """
    prev, sign = 1, 1
    for c in range(n):
        if not m[c][c]:
            pivot = next((i for i in range(c + 1, n) if m[i][c]), None)
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
    return sign


def _back_substitute(m: list[list[int]], n: int) -> list[list[int]]:
    """d a^-1 as integer rows, from [a | I] after ``_forward`` with a nonsingular, d its last pivot.

    The pass left [U | B] = L P [a | I], so a^-1 = U^-1 B, and Y = d a^-1 is
    an integer matrix (the sign times the adjugate).  From the last row up,
    Y[i] = (d B[i] - sum_{j > i} U[i][j] Y[j]) // U[i][i], skipping the zero
    U[i][j]; each division is exact because its quotient is the integer
    Y[i].  The last row needs no arithmetic: U[n-1][n-1] = d.
    """
    last = m[n - 1][n:]
    d, out = m[n - 1][n - 1], [last]  # Y[n-1], Y[n-2], ...
    for i in range(n - 2, -1, -1):
        row = m[i]
        u = row[n - 1]
        acc = [d * x - u * y for x, y in zip(row[n:], last)]
        for u, solved in zip(row[n - 2:i:-1], out[1:]):
            if u:
                acc = [a - u * y for a, y in zip(acc, solved)]
        p = row[i]
        out.append([a // p for a in acc])
    return out[::-1]


class ForwardPass:
    """One ``_forward`` pass of [a | I] for a square integer matrix a.

    ``det`` is det a, the sign of the row swaps times the last pivot (1 for
    0 x 0, 0 for a singular a).  ``leading_minor`` and ``inverse`` read the
    same pass: the first at no cost, the second by back substitution, so a
    caller that needs only the determinants never builds an inverse.  The
    pass's n x 2n rows are kept only while an inverse may still be asked
    for: a singular pass drops them at once, and ``inverse`` releases them,
    so it runs once per pass.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = self.size = len(rows)
        self.rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        self.sign = _forward(self.rows, n)
        self.det = self.sign * self.rows[-1][n - 1] if n else 1
        # the last row's entry in the identity's last column is the minor of
        # [P a | P] on every row and on a's first n - 1 columns plus P e_(n-1):
        # the sign times det a with its last column replaced by e_(n-1), which
        # by Cramer's rule is the leading minor
        self._leading = self.sign * self.rows[-1][-1] if self.det and n else None
        if not self.det:
            self.rows = None

    @property
    def leading_minor(self) -> int:
        """det of a without its last row and column, for a nonsingular a."""
        if self._leading is None:
            raise ValueError("the leading minor is read off a nonsingular pass of a nonempty matrix only")
        return self._leading

    def inverse(self) -> tuple[int, list[list[int]], int]:
        """(det a, rows, d) with a^-1 = rows / d, d > 0 and the common gcd divided out; (0, [], 1) for a singular a.

        Back substitution consumes the pass: its rows are released, so it is
        called once.
        """
        if not self.det:
            return 0, [], 1
        out = _back_substitute(self.rows, self.size) if self.size else []
        self.rows = None
        d = self.sign * self.det  # the last pivot
        g = math.gcd(d, *(x for row in out for x in row))
        if d < 0:
            g = -g
        if g != 1:
            out = [[x // g for x in row] for row in out]
        return self.det, out, d // g


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the signed last pivot of one ``_forward`` pass on a copy."""
    m = [list(row) for row in rows]
    sign = _forward(m, len(m))
    return sign * m[-1][-1] if m else 1


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: ``integer_det`` of the rows scaled to integers, over the product of the row scales."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of a nonsquare matrix")
    rows, scales = _integer_rows(a)
    return Fraction(integer_det(rows), math.prod(scales))


def rref(a: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m, _ = _integer_rows(a)
    pivots, _ = _eliminate(m)
    d = m[0][pivots[0]] if pivots else 1
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    return integer_rank(_integer_rows(a)[0])


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by the elimination kernel on a copy."""
    m = [list(row) for row in rows]
    return len(_eliminate(m)[0]) if m and m[0] else 0


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]], int]:
    """The determinant of a square integer matrix and its inverse as integer rows over one positive denominator d.

    One ``ForwardPass`` of [rows | I] and its back substitution: rows *
    (out / d) = I, with the sign and the common gcd divided out.  A singular
    matrix gives (0, [], 1).
    """
    return ForwardPass(rows).inverse()


def invert(a: Sequence[Sequence[Fraction]]) -> Mat:
    """Inverse, as Fractions: a = S^-1 T for T its rows scaled to integers, so a^-1 = T^-1 S."""
    rows, scales = _integer_rows(a)
    det, inverse, d = integer_inverse(rows)
    if not det:
        raise ValueError("matrix is singular")
    return [[Fraction(x * s, d) for x, s in zip(row, scales)] for row in inverse]


class TwoColumnSystem:
    """An m x 2 block eliminated over the integers: m equations in two unknowns.

    ``rows`` is the block times ``scale``, the lcm of its denominators, which
    moves neither null space.  ``pivots`` holds the first nonzero row p1 and
    the first row p2 independent of it, as far as they exist, so ``rank`` is
    their number.  ``basis`` is the pivot rows completed to a basis of the
    plane by null directions: at rank 1 by (-y1, x1), orthogonal to p1 =
    (x1, y1), at rank 0 by both unit vectors.  Each question below is then one
    2 x 2 solve by Cramer's rule on ``basis``, with e its determinant.
    """

    def __init__(self, block: Sequence[Sequence[Fraction]]):
        flat, self.scale = integer_numerators([to_fraction(x) for row in block for x in row])
        self.rows = tuple(zip(flat[0::2], flat[1::2]))
        self.pivots, self.basis = (), ((1, 0), (0, 1))
        first = next((i for i, row in enumerate(self.rows) if any(row)), None)
        if first is not None:
            x1, y1 = self.rows[first]
            second = next((i for i, (x, y) in enumerate(self.rows) if x1 * y - x * y1), None)
            self.pivots = (first,) if second is None else (first, second)
            self.basis = ((x1, y1), (-y1, x1) if second is None else self.rows[second])
        self.rank = len(self.pivots)
        # the completing directions, scaled so that their last nonzero entry is 1
        self.right_null = tuple((Fraction(x, y or x), Fraction(y, y or x)) for x, y in self.basis[self.rank:])

    @cached_property
    def left_null(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Basis of the left null space, as integer rows (numerators, den) over the least den > 0.

        Each non-pivot row f, in ascending order, gives e_f minus f's
        coordinates on the pivot rows; its coordinates on the completing
        directions are 0.  These are the vectors, one per free column, that
        the RREF of the 2 x m transpose gives.
        """
        (x1, y1), (x2, y2) = self.basis
        e = x1 * y2 - x2 * y1
        out = []
        for f, (x, y) in enumerate(self.rows):
            if f not in self.pivots:
                coords = dict(zip(self.pivots, (x * y2 - x2 * y, x1 * y - x * y1)))
                nums = [e if i == f else -coords.get(i, 0) for i in range(len(self.rows))]
                g = math.gcd(*nums) if e > 0 else -math.gcd(*nums)
                out.append((tuple(n // g for n in nums), e // g))
        return tuple(out)

    def least_norm(self, rhs: Sequence[Fraction]) -> tuple[Fraction, Fraction] | None:
        """The solution d of block * d = rhs with the least d1^2 + d2^2, or None when the system is inconsistent.

        With rhs = b / L over its lcm L, rows * d = scale * b / L.  The
        candidate meets the pivot rows and is orthogonal to every null
        direction, basis * d = scale * (b[p1], b[p2] or 0) / L, so it is the
        least-norm point of the solution set if that set is not empty:
        d = scale * (n1, n2) / (e L), a solution exactly when x_i n1 + y_i n2 =
        e b_i on every row.
        """
        b, den = integer_numerators([to_fraction(v) for v in rhs])
        (x1, y1), (x2, y2) = self.basis
        e = x1 * y2 - x2 * y1
        b1, b2 = ([b[p] for p in self.pivots] + [0, 0])[:2]
        n1, n2 = b1 * y2 - b2 * y1, x1 * b2 - x2 * b1
        if any(x * n1 + y * n2 != e * b_i for (x, y), b_i in zip(self.rows, b)):
            return None
        return Fraction(self.scale * n1, e * den), Fraction(self.scale * n2, e * den)
