"""Dense exact linear algebra over the rationals.

Matrices come in and go out as plain lists of lists of ``fractions.Fraction``;
no floating point, no tolerance.  Every general elimination runs on integers
in one kernel, ``_eliminate``: each row is scaled to integers by the lcm of
its denominators, then fraction-free Gauss-Jordan elimination (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination") replaces every non-pivot row by (p * row - f * pivot_row) //
prev, with p the current and prev the previous pivot.  By Sylvester's
identity every intermediate entry is a minor of the scaled matrix, so each
division is exact and entries grow only as fast as those minors.

Fractions are built only at the boundary: an RREF entry is the integer entry
over the last pivot, and the determinant is the signed last pivot over the
product of the row scales.  ``integer_rank`` and ``integer_inverse`` take
integer matrices and read the kernel directly, for callers that keep working
in integers.  ``integer_inverse`` eliminates [a | I] once and returns both
the determinant (the signed last pivot) and the inverse as integer rows over
one positive denominator (the right half over the last pivot, gcd and sign
divided out), or det 0 and no rows for a singular a.  ``det``, ``rank``,
``rref`` and ``invert`` scale the rows of a rational matrix to integers first
and build their Fractions from those results; ``det`` and ``invert`` are thin
wrappers over ``integer_inverse``.

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


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: that of ``integer_inverse`` on the rows scaled to integers, over the product of the row scales."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of a nonsquare matrix")
    rows, scales = _integer_rows(a)
    return Fraction(integer_inverse(rows)[0], math.prod(scales))


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

    Eliminating [rows | I] takes the pivots of rows alone in the left half,
    so the determinant is the signed last pivot (1 for 0 x 0).  When it is
    nonzero, row i ends with that pivot in column i, the right half of each
    row over it is the row of the inverse, rows * (out / d) = I, and the
    sign and the common gcd are divided out.  A singular matrix gives
    (0, [], 1).
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, sign = _eliminate(m)
    if pivots[:n] != list(range(n)):
        return 0, [], 1
    d = m[0][0] if n else 1
    g = math.gcd(d, *(x for row in m for x in row[n:]))
    if d < 0:
        g = -g
    return sign * d, [[x // g for x in row[n:]] for row in m], d // g


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
