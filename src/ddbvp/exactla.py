"""Dense exact linear algebra over the rationals.

Matrices come in and go out as plain lists of lists of ``fractions.Fraction``;
no floating point, no tolerance.  Every elimination runs on integers in one
kernel, ``_eliminate``: each row is scaled to integers by the lcm of its
denominators, then fraction-free Gauss-Jordan elimination (Bareiss 1968,
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
divided out), or det 0 and no rows for a singular a.  ``det``, ``rank`` and
``invert`` scale the rows of a rational matrix to integers first and build
their Fractions from those results; ``det`` and ``invert`` are thin wrappers
over ``integer_inverse``.  ``rref`` and everything built on it
(``nullspace``, ``left_nullspace``, ``solve_affine``, ``solve_unique``,
``min_norm_solution``) read the RREF.  The RREF is canonical, so the results
are those of any exact Gauss-Jordan elimination, entry for entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]


def to_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions; reject floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to Fraction; pass a string or Fraction" % x)
    return Fraction(x)


def transpose(a: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n_i and one common denominator D, the lcm, with values[i] = n_i / D."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _integer_rows(a: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row of a times the lcm of its denominators, and those multipliers."""
    rows, scales = [], []
    for row in a:
        nums, scale = integer_numerators([to_fraction(x) for x in row])
        rows.append(nums)
        scales.append(scale)
    return rows, scales


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


def nullspace(a: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right null space, one vector per free column of the RREF."""
    if not a:
        return []
    return _null_basis(*rref(a), len(a[0]))


def _null_basis(red: Mat, pivots: list[int], cols: int) -> list[Vec]:
    """Null space basis of the first ``cols`` columns of a matrix in RREF."""
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def left_nullspace(a: Sequence[Sequence[Fraction]]) -> list[Vec]:
    return nullspace(transpose(a))


def solve_affine(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> tuple[Vec, list[Vec]] | None:
    """Full solution set of a x = b.

    Returns (particular, nullspace basis), with free variables of the
    particular solution set to zero, or None when the system is infeasible.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    particular = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        particular[p] = red[r][cols]
    # the first cols columns of the augmented RREF are the RREF of a
    return particular, _null_basis(red, pivots, cols)


def solve_unique(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec:
    """Solve a x = b when the solution exists and is unique; raise otherwise."""
    sol = solve_affine(a, b)
    if sol is None:
        raise ValueError("inconsistent linear system")
    particular, null = sol
    if null:
        raise ValueError("underdetermined linear system")
    return particular


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


def min_norm_solution(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> tuple[Vec, list[Vec]] | None:
    """Like solve_affine, but the particular solution minimizes sum(x_i^2).

    The minimizer over the affine solution set p + span(n_1, ..., n_r) solves
    the exact normal equations G c = -T p with G the Gram matrix of the basis.
    """
    sol = solve_affine(a, b)
    if sol is None:
        return None
    p, null = sol
    if not null:
        return p, null
    gram = [[sum((u[i] * v[i] for i in range(len(p))), Fraction(0)) for v in null] for u in null]
    rhs = [-sum((u[i] * p[i] for i in range(len(p))), Fraction(0)) for u in null]
    c = solve_unique(gram, rhs)
    best = [p[i] + sum((c[j] * null[j][i] for j in range(len(null))), Fraction(0)) for i in range(len(p))]
    return best, null
