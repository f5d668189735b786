"""Property tests for the exact identities the exact path relies on.

Stencils are built inside the supported regime by construction:
b_0 = ... = b_{N-1} = 0 makes R2 strictly lower triangular (det R2 = 0), and
b_{-1}, b_N != 0 leave det R1 = +-b_N * b_{-1}^N != 0.  Rejection sampling
would almost never hit det R2 = 0 once N grows.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddbvp import cli, exactla, grid
from ddbvp.piecewise import (
    DEGREE_CAP,
    DegreeCapError,
    PiecewisePoly,
    _form,
    _form_of,
    _hermite_basis,
    _jet_at,
    _shifted,
    _unit_product,
    align_many,
    apply_difference,
    apply_difference_inverse,
    apply_shifted_sum,
    concat,
    hermite_interpolant,
    linear_combination,
    progression_floats,
    ptrim,
    zero_extension,
    smoothness_defects,
    trace_defects,
    two_point_hermite,
)
from ddbvp.functionals import (
    NodeFunctional,
    evaluate_stack,
    membership_functionals,
    rank_of_functionals,
    solvability_constraints,
)
from ddbvp.problem_io import MAX_STENCIL_N, canonical_problem_text, parse_problem
from ddbvp.solver import (
    BVPProblem,
    SolveStatus,
    boundary_matrix,
    hermite_extension,
    index_report,
    kernel_certificate,
    solve_homogeneous,
    solve_nonhomogeneous,
)
from ddbvp.structure import Regime, Stencil, analyze, cofactor
from ddbvp.verification import (
    BOX_BOUND,
    _hermite_glued,
    _violating_data,
    check_boundary_rank_cases,
    named_stencils,
    random_image_member,
    random_regime_stencils,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero = rationals.filter(lambda x: x != 0)
nonzero_polys = st.lists(rationals, min_size=1, max_size=3).filter(any)

DOMAIN = (Fraction(0), Fraction(3))
inside = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def functions_on_domain(draw):
    """A piecewise polynomial on DOMAIN with random rational breakpoints."""
    interior = draw(st.sets(inside, max_size=4)) - set(DOMAIN)
    breaks = sorted(interior | set(DOMAIN))
    pieces = [draw(st.lists(rationals, min_size=1, max_size=3)) for _ in breaks[1:]]
    return PiecewisePoly.from_pieces(breaks, pieces)


def _off_break_points(draw, funcs):
    """Points strictly inside DOMAIN that are no breakpoint of any function."""
    breaks = set().union(*(f.breaks for f in funcs))
    return draw(st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=7).filter(lambda t: t not in breaks),
        min_size=1, max_size=4,
    ))


@st.composite
def supported_stencils(draw, max_n=6, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    far_left = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))  # b_{-N}, ..., b_{-2}
    coeffs = far_left + [draw(nonzero)] + [Fraction(0)] * n + [draw(nonzero)]
    return Stencil.from_coeffs(coeffs)


@st.composite
def stencil_and_data(draw):
    """A supported stencil and a piecewise polynomial w on (0, N+1).

    w breaks at every integer node and at one off-node point, so the inverse
    mixes unit components with different piece structures.
    """
    stencil = draw(supported_stencils(max_n=4))
    n = stencil.N
    cut = draw(st.integers(min_value=0, max_value=n)) + Fraction(draw(st.integers(1, 4)), 5)
    breaks = sorted({Fraction(i) for i in range(n + 2)} | {cut})
    pieces = [draw(st.lists(rationals, min_size=1, max_size=3)) for _ in breaks[1:]]
    return stencil, PiecewisePoly.from_pieces(breaks, pieces)


# -- the fraction-free elimination kernel ----------------------------------------


def _reference_det(a):
    """Determinant by plain Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return result


def _reference_rref(a):
    """Reduced row echelon form by plain Fraction Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_null_basis(red, pivots, cols):
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def _reference_nullspace(a):
    """Basis of the right null space of a, one vector per free column of the reference RREF."""
    return _reference_null_basis(*_reference_rref(a), len(a[0]))


def _reference_left_nullspace(a):
    return _reference_nullspace([list(col) for col in zip(*a)])


def _all_fractions(*values):
    """Every leaf of nested lists and tuples is exactly a Fraction."""
    for value in values:
        if isinstance(value, (list, tuple)):
            if not _all_fractions(*value):
                return False
        elif type(value) is not Fraction:
            return False
    return True


def peval(c, x):
    """Fraction Horner on a coefficient tuple."""
    out = Fraction(0)
    for coef in reversed(c):
        out = out * x + coef
    return out


def pder(c):
    """The derivative of a coefficient tuple, in Fractions."""
    return ptrim([c[d] * d for d in range(1, len(c))]) if len(c) > 1 else (Fraction(0),)


def pscale(a, s):
    """A coefficient tuple times s, in Fractions."""
    return ptrim([s * x for x in a])


def padd(a, b):
    """The sum of two coefficient tuples, in Fractions."""
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0)) for i in range(n)])


def pmul(a, b):
    """The product of two coefficient tuples, in Fractions."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def _coeffs(form):
    """The Fraction coefficients of a stored form."""
    nums, den = form
    return tuple(Fraction(n, den) for n in nums)


def pint(c, const):
    """The antiderivative of a coefficient tuple with constant term const, in Fractions."""
    return ptrim([const] + [c[d] / (d + 1) for d in range(len(c))])


entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def matrices(draw, square=False):
    """Tall, wide or square rational matrices with structure: zero rows and
    columns, repeated rows and rows that combine two earlier ones."""
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = rows if square else draw(st.integers(min_value=1, max_value=6))
    m = []
    for i in range(rows):
        kind = draw(st.sampled_from(("free", "free", "zero", "copy", "combination")))
        if kind == "zero":
            m.append([Fraction(0)] * cols)
        elif kind == "copy" and m:
            m.append(list(draw(st.sampled_from(m))))
        elif kind == "combination" and len(m) >= 2:
            s, t = draw(entries), draw(entries)
            u, w = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            m.append([s * x + t * y for x, y in zip(u, w)])
        else:
            m.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    for c in draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0)), max_size=2)):
        for row in m:
            if c < len(row):
                row[c] = Fraction(0)
    return m


@SETTINGS
@given(matrices())
def test_rref_rank_and_nullspace_equal_the_fraction_reference(a):
    red, pivots = exactla.rref(a)
    assert (red, pivots) == _reference_rref(a)
    assert _all_fractions(red)
    if a:
        assert exactla.rank(a) == len(pivots)
    if a and len(a[0]) == 2:
        null = exactla.TwoColumnSystem(a).right_null
        assert [list(v) for v in null] == _reference_null_basis(red, pivots, 2)
        assert _all_fractions(null)


def _from_sympy(vectors):
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in vectors]


@st.composite
def two_column_systems(draw):
    """An m x 2 block, m = 1..20, a point d and a right side.

    The block has rank 0, 1 or 2: zero rows, copies of earlier rows,
    multiples of one drawn row and free rows, and sometimes a zero first
    column.  Blocks of zero rows, or of zero rows, copies and multiples only,
    keep ranks 0 and 1 frequent, and blocks mostly of free rows rank 2.
    """
    m = draw(st.integers(min_value=1, max_value=20))
    kinds = draw(st.sampled_from((
        ("zero",), ("zero", "copy", "multiple"), ("zero", "copy", "multiple", "free"), ("copy", "free", "free"),
    )))
    line = draw(st.lists(entries, min_size=2, max_size=2).filter(any))
    block = []
    for _ in range(m):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            block.append([Fraction(0), Fraction(0)])
        elif kind == "copy" and block:
            block.append(list(draw(st.sampled_from(block))))
        elif kind in ("copy", "multiple"):
            c = draw(entries)
            block.append([c * line[0], c * line[1]])
        else:
            block.append(draw(st.lists(entries, min_size=2, max_size=2)))
    if draw(st.sampled_from((False, False, True))):
        for row in block:
            row[0] = Fraction(0)
    return block, draw(st.lists(entries, min_size=2, max_size=2)), draw(st.lists(entries, min_size=m, max_size=m))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(two_column_systems())
@example(([[Fraction(0), Fraction(0)]] * 3, [Fraction(1), Fraction(2)], [Fraction(0), Fraction(1), Fraction(0)]))
@example(([[Fraction(0), Fraction(2)], [Fraction(0), Fraction(-1, 3)]], [Fraction(3), Fraction(-1)], [Fraction(2), Fraction(1)]))
@example((
    [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]],
    [Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2), Fraction(5)],
))
def test_two_column_system_equals_sympy(case):
    # rank, both null bases in sympy's RREF basis, and the least-norm solution pinv(A) b
    block, d, rhs = case
    system = exactla.TwoColumnSystem(block)
    a = sp.Matrix(block)
    assert system.rank == a.rank()
    assert all(type(den) is int and den > 0 and all(type(x) is int for x in nums) for nums, den in system.left_null)
    assert [[Fraction(n, den) for n in nums] for nums, den in system.left_null] == _from_sympy(a.T.nullspace())
    assert [list(v) for v in system.right_null] == _from_sympy(a.nullspace())
    assert _all_fractions(system.right_null)
    consistent = [row[0] * d[0] + row[1] * d[1] for row in block]
    best = system.least_norm(consistent)
    assert list(best) == _from_sympy([a.pinv() * sp.Matrix(consistent)])[0]
    assert _all_fractions(best)
    if a.rank() < sp.Matrix.hstack(a, sp.Matrix(rhs)).rank():
        assert system.least_norm(rhs) is None
    else:
        assert list(system.least_norm(rhs)) == _from_sympy([a.pinv() * sp.Matrix(rhs)])[0]


@st.composite
def shuffled_triangular(draw):
    """A nonsingular upper triangular matrix with its rows shuffled, so the
    elimination must swap rows and the determinant's sign depends on it."""
    n = draw(st.integers(min_value=2, max_value=6))
    diagonal = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda x: x != 0)
    rows = [[Fraction(0)] * i + [draw(diagonal)] + draw(st.lists(entries, min_size=n - i - 1, max_size=n - i - 1))
            for i in range(n)]
    return draw(st.permutations(rows))


@SETTINGS
@given(st.one_of(matrices(square=True), shuffled_triangular()))
def test_det_and_invert_equal_the_fraction_reference(a):
    d = exactla.det(a)
    assert type(d) is Fraction
    assert d == _reference_det(a)
    n = len(a)
    red, pivots = _reference_rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    if d == 0:
        with pytest.raises(ValueError):
            exactla.invert(a)
    else:
        inverse = exactla.invert(a)
        assert inverse == [row[n:] for row in red]
        assert _all_fractions(inverse)


def _assert_integer_inverse(a, rows, d):
    """a * (rows / d) = I, read as a * rows = d * I in exact arithmetic, with d a positive int."""
    n = len(a)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in rows for x in row)
    product = [[sum((a[i][j] * rows[j][c] for j in range(n)), Fraction(0)) for c in range(n)] for i in range(n)]
    assert product == [[d * (i == c) for c in range(n)] for i in range(n)]


@SETTINGS
@given(st.one_of(matrices(square=True), shuffled_triangular()))
def test_integer_inverse_is_the_inverse_times_a_positive_denominator(a):
    rows = [exactla.integer_numerators(row)[0] for row in a]  # a with each row scaled to integers
    det, inverse, d = exactla.integer_inverse(rows)
    assert type(det) is int and det == _reference_det(rows)
    if det == 0:
        assert (inverse, d) == ([], 1)
    else:
        _assert_integer_inverse(rows, inverse, d)


wide_regime_stencils = st.tuples(st.integers(min_value=1, max_value=8), st.booleans()).map(
    lambda drawn: _wide_regime_stencil(*drawn)
)


@SETTINGS
@given(st.one_of(wide_regime_stencils, supported_stencils()))
def test_r1_numerators_and_the_determinants_equal_the_fraction_reference(stencil):
    rows, den = stencil.r1_numerators
    assert type(den) is int and den > 0 and all(type(x) is int for row in rows for x in row)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == stencil.r1
    n = stencil.N
    assert stencil.det_r1 == _reference_det(stencil.r1)
    assert stencil.det_r2 == _reference_det([row[:n] for row in stencil.r1[:n]])
    assert _all_fractions(stencil.det_r1, stencil.det_r2)


def _assert_the_elimination_equals_the_references(stencil):
    """det R1, det R2 and the regime against Fraction elimination, R1^-1 against ``exactla.invert``."""
    n = stencil.N
    r1 = [list(row) for row in stencil.r1]
    det_r1, det_r2 = _reference_det(r1), _reference_det([row[:n] for row in r1[:n]])
    assert (stencil.det_r1, stencil.det_r2) == (det_r1, det_r2)
    assert _all_fractions(stencil.det_r1, stencil.det_r2)
    if det_r1 == 0:
        regime = Regime.SINGULAR_FULL
    else:
        regime = Regime.SINGULAR_MINOR if det_r2 == 0 else Regime.NONSINGULAR_BOTH
    assert stencil.regime is regime
    det, inverse, d = stencil.r1_elimination
    rows, den = stencil.r1_numerators
    assert det == _reference_det(rows) == det_r1 * den ** (n + 1)
    if det_r1 == 0:
        assert (inverse, d) == ((), 1)
        with pytest.raises(ValueError, match="singular"):
            exactla.invert(r1)
    else:
        assert d > 0 and math.gcd(d, *(x for row in inverse for x in row)) == 1
        assert [[Fraction(x, d) for x in row] for row in inverse] == exactla.invert(r1)
    return regime


def test_one_elimination_on_the_n1_box_gives_every_regime_exactly():
    regimes = [
        _assert_the_elimination_equals_the_references(Stencil.from_coeffs(b))
        for b in itertools.product(range(-3, 4), repeat=3)
    ]
    assert set(regimes) == set(Regime)


any_stencils = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(rationals, min_size=2 * n + 1, max_size=2 * n + 1)
).map(Stencil.from_coeffs)


@SETTINGS
@given(st.one_of(any_stencils, supported_stencils(max_n=5)))
@example(Stencil.from_coeffs((1, 2, 3, 4, 5)))  # det R1 = 0, det R2 = 1
@example(Stencil.from_coeffs((1, 1, 1, 1, 1)))  # det R1 = det R2 = 0
@example(Stencil.from_coeffs((-1, -1, -1, 1, -1, 0, 1)))  # det R1 = 0, det R2 = -2
@example(Stencil.from_coeffs((1, 0, 0, 2, 0, 0, 1)))  # det R1 = 12, det R2 = 8
@example(Stencil.from_coeffs((Fraction(1, 3), 0, -2, 1, Fraction(3, 4), 0, 5)))
def test_one_elimination_gives_the_determinants_the_regime_and_r1_inverse(stencil):
    _assert_the_elimination_equals_the_references(stencil)


def _gauss_jordan_inverse(rows):
    """The Gauss-Jordan ``integer_inverse`` that the forward pass replaced, kept as the reference:
    ``_eliminate`` on [rows | I] leaves the signed last pivot d on the diagonal and d times
    the inverse in the right half, whose sign and common gcd are divided out."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, sign = exactla._eliminate(m)
    if pivots[:n] != list(range(n)):
        return 0, [], 1
    d = m[0][0] if n else 1
    g = math.gcd(d, *(x for row in m for x in row[n:]))
    if d < 0:
        g = -g
    return sign * d, [[x // g for x in row[n:]] for row in m], d // g


# mostly zeros, so that leading minors of T (and T itself) are often singular
sparse_stencils = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, Fraction(1, 2))), min_size=2 * n + 1, max_size=2 * n + 1)
).map(Stencil.from_coeffs)


@SETTINGS
@given(st.one_of(sparse_stencils, wide_regime_stencils, supported_stencils(max_n=8)))
@example(Stencil.from_coeffs((1, 0, 1)))  # T = [[0, 1], [1, 0]]: one row swap, det T = -1
@example(Stencil.from_coeffs((1, 1, 1)))  # singular T, det R2 = 1
@example(Stencil.from_coeffs((1, 0, 0, 0, 0)))  # singular T and R2
@example(Stencil.from_coeffs((0, 1, 0, 0, 0, 0, 1)))  # b_0 = b_1 = 0: swaps at two steps
def test_the_forward_pass_equals_the_gauss_jordan_reference(stencil):
    n = stencil.N
    rows, den = stencil.r1_numerators
    r2 = [row[:n] for row in rows[:n]]
    forward = exactla.ForwardPass(rows)
    det, inverse, d = _gauss_jordan_inverse(rows)
    det_r2 = _gauss_jordan_inverse(r2)[0]
    assert forward.det == det
    assert forward.inverse() == (det, inverse, d)
    assert forward.rows is None  # back substitution releases the pass
    assert exactla.integer_inverse(rows) == (det, inverse, d)
    assert exactla.integer_det(rows) == det and exactla.integer_det(r2) == det_r2
    if det:
        assert forward.leading_minor == det_r2
    else:
        with pytest.raises(ValueError, match="nonsingular"):
            forward.leading_minor
    assert (stencil.det_r1, stencil.det_r2) == (Fraction(det, den ** (n + 1)), Fraction(det_r2, den ** n))


@SETTINGS
@given(st.one_of(wide_regime_stencils, supported_stencils()))
def test_the_report_stores_r1_inverse_over_one_positive_denominator(stencil):
    report = analyze(stencil)
    _assert_integer_inverse([list(row) for row in stencil.r1], report.inverse, report.inverse_den)
    assert report.r1_inverse == tuple(tuple(row) for row in exactla.invert([list(row) for row in stencil.r1]))
    assert _all_fractions(report.r1_inverse)


@SETTINGS
@given(matrices(square=True).filter(lambda a: a), st.data())
def test_a_float_entry_is_refused(a, data):
    i = data.draw(st.integers(min_value=0, max_value=len(a) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(a) - 1))
    a[i][j] = float(a[i][j]) + 0.5
    for call in (exactla.det, exactla.rref, exactla.rank, exactla.invert):
        with pytest.raises(TypeError):
            call(a)


# -- the closed-form Hermite basis -------------------------------------------------


def _reference_hermite(left, right):
    """The 2r x 2r system the closed form replaced: prescribed derivatives at 0 and 1."""
    count = len(left)
    rows = [[Fraction(math.factorial(mu) * (d == mu)) for d in range(2 * count)] for mu in range(count)]
    rows += [[Fraction(math.perm(d, mu)) for d in range(2 * count)] for mu in range(count)]
    return ptrim(_from_sympy([sp.Matrix(rows).LUsolve(sp.Matrix(list(left) + list(right)))])[0])


def pjet(c, x, count):
    """[p(x), p'(x), ..., p^(count-1)(x)]: the integer Taylor jet of ``_jet_at`` times mu!, as Fractions."""
    nums, den = _jet_at(exactla.integer_numerators(c), *Fraction(x).as_integer_ratio(), count)
    return [Fraction(math.factorial(k) * n, den) for k, n in enumerate(nums)]


def _taylor(derivatives):
    """The integer Taylor jet of derivative values: x / mu! as integers over their lcm."""
    nums, den = exactla.integer_numerators([Fraction(x) / math.factorial(mu) for mu, x in enumerate(derivatives)])
    return tuple(nums), den


def _reference_two_point_hermite(left, right):
    """The Fraction-jet construction the integer one replaced: derivative jets,
    each entry divided by mu! into a Fraction, then put over the lcm."""
    if len(left) != len(right):
        raise ValueError("end jets must have equal length")
    count = len(left)
    weights = [Fraction(x) / math.factorial(mu) for jet in (left, right) for mu, x in enumerate(jet)]
    scales, den = exactla.integer_numerators(weights)
    acc = [0] * (2 * count)
    for scale, poly in zip(scales, _hermite_basis(count)):
        if scale:
            for d, c in enumerate(poly):
                acc[d] += scale * c
    return _form(acc, den)


@st.composite
def taylor_jet_pairs(draw):
    """Two derivative jets of one length 0..8 (zero, or mixed-sign rationals) and their
    integer Taylor forms, each over its own multiple of its lcm, so the dens differ and
    share factors."""
    count = draw(st.integers(min_value=0, max_value=8))
    jet = st.one_of(st.just([Fraction(0)] * count), st.lists(entries, min_size=count, max_size=count))
    out = []
    for _ in range(2):
        derivatives = draw(jet)
        nums, den = _taylor(derivatives)
        m = draw(st.sampled_from((1, 2, 3, 4, 6, 12, 35)))
        out += [derivatives, (tuple(n * m for n in nums), den * m)]
    return out


@SETTINGS
@given(taylor_jet_pairs())
def test_integer_two_point_hermite_equals_the_fraction_jet_construction(pair):
    left, left_form, right, right_form = pair
    form = two_point_hermite(left_form, right_form)
    assert form == _reference_two_point_hermite(left, right)
    assert _is_canonical(form)
    longer = (left_form[0] + (1,), left_form[1])
    with pytest.raises(ValueError):
        two_point_hermite(longer, right_form)
    with pytest.raises(ValueError):
        _reference_two_point_hermite(left + [Fraction(1)], right)


@SETTINGS
@given(st.integers(min_value=1, max_value=12), st.data())
def test_hermite_basis_equals_the_linear_system(count, data):
    jet = st.lists(entries, min_size=count, max_size=count)
    left, right = data.draw(jet), data.draw(jet)
    form = two_point_hermite(_taylor(left), _taylor(right))
    h = _coeffs(form)
    assert h == _reference_hermite(left, right)
    assert _is_canonical(form) and len(h) <= 2 * count
    assert pjet(h, Fraction(0), count) == left
    assert pjet(h, Fraction(1), count) == right


@SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_hermite_interpolant_matches_every_node_jet(r, length, data):
    jets = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=length + 1, max_size=length + 1))
    f = hermite_interpolant([_taylor(jet) for jet in jets])
    assert f.breaks == tuple(range(length + 1)) and _all_fractions(f.breaks)
    assert all(_is_canonical(form) for form in f.forms)
    assert [f.trace(0, mu, 1) for mu in range(r)] == jets[0]
    assert [f.trace(length, mu, -1) for mu in range(r)] == jets[-1]
    for node in range(1, length):
        assert [f.trace(node, mu, -1) for mu in range(r)] == jets[node]
        assert [f.trace(node, mu, 1) for mu in range(r)] == jets[node]
    assert not smoothness_defects(f, r)


@SETTINGS
@given(supported_stencils())
def test_cofactor_from_adjugate_equals_signed_minor_determinant(stencil):
    r1 = stencil.r1
    size = stencil.N + 1
    for i in range(1, size + 1):
        for k in range(1, size + 1):
            minor = [[r1[r][c] for c in range(size) if c != k - 1] for r in range(size) if r != i - 1]
            sign = -1 if (i + k) % 2 else 1
            assert cofactor(stencil, i, k) == sign * exactla.det(minor)


@st.composite
def dependent_stencils(draw, max_n=4, min_n=1):
    """Supported stencils whose clipped end columns are dependent, for N >= 1.

    A drawn z != 0 is put in the null space of R2 (R2 z = 0 is linear in the
    entries b_{1-N}..b_{N-1}), and b_{-j} = lam * b_{N+1-j} for j = 1..N makes
    the end columns proportional.  The entries are a random element of the
    solution space of those 2N linear equations in 2N+1 unknowns; leading
    zeros of z spread the admissible column l over 1..N.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    z = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n).filter(any))
    lam = draw(nonzero)
    rows = []
    for i in range(1, n + 1):  # (R2 z)_i = sum_k b_{k-i} z_k; unknown b_j sits at j + n
        row = [Fraction(0)] * (2 * n + 1)
        for k in range(1, n + 1):
            row[k - i + n] += z[k - 1]
        rows.append(row)
    for j in range(1, n + 1):
        row = [Fraction(0)] * (2 * n + 1)
        row[n - j] += 1
        row[2 * n + 1 - j] -= lam
        rows.append(row)
    basis = _reference_null_basis(*_reference_rref(rows), 2 * n + 1)
    weights = draw(st.lists(nonzero, min_size=len(basis), max_size=len(basis)))
    coeffs = [sum((w * v[i] for w, v in zip(weights, basis)), Fraction(0)) for i in range(2 * n + 1)]
    stencil = Stencil.from_coeffs(coeffs)
    assume(stencil.det_r1 != 0)
    return stencil


def _reference_admissible_column(stencil, m):
    """Smallest l whose minor of R2 without row m and column l is nonzero."""
    n = stencil.N
    r2 = [[stencil.b(k - i) for k in range(1, n + 1)] for i in range(1, n + 1)]
    for cand in range(1, n + 1):
        sub = [[x for c, x in enumerate(row) if c != cand - 1] for r, row in enumerate(r2) if r != m - 1]
        if _reference_det(sub) != 0:  # the 0 x 0 minor of N = 1 is 1
            return cand
    return None


@SETTINGS
@given(dependent_stencils())
def test_admissible_column_equals_the_minor_search(stencil):
    report = analyze(stencil)
    assert report.ends.dependent
    assert report.ends.l == _reference_admissible_column(stencil, report.gamma.m)


def _assert_gamma_identities(report):
    """The relations analyze reads off R1^-1 satisfy the systems they solve."""
    s = report.stencil
    n = s.N
    gamma = report.gamma
    assert gamma.variant == "right_edge"
    assert 1 <= gamma.m <= n

    # interior: row m of R2 is the gamma2-combination of the other rows
    r2 = [list(row[:n]) for row in s.r1[:n]]
    for col in range(n):
        combo = sum(gamma.gamma2[i] * r2[i - 1][col] for i in gamma.gamma2)
        assert combo == r2[gamma.m - 1][col]

    # edge: last row of R1 without its last entry expands in the rows
    # with first entry removed, skipping row m+1
    for col in range(1, n + 1):
        combo = sum(gamma.gamma1[i] * s.b(col + 1 - i) for i in gamma.gamma1)
        assert combo == s.b(col - n - 1)
    assert set(gamma.gamma1) == {i for i in range(1, n + 2) if i != gamma.m + 1}

    # mirrored edge: first row without first entry, rows clipped at the end
    alt = report.alt_gamma
    assert alt.variant == "left_edge"
    assert alt.m == gamma.m and alt.gamma2 == gamma.gamma2
    for col in range(2, n + 2):
        combo = sum(alt.gamma1[i] * s.b(col - 1 - i) for i in alt.gamma1)
        assert combo == s.b(col - 1)
    assert set(alt.gamma1) == {i for i in range(1, n + 2) if i != alt.m}

    # m is the first nonzero index of the left null vector of R2, found by elimination
    (c,) = _reference_left_nullspace(r2)
    assert gamma.m == next(i for i, x in enumerate(c, start=1) if x)


@SETTINGS
@given(st.one_of(dependent_stencils(max_n=6), supported_stencils()))
@example(Stencil.from_coeffs((1, 0, 1)))
@example(Stencil.from_coeffs((0, 1, 1, 1, 2)))
@example(Stencil.from_coeffs((1, 1, 2, 4, 4)))
def test_gamma_relations_satisfy_their_defining_matrix_identities(stencil):
    _assert_gamma_identities(analyze(stencil))


@SETTINGS
@given(st.one_of(dependent_stencils(max_n=6), supported_stencils()))
def test_end_column_pair_has_nullity_at_most_one(stencil):
    # nullity 2 means both clipped end columns are zero: b_0 alone, so det R2 = b_0^N = 0 would force det R1 = 0
    ends = analyze(stencil).ends
    null = exactla.TwoColumnSystem(list(zip(ends.first_inner, ends.last_inner))).right_null
    assert len(null) == (1 if ends.dependent else 0)


def _wide_regime_stencil(n, dependent):
    """b_0 = ... = b_{N-1} = 0 and b_{-1}, b_N != 0 put the stencil in the regime;
    the end columns are dependent exactly when b_{-2} = ... = b_{-N} = 0."""
    far_left = [0] * (n - 1) if dependent else [(-1) ** j * (j % 3 + 1) for j in range(n - 1)]
    return Stencil.from_coeffs(far_left + [3] + [0] * n + [-2])


@pytest.mark.parametrize("dependent", (False, True))
@pytest.mark.parametrize("n", (8, 16, 32, 64))
def test_gamma_relations_hold_on_wide_stencils(n, dependent):
    report = analyze(_wide_regime_stencil(n, dependent))
    assert report.ends.dependent is dependent
    _assert_gamma_identities(report)
    if dependent:
        n = report.stencil.N
        block = [list(row[:n]) for r, row in enumerate(report.stencil.r1[:n]) if r != report.gamma.m - 1]
        (z,) = _reference_nullspace(block)
        assert report.ends.l == next(j for j, x in enumerate(z, start=1) if x)


@pytest.mark.parametrize("dependent", (False, True))
def test_analyze_runs_two_eliminations(monkeypatch, dependent):
    # one forward pass of [T | I], whose pivots give both determinants, its back
    # substitution for R1^-1, and the N x 2 end-column pair
    forward, back, system = exactla._forward, exactla._back_substitute, exactla.TwoColumnSystem
    passes, solves, pairs = [], [], []
    monkeypatch.setattr(exactla, "_forward", lambda m, n: passes.append([n, len(m[0])]) or forward(m, n))
    monkeypatch.setattr(exactla, "_back_substitute", lambda m, n: solves.append(n) or back(m, n))
    monkeypatch.setattr(exactla, "TwoColumnSystem", lambda block: pairs.append(len(block)) or system(block))
    report = analyze(_wide_regime_stencil(8, dependent))
    assert report.ends.dependent is dependent
    assert (passes, solves, pairs) == ([[9, 18]], [9], [8])


# -- the kernel certificate and the boundary rank ------------------------------------


def _reference_kernel_certificate(structure):
    """(rank, conditions, matrix) from the preimages R^-1 1 and R^-1 t as piecewise
    polynomials: their traces at both ends, then their jumps of orders 0 and 1 at
    every node."""
    n = structure.stencil.N
    v_one = apply_difference_inverse(structure, PiecewisePoly.constant(1, 0, n + 1))
    v_lin = apply_difference_inverse(structure, PiecewisePoly.from_global((0, 1), (0, n + 1)))
    conditions = ["trace at 0", "trace at %d" % (n + 1)]
    matrix = [(v_one.trace(0, 0, 1), v_lin.trace(0, 0, 1)), (v_one.trace(n + 1, 0, -1), v_lin.trace(n + 1, 0, -1))]
    for node in range(1, n + 1):
        for mu in (0, 1):
            conditions.append("jump at %d, order %d" % (node, mu))
            matrix.append((v_one.jump(node, mu), v_lin.jump(node, mu)))
    return exactla.rank(matrix), tuple(conditions), tuple(matrix)


def _assert_certificate_equals_the_reference(stencil):
    structure = analyze(stencil)
    cert = kernel_certificate(structure)
    rank, conditions, matrix = _reference_kernel_certificate(structure)
    assert cert.rank == rank == 2
    assert cert.dim_kernel == 0
    assert cert.conditions == conditions
    assert cert.matrix == matrix
    assert _all_fractions(cert.matrix)


@SETTINGS
@given(st.one_of(dependent_stencils(max_n=6), supported_stencils()))
@example(Stencil.from_coeffs((1, 0, -1)))
@example(Stencil.from_coeffs((0, 1, 1, 1, 2)))
def test_kernel_certificate_equals_the_preimage_construction(stencil):
    _assert_certificate_equals_the_reference(stencil)


@pytest.mark.parametrize("dependent", (False, True))
@pytest.mark.parametrize("n", (8, 16, 24))
def test_kernel_certificate_equals_the_preimage_construction_on_wide_stencils(n, dependent):
    _assert_certificate_equals_the_reference(_wide_regime_stencil(n, dependent))


def _boundary_rank_from_the_inverse_sum(stencil):
    """The boundary matrix has rank 1 exactly when the entries of R1^-1 sum to 0, else rank 2."""
    structure = stencil.structure
    rank = exactla.rank(boundary_matrix(structure))
    assert rank == (1 if sum(map(sum, structure.inverse)) == 0 else 2)
    return rank


@pytest.mark.parametrize("n, bound", ((1, 3), (2, 2)))
def test_boundary_rank_is_one_exactly_when_the_inverse_sums_to_zero_on_a_box(n, bound):
    ranks = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=2 * n + 1):
        stencil = Stencil.from_coeffs(coeffs)
        if stencil.regime is Regime.SINGULAR_MINOR:
            ranks.add(_boundary_rank_from_the_inverse_sum(stencil))
    assert ranks == {1, 2}


@SETTINGS
@given(st.one_of(dependent_stencils(min_n=3, max_n=4), supported_stencils(min_n=3, max_n=4)))
@example(Stencil.from_coeffs((-3, -3, -3, 0, 0, 0, 3)))
@example(Stencil.from_coeffs((-2, -2, -2, -2, 0, 0, 0, 0, 2)))
def test_boundary_rank_is_one_exactly_when_the_inverse_sums_to_zero(stencil):
    _boundary_rank_from_the_inverse_sum(stencil)


def test_the_boundary_rank_readers_agree_on_the_box(tmp_path, capsys):
    # analyze's line, the solve, index_report and criterion 6's counts each read
    # the rank of the 2 x 2 boundary matrix; the general elimination is the reference
    box = (Stencil.from_coeffs(c) for c in itertools.product(range(-BOX_BOUND, BOX_BOUND + 1), repeat=3))
    stencils = [s for s in box if s.regime is Regime.SINGULAR_MINOR]
    path = tmp_path / "problem.json"
    ranks = {}
    for stencil in stencils:
        expected = ranks[stencil.coeffs] = exactla.rank(boundary_matrix(stencil.structure))
        problem = BVPProblem(stencil=stencil, k=0, f0=PiecewisePoly.constant(1, 0, 2))
        assert solve_nonhomogeneous(problem).boundary_rank == expected, stencil
        assert index_report(problem).boundary_rank == expected, stencil
        doc = {"N": 1, "b": [str(b) for b in stencil.coeffs], "k": 0, "f0": [{"interval": [0, 2], "coeffs": [1]}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["analyze", str(path)]) == 0
        assert "\nboundary matrix rank: %d\n" % expected in capsys.readouterr().out, stencil
    assert all(ranks[coeffs] == 1 for coeffs in RANK_DEFICIENT)  # the rank-1 stencils of RANK_DEFICIENT lie in the box
    counts = {rank: list(ranks.values()).count(rank) for rank in (2, 1)}
    assert "rank counts %s;" % counts in check_boundary_rank_cases().detail


@pytest.mark.parametrize("k", (0, 2))
def test_the_zero_trace_block_opens_with_the_boundary_matrix(monkeypatch, k):
    wide = tuple(_wide_regime_stencil(n, dependent) for n in (8, 24) for dependent in (False, True))
    for stencil in POOL + wide:
        problem = BVPProblem(stencil=stencil, k=k, f0=PiecewisePoly.constant(1, 0, stencil.N + 1))
        zero_trace, _ = problem.constraints
        matrix = boundary_matrix(stencil.structure)
        assert [list(row) for row in zero_trace.block[:2]] == matrix
        # index_report reads the rank off the block, building no functional of its own
        monkeypatch.setattr("ddbvp.solver.membership_functionals", None)
        assert index_report(problem).boundary_rank == exactla.rank(matrix)
        monkeypatch.undo()


@SETTINGS
@given(stencil_and_data())
def test_difference_operator_undoes_its_inverse_exactly(case):
    stencil, w = case
    assert apply_difference(stencil, apply_difference_inverse(analyze(stencil), w)).same(w)


@st.composite
def off_node_functions(draw, start, stop):
    """A function on (start, stop) breaking at some integer nodes and off them.

    At least one breakpoint is off the integer nodes, so the unit pieces of
    the function have different partitions.
    """
    nodes = draw(st.sets(st.integers(min_value=start + 1, max_value=stop - 1)))
    cuts = draw(st.sets(st.fractions(min_value=start, max_value=stop, max_denominator=5), max_size=4))
    cuts.add(draw(st.integers(min_value=start, max_value=stop - 1)) + Fraction(draw(st.integers(1, 4)), 5))
    breaks = sorted(nodes | cuts | {start, stop})
    pieces = [draw(nonzero_polys) for _ in breaks[1:]]
    return PiecewisePoly.from_pieces(breaks, pieces)


def _reference_shifted_sum(stencil, y):
    """sum_j b_j y(t + j) as a sum of shifted and restricted copies of y."""
    n = stencil.N
    window = [(stencil.b(j), y.shifted(-j).restricted(0, n + 1)) for j in range(-n, n + 1) if stencil.b(j)]
    return linear_combination([(0, PiecewisePoly.zero(0, n + 1))] + window)


def _reference_difference_inverse(structure, w):
    """Cut w into unit pieces moved to (0, 1), align them, and paste back the rows of R1^-1 times them."""
    n = structure.stencil.N
    units = align_many([w.restricted(k, k + 1).shifted(-k) for k in range(n + 1)])
    return concat([linear_combination(zip(row, units)).shifted(i) for i, row in enumerate(structure.r1_inverse)])


@SETTINGS
@given(st.data())
def test_shifted_sum_equals_the_sum_of_shifted_copies(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    stencil = Stencil.from_coeffs(data.draw(st.lists(st.one_of(st.just(0), rationals), min_size=2 * n + 1, max_size=2 * n + 1)))
    y = data.draw(off_node_functions(-n, 2 * n + 1))
    got = apply_shifted_sum(stencil, y)
    assert got.same(_reference_shifted_sum(stencil, y))
    assert _all_fractions(got.breaks, got.pieces)


@SETTINGS
@given(supported_stencils(max_n=4), st.data())
def test_difference_inverse_equals_the_unit_row_sums(stencil, data):
    structure = analyze(stencil)
    w = data.draw(off_node_functions(0, stencil.N + 1))
    got = apply_difference_inverse(structure, w)
    expected = _reference_difference_inverse(structure, w)
    assert (got.breaks, got.pieces) == (expected.breaks, expected.pieces)
    assert _all_fractions(got.breaks, got.pieces)


@SETTINGS
@given(st.data())
def test_linear_combination_sums_values_on_the_union_of_breakpoints(data):
    terms = data.draw(st.lists(st.tuples(rationals, functions_on_domain()), min_size=1, max_size=4))
    combo = linear_combination(terms)
    assert combo.breaks == tuple(sorted(set().union(*(f.breaks for _, f in terms))))
    for t in _off_break_points(data.draw, [f for _, f in terms]):
        assert combo.value(t) == sum(c * f.value(t) for c, f in terms)


@SETTINGS
@given(st.data())
def test_refined_keeps_the_function_and_every_unsplit_piece(data):
    f = data.draw(functions_on_domain())
    points = data.draw(st.lists(inside, max_size=4))
    g = f.refined(points)
    assert g.same(f)
    assert g.breaks == tuple(sorted(set(f.breaks) | set(points)))
    if set(points) <= set(f.breaks):
        assert g is f
    for lo, piece in zip(g.breaks, g.pieces):
        if lo in f.breaks:
            assert piece == f.pieces[f.breaks.index(lo)]


@st.composite
def extension_problems(draw):
    """A supported stencil with nonzero extension data f1, f2 and k <= 2."""
    stencil, f0 = draw(stencil_and_data())
    return BVPProblem(
        stencil=stencil,
        k=draw(st.integers(min_value=0, max_value=2)),
        f0=f0,
        f1=tuple(draw(nonzero_polys)),
        f2=tuple(draw(nonzero_polys)),
    )


@SETTINGS
@given(extension_problems())
def test_solution_extension_satisfies_the_equation_exactly(problem):
    family = solve_nonhomogeneous(problem)
    if family.v is None:
        return
    y = family.extension
    assert all(y.jump(t, 0) == 0 for t in y.breaks[1:-1])
    w = apply_shifted_sum(problem.stencil, y)
    assert (w.start, w.end) == (0, problem.stencil.N + 1)
    assert all(w.jump(t, mu) == 0 for t in w.breaks[1:-1] for mu in (0, 1))
    assert w.derivative(2).scaled(-1).same(problem.f0)


@st.composite
def sampled_functions(draw):
    """A piecewise polynomial of degree <= 8 on (-1, 3) with fractional breaks,
    and a sorted list of points in [-1, 3), some of them on breakpoints."""
    domain = {Fraction(-1), Fraction(3)}
    interior = draw(st.sets(st.fractions(min_value=-1, max_value=3, max_denominator=12), max_size=5)) - domain
    breaks = sorted(interior | domain)
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    f = PiecewisePoly.from_pieces(breaks, [draw(st.lists(coeffs, min_size=1, max_size=9)) for _ in breaks[1:]])
    points = draw(st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=60), max_size=12))
    points += draw(st.lists(st.sampled_from(breaks[:-1]), max_size=4))
    return f, sorted(t for t in points if t < 3)


@st.composite
def sampled_progressions(draw):
    """A function of ``sampled_functions`` and a progression (start, step, count) inside [-1, 3).

    The start is a breakpoint or a drawn point, and the step a drawn rational
    or the distance to a later breakpoint over a small integer, so that the
    progression lands on that breakpoint.
    """
    f, _ = draw(sampled_functions())
    breaks = f.breaks
    start = draw(st.one_of(st.sampled_from(breaks[:-1]), st.fractions(min_value=-1, max_value=3, max_denominator=60)))
    assume(start < 3)
    later = [b for b in breaks if b > start]
    step = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 60), max_value=5, max_denominator=60),
        st.tuples(st.sampled_from(later), st.integers(min_value=1, max_value=7)).map(lambda bm: (bm[0] - start) / bm[1]),
    ))
    inside = -((start - 3) // step)  # the points start + i * step < 3
    return f, start, step, draw(st.integers(min_value=0, max_value=min(inside, 120)))


@SETTINGS
@given(sampled_progressions())
def test_sample_is_the_correctly_rounded_right_limit(case):
    f, start, step, count = case
    expected = [float(f.trace(start + i * step, 0, +1)).hex() for i in range(count)]
    assert [x.hex() for x in f.sample(start, step, count)] == expected


@st.composite
def progression_cases(draw):
    """A canonical form of degree 0..12, or at DEGREE_CAP, and a progression (x_num, stride, x_den, count)."""
    top = draw(st.one_of(st.integers(min_value=0, max_value=12), st.just(DEGREE_CAP)))
    big = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    nums = draw(st.lists(big, min_size=top + 1, max_size=top + 1).filter(lambda c: c[-1]))
    form = _form(nums, draw(st.integers(min_value=1, max_value=10 ** 12)))
    x_num, stride = draw(st.integers(min_value=-10 ** 6, max_value=10 ** 6)), draw(st.integers(-500, 500))
    x_den = draw(st.integers(min_value=1, max_value=10 ** 6))
    return form, x_num, stride, x_den, draw(st.integers(min_value=0, max_value=3 * (top + 1)))


@SETTINGS
@given(progression_cases())
def test_progression_floats_are_the_correctly_rounded_values(case):
    (nums, den), x_num, stride, x_den, count = case
    expected = []
    for i in range(count):
        x = Fraction(x_num + i * stride, x_den)
        expected.append(float(sum(Fraction(n, den) * x ** d for d, n in enumerate(nums))).hex())
    assert [v.hex() for v in progression_floats((nums, den), x_num, stride, x_den, count)] == expected


@SETTINGS
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=12))
def test_progression_floats_overflow_only_on_the_draw_of_that_value(top, at, head):
    # p = c x^top with p(i) first past the double range at i = at (i = 0 too for top 0)
    c = (2 ** 1024 // max(at, 1) ** top + 1) if top else 2 ** 1024
    count = at + 1 + head
    values = progression_floats(((0,) * top + (c,), 1), 0, 1, 1, count)
    first = 0 if not top else at
    for i in range(first):
        assert next(values) == float(c * i ** top)
    with pytest.raises(OverflowError):
        next(values)


@SETTINGS
@given(sampled_functions())
def test_value_is_the_limit_where_both_sides_agree(case):
    f, points = case
    for t in points:
        right = f.trace(t, 0, +1)
        if t == f.start or t not in f.breaks or f.trace(t, 0, -1) == right:
            assert f.value(t) == right
        else:
            with pytest.raises(ValueError, match="jumps"):
                f.value(t)


# -- the jump table ------------------------------------------------------------


def _reference_smoothness_defects(f, k):
    """The per-point loop the jump table replaced: order-major, then by node."""
    return [(t, mu, f.jump(t, mu)) for mu in range(k) for t in f.breaks[1:-1] if f.jump(t, mu) != 0]


def _reference_trace_defects(f, k):
    out = []
    for mu in range(k):
        for t, side in ((f.start, 1), (f.end, -1)):
            if f.trace(t, mu, side) != 0:
                out.append(("endpoint", t, mu, f.trace(t, mu, side)))
        out.extend(("jump", t, m, j) for t, m, j in _reference_smoothness_defects(f, k) if m == mu)
    return out


@st.composite
def functions_with_jumps(draw):
    """A piecewise polynomial of degree <= 8 on (-1, 3) with fractional breaks.

    At each interior break the right piece continues the jet of the left one
    up to a drawn order (0 to 4), so zero and nonzero jumps both occur.
    """
    interior = draw(st.sets(st.fractions(min_value=-1, max_value=3, max_denominator=12), min_size=1, max_size=5))
    breaks = sorted((interior - {Fraction(-1), Fraction(3)}) | {Fraction(-1), Fraction(3)})
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    pieces = [tuple(draw(st.lists(coeffs, min_size=1, max_size=9)))]
    for lo, mid, hi in zip(breaks, breaks[1:], breaks[2:]):
        jet = pjet(pieces[-1], mid - lo, draw(st.integers(min_value=0, max_value=4)))
        taylor = tuple(value / math.factorial(mu) for mu, value in enumerate(jet))
        pieces.append(taylor + tuple(draw(st.lists(coeffs, min_size=1, max_size=9 - len(taylor)))))
    return PiecewisePoly.from_pieces(breaks, pieces)


@SETTINGS
@given(functions_with_jumps(), st.integers(min_value=0, max_value=6))
def test_jump_table_equals_the_point_jumps(f, count):
    assert f.jumps(count) == [(t, mu, f.jump(t, mu)) for t in f.breaks[1:-1] for mu in range(count)]


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=9), st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.integers(min_value=0, max_value=10))
def test_jet_is_the_chain_of_derivative_values(coeffs, x, count):
    jet = pjet(coeffs, x, count)
    assert len(jet) == count
    c = tuple(coeffs)
    for value in jet:
        assert type(value) is Fraction
        assert value == peval(c, x)
        c = pder(c)


@SETTINGS
@given(functions_with_jumps(), st.integers(min_value=0, max_value=6))
def test_defect_lists_equal_the_per_point_loops(f, k):
    assert smoothness_defects(f, k) == _reference_smoothness_defects(f, k)
    assert trace_defects(f, k) == _reference_trace_defects(f, k)


@st.composite
def smooth_solution_problems(draw):
    """Data made from a known solution y = f1 | g | f2 with g one polynomial on
    (0, N+1), so v is smooth inside.  f1 and f2 are g itself, or g bent by a
    multiple of (t - seam)^2: then y jumps in its second derivative at the
    seam, while R y stays C^1 and -(R y)'' is an admissible f0."""
    stencil = draw(supported_stencils(max_n=3))
    n = stencil.N
    g = tuple(draw(nonzero_polys))
    c = draw(nonzero)
    f1 = draw(st.sampled_from((g, padd(g, (0, 0, c)))))
    f2 = draw(st.sampled_from((g, padd(g, (c * (n + 1) ** 2, -2 * c * (n + 1), c)))))
    y = concat([
        PiecewisePoly.from_global(f1, (-n, 0)),
        PiecewisePoly.from_global(g, (0, n + 1)),
        PiecewisePoly.from_global(f2, (n + 1, 2 * n + 1)),
    ])
    f0 = apply_shifted_sum(stencil, y).derivative(2).scaled(-1)
    return BVPProblem(stencil=stencil, k=draw(st.integers(min_value=0, max_value=2)), f0=f0, f1=f1, f2=f2)


@SETTINGS
@given(st.one_of(extension_problems(), smooth_solution_problems()))
def test_smoothness_flags_equal_the_defect_lists(problem):
    family = solve_nonhomogeneous(problem)
    if family.v is None:
        return
    report = family.smoothness
    k = problem.k
    assert report.smooth_interior == (not smoothness_defects(family.v, k + 2))
    assert report.smooth_extension == (not smoothness_defects(family.extension, k + 2))
    psi = hermite_extension(problem.stencil, k, problem.f1, problem.f2)
    reduced = problem.f0 + apply_shifted_sum(problem.stencil, psi).derivative(2)
    assert report.data_defects == tuple(_reference_smoothness_defects(reduced, k))


small_ints = st.integers(min_value=-3, max_value=3)
# rank-1 boundary matrices: a solution exists only when one data constraint holds
RANK_DEFICIENT = tuple((c, 0, -c) for c in (1, -1, 2, -2, 3, -3))
POOL = named_stencils() + random_regime_stencils() + tuple(Stencil.from_coeffs(c) for c in RANK_DEFICIENT)


@st.composite
def pool_problems(draw):
    """A pool stencil, or a (c, 0, -c), with small integer data and k <= 1.

    Small integers let the single data constraint of (c, 0, -c) hold often
    enough to draw feasible problems there.  f0 is one polynomial, or one
    per unit interval.
    """
    stencil = draw(st.sampled_from(POOL))
    n = stencil.N
    polys = st.lists(small_ints, min_size=1, max_size=2)
    if draw(st.booleans()):
        f0 = PiecewisePoly.from_global(draw(polys), (0, n + 1))
    else:
        f0 = PiecewisePoly.from_pieces(range(n + 2), [draw(polys) for _ in range(n + 1)])
    k = draw(st.integers(min_value=0, max_value=1))
    return BVPProblem(stencil=stencil, k=k, f0=f0, f1=tuple(draw(polys)), f2=tuple(draw(polys)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pool_problems())
@example(BVPProblem(
    stencil=Stencil.from_coeffs((-3, 0, 3)), k=0, f0=PiecewisePoly.from_global((3, -3), (0, 2)), f1=(-2,), f2=(-2,),
))
def test_the_solution_is_as_smooth_as_the_solvable_classes(problem):
    # d comes from the smoothest class whose stack is feasible, so the jumps of
    # the solution give the same answer as the constraint stacks
    family = solve_nonhomogeneous(problem)
    assume(family.v is not None)
    report = family.smoothness
    assert report.smooth_interior == report.minimal_solvable
    assert report.smooth_extension == report.zero_trace_solvable


def _reference_boundary_system(problem):
    """The boundary system as the solver first built it, by hand.

    ``boundary_matrix``, its rank by ``exactla.rank``, the order-zero pair on
    the double antiderivative as the right-hand side, and, when the reference
    RREF of [matrix | rhs] finds no solution, one residual per left null
    vector of the matrix that the right-hand side violates.
    """
    stencil = problem.stencil
    psi = hermite_extension(stencil, problem.k, problem.f1, problem.f2)
    second = (problem.f0 + apply_shifted_sum(stencil, psi).derivative(2)).antiderivative().antiderivative()
    rhs = evaluate_stack(membership_functionals(stencil.structure.gamma, 1), second)
    matrix = boundary_matrix(stencil.structure)
    residuals = []
    if 2 in _reference_rref([row + [value] for row, value in zip(matrix, rhs)])[1]:
        for j, u in enumerate(_reference_left_nullspace(matrix)):
            value = u[0] * rhs[0] + u[1] * rhs[1]
            if value != 0:
                residuals.append(("boundary constraint %d" % j, value))
    return tuple(map(tuple, matrix)), exactla.rank(matrix), tuple(rhs), tuple(residuals)


@st.composite
def boundary_problems(draw):
    """A POOL stencil with k <= 2, data smooth or broken at the nodes, with or without extension data."""
    stencil = draw(st.sampled_from(POOL))
    n = stencil.N
    polys = st.lists(small_ints, min_size=1, max_size=3)
    if draw(st.booleans()):
        f0 = PiecewisePoly.from_global(draw(polys), (0, n + 1))
    else:
        f0 = PiecewisePoly.from_pieces(range(n + 2), [draw(polys) for _ in range(n + 1)])
    f1, f2 = (draw(polys), draw(polys)) if draw(st.booleans()) else ((0,), (0,))
    return BVPProblem(stencil=stencil, k=draw(st.integers(min_value=0, max_value=2)), f0=f0, f1=f1, f2=f2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(boundary_problems())
@example(BVPProblem(stencil=Stencil.from_coeffs((2, 0, -2)), k=0, f0=PiecewisePoly.constant(1, 0, 2)))
@example(BVPProblem(
    stencil=Stencil.from_coeffs((-3, 0, 3)), k=2, f0=PiecewisePoly.from_pieces((0, 1, 2), ((1,), (2,))),
))
@example(BVPProblem(
    stencil=Stencil.from_coeffs((1, 0, -1)), k=1, f0=PiecewisePoly.constant(1, 0, 2), f1=(1, 2), f2=(3,),
))
def test_the_boundary_system_equals_the_boundary_matrix_reference(problem):
    # the pair's elimination gives the matrix, the rank and the labelled residuals the hand-built system gave
    family = solve_nonhomogeneous(problem)
    matrix, rank, rhs, residuals = _reference_boundary_system(problem)
    assert (family.boundary_matrix, family.boundary_rank, family.rhs) == (matrix, rank, rhs)
    assert family.residuals == residuals
    assert (family.status is SolveStatus.INFEASIBLE) == bool(residuals)


def _reference_violating_data(stencil, count_expected):
    """Criterion 6's witnesses as first built: one left null vector of
    ``boundary_matrix`` at a time, and one solve per vector and degree."""
    null_left = _reference_left_nullspace(boundary_matrix(stencil.structure))
    if len(null_left) != count_expected:
        return None
    witnesses = []
    for u in null_left:
        for degree in range(6):
            f0 = PiecewisePoly.from_global((0,) * degree + (1,), (0, stencil.N + 1))
            family = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f0))
            if u[0] * family.rhs[0] + u[1] * family.rhs[1] != 0:
                witnesses.append(degree)
                break
        else:
            return None
    return witnesses


def test_violating_data_equals_the_per_vector_reference():
    # every rank-1 stencil of criterion 6's box, RANK_DEFICIENT and the named
    # (rank-2) stencils, at the right constraint count and at wrong ones
    stencils = {s.coeffs: s for s in named_stencils()}
    for coeffs in itertools.chain(itertools.product(range(-3, 4), repeat=3), RANK_DEFICIENT):
        stencil = Stencil.from_coeffs(coeffs)
        if stencil.regime is Regime.SINGULAR_MINOR and exactla.rank(boundary_matrix(stencil.structure)) == 1:
            stencils[stencil.coeffs] = stencil
    assert len(stencils) == 3 + len(RANK_DEFICIENT)
    for stencil in stencils.values():
        for count in (0, 1, 2):
            assert _violating_data(stencil, count) == _reference_violating_data(stencil, count)


# -- the integer kernels ----------------------------------------------------------
#
# trace, the Taylor jet, the Taylor shift, linear_combination and the functionals compute in
# integers over one common denominator; each is held to the plain Fraction
# computation it replaced, kept here as the reference.


def _reference_trace(f, t, order, side):
    """Find the piece, differentiate it order times, evaluate by Fraction Horner."""
    if side == 1:
        idx = max(i for i, lo in enumerate(f.breaks[:-1]) if lo <= t)
    else:
        idx = min(i for i, hi in enumerate(f.breaks[1:]) if hi >= t)
    c = f.pieces[idx]
    for _ in range(order):
        c = pder(c)
    return peval(c, t - f.breaks[idx])


def _reference_pshift(c, s):
    """Taylor coefficients p^(d)(s) / d!, each by Horner on the scaled derivative."""
    out = []
    work = [Fraction(x) for x in c]
    d = 0
    while work:
        out.append(peval(work, s))
        d += 1
        work = [work[i] * i / d for i in range(1, len(work))]
    return ptrim(out)


@SETTINGS
@given(st.data())
def test_trace_equals_the_fraction_derivative_chain(data):
    f = data.draw(st.one_of(functions_with_jumps(), sampled_functions().map(lambda case: case[0])))
    points = list(f.breaks)
    points += data.draw(st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=60), max_size=4))
    for t in points:
        for side in (1, -1):
            if t == (f.end if side == 1 else f.start):
                continue
            for order in range(f.degree + 3):
                got = f.trace(t, order, side)
                assert type(got) is Fraction
                assert got == _reference_trace(f, t, order, side)


@SETTINGS
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=1, max_size=10),
       st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=13)))
def test_pshift_equals_the_fraction_taylor_loop(coeffs, s):
    got = _shifted(_form_of(coeffs), *s.as_integer_ratio())
    assert _is_canonical(got)
    pieces = PiecewisePoly((0, 1), 1, (got,)).pieces
    assert pieces == (_reference_pshift(coeffs, s),)
    assert _all_fractions(pieces)


def _reference_linear_combination(terms):
    """Re-expand every term on each piece of the union partition, then padd/pscale."""
    breaks = sorted(set().union(*(f.breaks for _, f in terms)))
    pieces = []
    for lo in breaks[:-1]:
        acc = (Fraction(0),)
        for c, f in terms:
            i = max(j for j, b in enumerate(f.breaks[:-1]) if b <= lo)
            acc = padd(acc, pscale(_reference_pshift(f.pieces[i], lo - f.breaks[i]), Fraction(c)))
        pieces.append(acc)
    return tuple(breaks), tuple(pieces)


@st.composite
def combination_terms(draw):
    """Terms on DOMAIN, some with zero coefficients; some functions have their
    own breakpoints, others share one partition under distinct tuples."""
    shared = draw(functions_on_domain()).breaks
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            f = draw(functions_on_domain())
        else:
            pieces = [draw(st.lists(rationals, min_size=1, max_size=4)) for _ in shared[1:]]
            f = PiecewisePoly.from_pieces(list(shared), pieces)
        terms.append((draw(st.one_of(st.just(0), rationals)), f))
    return terms


@SETTINGS
@given(combination_terms())
def test_linear_combination_equals_the_fraction_piece_sums(terms):
    combo = linear_combination(terms)
    assert (combo.breaks, combo.pieces) == _reference_linear_combination(terms)
    assert _all_fractions(combo.breaks, combo.pieces)


# -- the stored integer form ------------------------------------------------------
#
# Every kernel writes canonical forms, and ``pieces`` built from them equals
# the plain Fraction computation.


def _is_canonical(form):
    """(numerators, den): ints, trailing zeros trimmed, den > 0, gcd 1, zero as ((0,), 1)."""
    nums, den = form
    return (
        type(nums) is tuple and len(nums) >= 1 and all(type(n) is int for n in nums) and type(den) is int
        and den > 0 and math.gcd(den, *nums) == 1 and (nums[-1] != 0 or form == ((0,), 1))
    )


def _assert_stored(f, expected_pieces):
    assert all(_is_canonical(form) for form in f.forms)
    assert f.pieces == tuple(expected_pieces)
    assert _all_fractions(f.breaks, f.pieces)


def _reference_piece(f, lo):
    """The piece of f holding [lo, ...), re-expanded at lo in Fractions."""
    i = max(j for j, b in enumerate(f.breaks[:-1]) if b <= lo)
    return _reference_pshift(f.pieces[i], lo - f.breaks[i])


def _reference_unit_pieces(matrix, f, start, breaks):
    """The pieces on ``breaks`` of the function whose unit i is sum_k M[i][k] * (unit k of f), f on
    (start, start + columns), by Fraction re-expansion and padd/pscale."""
    out = []
    for lo in breaks[:-1]:
        i = math.floor(lo)
        acc = (Fraction(0),)
        for k, c in enumerate(matrix[i]):
            acc = padd(acc, pscale(_reference_piece(f, start + k + lo - i), Fraction(c)))
        out.append(acc)
    return out


def _over_one_den(matrix):
    """A Fraction matrix as integer rows over one positive denominator, the arguments of ``_unit_product``."""
    nums, den = exactla.integer_numerators([x for row in matrix for x in row])
    width = len(matrix[0])
    return [nums[i:i + width] for i in range(0, len(nums), width)], den


DEGREE_64 = tuple(Fraction((-1) ** d * (d % 5 + 1), d % 7 + 1) for d in range(DEGREE_CAP + 1))
coefficient_lists = st.one_of(
    st.lists(st.one_of(st.just(0), st.fractions(min_value=-50, max_value=50, max_denominator=30)), max_size=9),
    st.just(DEGREE_64),
)


@st.composite
def stored_functions(draw):
    """Breakpoints in [-3, 3], negative ones included, and coefficient lists
    with zeros, trailing zeros, empty lists and the degree-64 piece."""
    breaks = sorted(draw(st.sets(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=2, max_size=4)))
    return breaks, [draw(coefficient_lists) for _ in breaks[1:]]


@SETTINGS
@given(stored_functions())
@example(([Fraction(-2), Fraction(0), Fraction(1, 2)], [DEGREE_64, (0, 0, 3, 0)]))
def test_constructors_store_canonical_forms(case):
    breaks, pieces = case
    _assert_stored(PiecewisePoly.from_pieces(breaks, pieces), [ptrim([Fraction(x) for x in p]) for p in pieces])
    # from_global shifts by each left break: negative, zero and positive
    glob = pieces[0]
    _assert_stored(PiecewisePoly.from_global(glob, breaks), [_reference_pshift(glob, a) for a in breaks[:-1]])


@SETTINGS
@given(stored_functions(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), max_size=3),
       st.one_of(st.just(Fraction(0)), rationals), st.integers(min_value=0, max_value=4), rationals)
@example(([Fraction(-2), Fraction(0), Fraction(1, 2)], [DEGREE_64, (0, 0, 3, 0)]),
         [Fraction(-1), Fraction(1, 4)], Fraction(-3, 7), 2, Fraction(5, 3))
def test_calculus_stores_canonical_forms(case, points, s, order, c0):
    f = PiecewisePoly.from_pieces(*case)
    refined = f.refined(p for p in points if f.start <= p <= f.end)
    _assert_stored(refined, [_reference_piece(f, lo) for lo in refined.breaks[:-1]])
    _assert_stored(f.scaled(s), [pscale(c, s) for c in f.pieces])
    expected = list(f.pieces)
    for _ in range(order):
        expected = [pder(c) for c in expected]
    _assert_stored(f.derivative(order), expected)
    if f.degree == DEGREE_CAP:
        with pytest.raises(DegreeCapError):
            f.antiderivative(c0)
    else:
        expected, acc = [], c0
        for c, lo, hi in zip(f.pieces, f.breaks, f.breaks[1:]):
            expected.append(pint(c, acc))
            acc = peval(expected[-1], hi - lo)
        _assert_stored(f.antiderivative(c0), expected)


@SETTINGS
@given(st.data())
def test_same_agrees_with_the_aligned_fraction_pieces(data):
    f = data.draw(functions_on_domain())
    cut = inside.filter(lambda t: 0 < t < 3)
    g = data.draw(st.one_of(
        functions_on_domain(),
        st.lists(inside, max_size=3).map(f.refined),
        functions_on_domain().map(lambda h: f + h.scaled(0)),
        st.tuples(cut, nonzero).map(lambda p: f + PiecewisePoly.from_pieces((0, p[0], 3), [(0,), (p[1],)])),
    ))
    union = sorted(set(f.breaks) | set(g.breaks))
    assert f.same(g) == all(_reference_piece(f, lo) == _reference_piece(g, lo) for lo in union[:-1])


@SETTINGS
@given(combination_terms())
def test_linear_combination_stores_canonical_forms(terms):
    _assert_stored(linear_combination(terms), _reference_linear_combination(terms)[1])


@SETTINGS
@given(supported_stencils(max_n=4), st.data())
def test_difference_operators_store_canonical_forms(stencil, data):
    n = stencil.N
    structure = analyze(stencil)
    f = data.draw(off_node_functions(0, n + 1))
    got = apply_difference(stencil, f)
    band = [[stencil.b(k - i - n) for k in range(3 * n + 1)] for i in range(n + 1)]
    _assert_stored(got, _reference_unit_pieces(band, zero_extension(f, -n, 2 * n + 1), -n, got.breaks))
    # R1 on f's units against the band on f padded with zero pieces, form for form
    padded = apply_shifted_sum(stencil, concat([PiecewisePoly.zero(-n, 0), f, PiecewisePoly.zero(n + 1, 2 * n + 1)]))
    assert (got.nodes, got.scale, got.forms) == (padded.nodes, padded.scale, padded.forms)
    got = apply_difference_inverse(structure, f)
    _assert_stored(got, _reference_unit_pieces(structure.r1_inverse, f, 0, got.breaks))


# -- the stored breakpoints ----------------------------------------------------------
#
# Every constructor and kernel stores its breakpoints as strictly increasing
# ints over one positive scale in lowest terms, and ``breaks`` built from them
# equals the plain Fraction computation.


def _assert_nodes(f, expected_breaks):
    nodes, scale = f.nodes, f.scale
    assert type(nodes) is tuple and all(type(n) is int for n in nodes)
    assert type(scale) is int and scale > 0 and math.gcd(scale, *nodes) == 1
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert f.breaks == tuple(expected_breaks)
    assert _all_fractions(f.breaks)


@SETTINGS
@given(stored_functions(), st.data())
def test_kernels_store_canonical_nodes(case, data):
    breaks, pieces = case
    points = data.draw(st.lists(st.fractions(min_value=breaks[0], max_value=breaks[-1], max_denominator=12), max_size=3))
    s = data.draw(rationals)
    f = PiecewisePoly.from_pieces(breaks, pieces)
    union = sorted(set(breaks) | set(points))
    _assert_nodes(f, breaks)
    _assert_nodes(PiecewisePoly.from_global(pieces[0], breaks), breaks)
    _assert_nodes(f.refined(points), union)
    _assert_nodes(f.shifted(s), [b + s for b in breaks])
    a, b = sorted(data.draw(st.lists(st.sampled_from(union), min_size=2, max_size=2, unique=True)))
    _assert_nodes(f.restricted(a, b), [a] + [t for t in breaks if a < t < b] + [b])
    other = sorted({breaks[0], breaks[-1]} | set(points))
    g = PiecewisePoly.from_pieces(other, [(1,)] * (len(other) - 1))
    for aligned in align_many((f, g)):
        _assert_nodes(aligned, union)
    _assert_nodes(linear_combination(((1, f), (s, g))), union)
    width = breaks[-1] - breaks[0]
    _assert_nodes(concat([f, g.shifted(width)]), list(breaks) + [t + width for t in other[1:]])


@SETTINGS
@given(supported_stencils(max_n=3), st.data())
def test_unit_product_and_hermite_store_canonical_nodes(stencil, data):
    n = stencil.N
    start = data.draw(st.integers(min_value=-2, max_value=2))
    f = data.draw(off_node_functions(0, n + 1)).shifted(start)
    matrix = data.draw(st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1), min_size=1, max_size=3))
    offsets = sorted({b - math.floor(b) for b in f.breaks})
    rows = len(matrix)
    _assert_nodes(_unit_product(*_over_one_den(matrix), f, start), [i + o for i in range(rows) for o in offsets] + [Fraction(rows)])
    jets = data.draw(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=4))
    _assert_nodes(hermite_interpolant([_taylor(jet) for jet in jets]), [Fraction(i) for i in range(len(jets))])


@SETTINGS
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=-2, max_value=2), st.data())
def test_sparse_integer_unit_product_equals_the_fraction_unit_sums(cols, start, data):
    f = data.draw(off_node_functions(0, cols)).shifted(start)
    entries = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30))
    matrix = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=3))
    den = data.draw(st.integers(min_value=1, max_value=12))
    got = _unit_product(matrix, den, f, start)
    _assert_stored(got, _reference_unit_pieces([[Fraction(c, den) for c in row] for row in matrix], f, start, got.breaks))


def _reference_on_monomial(fn, d):
    total = Fraction(0)
    for node, mu, weight in fn.terms:
        if mu <= d:
            fall = 1
            for i in range(mu):
                fall *= d - i
            total += weight * fall * node ** (d - mu)
    return total


node_functionals = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=7), st.integers(min_value=0, max_value=4),
              st.one_of(st.just(Fraction(0)), rationals)),
    max_size=6,
).map(lambda terms: NodeFunctional(tuple(terms), "drawn"))


@SETTINGS
@given(node_functionals, st.integers(min_value=0, max_value=9))
def test_on_monomial_equals_the_fraction_sum_and_evaluate(fn, d):
    got = fn.on_monomial(d)
    assert type(got) is Fraction
    assert got == _reference_on_monomial(fn, d)
    monomial = PiecewisePoly.from_global((0,) * d + (1,), (-3, 3))
    value = fn.evaluate(monomial)
    assert type(value) is Fraction
    assert value == got


def _probe_rank(fns, degree):
    """Rank of the family's values on the monomials t^0..t^degree."""
    return exactla.rank([[fn.on_monomial(d) for d in range(degree + 1)] for fn in fns])


atom_nodes = st.sampled_from((Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)))
atom_weights = st.one_of(st.just(Fraction(0)), rationals)
mixed_order_functionals = st.lists(
    st.tuples(atom_nodes, st.integers(min_value=0, max_value=3), atom_weights), max_size=5,
).map(lambda terms: NodeFunctional(tuple(terms), "mixed"))
one_order_functionals = st.tuples(
    st.integers(min_value=0, max_value=3), st.lists(st.tuples(atom_nodes, atom_weights), max_size=5),
).map(lambda drawn: NodeFunctional(tuple((x, drawn[0], w) for x, w in drawn[1]), "one order"))


def _scaled(fn, s):
    """fn with every weight multiplied by s."""
    return NodeFunctional(tuple((node, mu, s * w) for node, mu, w in fn.terms), fn.label)


@st.composite
def functional_families(draw):
    """Families with shared nodes and orders, repeated atoms, zero weights and scaled duplicates."""
    fns = draw(st.lists(st.one_of(one_order_functionals, mixed_order_functionals), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if fns else 0):
        fns.append(_scaled(draw(st.sampled_from(fns)), draw(rationals)))
    return fns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(functional_families(), st.integers(min_value=-4, max_value=2))
def test_atom_rank_equals_the_probe_rank_at_the_hermite_degree(fns, offset):
    # Polynomials of degree <= sum over nodes of (highest order there + 1),
    # minus 1, take any values on that full Hermite set, so probes of that
    # degree see every atom; fewer probes can only lose rank.  The atom count
    # minus 1 is not enough: w'(0) and w'(1) agree on P_1.
    top: dict[Fraction, int] = {}
    for fn in fns:
        for node, mu, _ in fn.terms:
            top[node] = max(top.get(node, 0), mu)
    hermite_degree = sum(mu + 1 for mu in top.values()) - 1
    rank = rank_of_functionals(fns)
    degree = max(hermite_degree + offset, 0)
    if degree >= hermite_degree:
        assert rank == _probe_rank(fns, degree)
    else:
        assert _probe_rank(fns, degree) <= rank


@st.composite
def zero_trace_images(draw):
    """A supported stencil, k in 1..3 and R f for an order-k zero-trace f on (0, N+1).

    Both stencil families are singular-minor by construction: b_0 = ... =
    b_{N-1} = 0 (there gamma2 vanishes, so the interior relation reads
    w^(mu)(m) = 0), and a drawn null vector of R2 with dependent end columns
    (where gamma2 is mostly nonzero).  f is glued from two-point Hermite pieces between drawn node jets (zero at
    both ends), plus on each unit interval a drawn polynomial times
    x^k (1 - x)^k, which leaves every jet of order below k unchanged.
    """
    stencil = draw(st.one_of(supported_stencils(max_n=4), dependent_stencils()))
    n = stencil.N
    k = draw(st.integers(min_value=1, max_value=3))
    jets = [[Fraction(0)] * k] + [draw(st.lists(rationals, min_size=k, max_size=k)) for _ in range(n)]
    jets.append([Fraction(0)] * k)
    bump = (Fraction(1),)
    for _ in range(k):
        bump = pmul(bump, (0, 1))
        bump = pmul(bump, (1, -1))
    pieces = [
        padd(_coeffs(two_point_hermite(_taylor(left), _taylor(right))), pmul(bump, draw(st.lists(rationals, min_size=1, max_size=2))))
        for left, right in zip(jets, jets[1:])
    ]
    f = PiecewisePoly.from_pieces(range(n + 2), pieces)
    assert not trace_defects(f, k)
    return stencil, k, apply_difference(stencil, f)


def _reference_hermite_glued(length, k, rng, zero_end_jets):
    """The Fraction construction ``_hermite_glued`` replaced, draw for draw: each
    piece is the Hermite piece (a drawn quadratic when k = 0) plus x^k (1 - x)^k
    times a drawn quadratic."""
    jets = [
        [Fraction(0)] * k if zero_end_jets and node in (0, length) else [Fraction(rng.randint(-4, 4)) for _ in range(k)]
        for node in range(length + 1)
    ]
    bump_shape = (Fraction(1),)
    for _ in range(k):
        bump_shape = pmul(pmul(bump_shape, (0, 1)), (1, -1))
    pieces = []
    for i in range(length):
        if k == 0:
            piece = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        else:
            piece = _reference_hermite(jets[i], jets[i + 1])
        bump = pmul(bump_shape, tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)))
        pieces.append(padd(piece, bump))
    return PiecewisePoly.from_pieces(range(length + 1), pieces)


@SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32), st.booleans())
def test_hermite_glued_equals_the_fraction_construction(length, k, seed, zero_end_jets):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    f = _hermite_glued(length, k, rng, zero_end_jets)
    expected = _reference_hermite_glued(length, k, reference_rng, zero_end_jets)
    assert f.breaks == expected.breaks
    assert f.forms == expected.forms
    assert rng.getstate() == reference_rng.getstate()


def _reference_image_member(structure, fns, rng):
    """The construction ``random_image_member`` replaced, draw for draw: a random order-k
    function w0, the stack evaluated on it, and w0 minus the ``hermite_interpolant`` of the
    correction jets, zero except at N+1 and m."""
    n = structure.stencil.N
    k = len(fns) // 2
    w0 = _hermite_glued(n + 1, k, rng, zero_end_jets=False)
    values = evaluate_stack(fns, w0)
    jets = [((0,) * k, 1)] * (n + 2)
    for node, derivatives in ((n + 1, values[0::2]), (structure.gamma.m, values[1::2])):
        jets[node] = exactla.integer_numerators([x / math.factorial(mu) for mu, x in enumerate(derivatives)])
    return w0 - hermite_interpolant(jets)


@SETTINGS
@given(st.one_of(supported_stencils(max_n=4), wide_regime_stencils), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_image_member_equals_the_subtracted_interpolant(stencil, k, seed):
    structure = analyze(stencil)
    fns = membership_functionals(structure.gamma, k)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    f = random_image_member(structure, fns, rng)
    expected = _reference_image_member(structure, fns, reference_rng)
    assert f.breaks == expected.breaks
    assert f.forms == expected.forms
    assert rng.getstate() == reference_rng.getstate()
    assert not any(evaluate_stack(fns, f))


@SETTINGS
@given(zero_trace_images())
def test_membership_functionals_vanish_on_images(case):
    stencil, k, w = case
    fns = membership_functionals(analyze(stencil).gamma, k)
    assert len(fns) == 2 * k
    for fn in fns:
        value = fn.evaluate(w)
        assert type(value) is Fraction
        assert value == 0


# -- constraint stacks ---------------------------------------------------------------


def _reference_evaluate(fn, f):
    """Per-term evaluation in Fractions: the inner limit at an end, both limits, which must agree, inside."""
    total = Fraction(0)
    for node, mu, weight in fn.terms:
        if weight == 0:
            continue
        value = _reference_trace(f, node, mu, -1 if node == f.end else 1)
        if node != f.start and node != f.end:
            left = _reference_trace(f, node, mu, -1)
            if left != value:
                raise ValueError(
                    "derivative of order %d jumps at node %s (left %s, right %s); "
                    "functional %r is undefined there" % (mu, node, left, value, fn.label)
                )
        total += weight * value
    return total


@st.composite
def functional_stacks(draw):
    """A function with zero and nonzero jumps and a stack on it: nodes at its breaks and off them,
    atoms repeated inside and across functionals, zero weights."""
    f = draw(functions_with_jumps())
    nodes = st.one_of(st.sampled_from(f.breaks), st.fractions(min_value=-1, max_value=3, max_denominator=7))
    terms = st.tuples(nodes, st.integers(min_value=0, max_value=4), st.one_of(st.just(Fraction(0)), rationals))
    pool = draw(st.lists(terms, min_size=1, max_size=4))
    size = draw(st.integers(min_value=0, max_value=5))
    stack = [
        NodeFunctional(tuple(draw(st.lists(st.one_of(st.sampled_from(pool), terms), max_size=5))), "f%d" % i)
        for i in range(size)
    ]
    return f, stack


@settings(max_examples=150, deadline=None, derandomize=True)
@given(functional_stacks())
def test_stack_evaluation_equals_the_per_term_fraction_reference(case):
    f, stack = case
    try:
        expected = [_reference_evaluate(fn, f) for fn in stack]
    except ValueError as exc:
        for evaluate in (lambda: evaluate_stack(stack, f), lambda: [fn.evaluate(f) for fn in stack]):
            with pytest.raises(ValueError) as caught:
                evaluate()
            assert str(caught.value) == str(exc)
    else:
        got = evaluate_stack(stack, f)
        assert got == expected
        assert _all_fractions(got)
        assert [fn.evaluate(f) for fn in stack] == expected


@SETTINGS
@given(supported_stencils(max_n=4), st.integers(min_value=0, max_value=2), st.booleans(), st.data())
def test_integer_violations_equal_the_fraction_dot_products(stencil, k, linear, data):
    for dc in solvability_constraints(analyze(stencil), k):
        assert all(type(den) is int and den > 0 and all(type(x) is int for x in nums) for nums, den in dc.rows)
        assert dc.weights == tuple(tuple(u) for u in _reference_left_nullspace(dc.block))
        assert dc.rank == exactla.rank(dc.block)
        if linear:
            # the stack's values on d1 t + d2, which every data constraint annihilates
            d1, d2 = data.draw(rationals), data.draw(rationals)
            values = [d1 * a + d2 * b for a, b in dc.block]
        else:
            values = data.draw(st.lists(rationals, min_size=len(dc.stack), max_size=len(dc.stack)))
        expected = []
        for j, u in enumerate(dc.weights):
            value = sum((a * b for a, b in zip(u, values)), Fraction(0))
            if value != 0:
                expected.append(("data constraint %d" % j, value))
        got = dc.violations(values)
        assert got == tuple(expected)
        assert dc.violations(values, "boundary constraint") == tuple(
            (label.replace("data", "boundary"), value) for label, value in expected
        )
        assert _all_fractions([value for _, value in got])
        if linear:
            assert got == ()
        with pytest.raises(ValueError):
            dc.violations(values[:-1])


# -- problem files ---------------------------------------------------------------

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
json_rationals = st.one_of(st.integers(min_value=-9, max_value=9), small_rationals.map(str))


@st.composite
def problem_documents(draw):
    """A valid problem file as a JSON-ready dict, N <= 3."""
    n = draw(st.integers(min_value=1, max_value=3))
    inner = draw(st.sets(st.fractions(min_value=0, max_value=n + 1, max_denominator=5), max_size=3))
    breaks = sorted(inner | {Fraction(0), Fraction(n + 1)})
    f0 = [{"interval": [str(lo), str(hi)], "coeffs": draw(st.lists(json_rationals, min_size=1, max_size=3))}
          for lo, hi in zip(breaks, breaks[1:])]
    doc = {
        "N": n,
        "b": draw(st.lists(json_rationals, min_size=2 * n + 1, max_size=2 * n + 1)),
        "k": draw(st.integers(min_value=0, max_value=3)),
        "f0": f0,
    }
    for key in ("f1", "f2"):
        if draw(st.booleans()):
            doc[key] = draw(st.lists(json_rationals, min_size=1, max_size=3))
    if draw(st.booleans()):
        doc["oracle"] = {"n_values": draw(st.lists(st.integers(min_value=4, max_value=16), max_size=2))}
        if draw(st.booleans()):
            doc["oracle"]["a"] = [{"interval": [0, n + 1], "coeffs": draw(st.lists(json_rationals, min_size=1, max_size=2))}]
    return doc


@SETTINGS
@given(problem_documents())
def test_canonical_text_is_a_fixed_point_of_parsing(doc):
    text = canonical_problem_text(parse_problem(json.dumps(doc)))
    assert canonical_problem_text(parse_problem(text)) == text


def _wide_stencil(doc, n):
    doc.update(N=n, b=["1"] * (2 * n + 1))


MUTATIONS = (
    lambda doc, draw: None,
    lambda doc, draw: doc.pop(draw(st.sampled_from(sorted(doc)))),
    lambda doc, draw: _wide_stencil(doc, draw(st.sampled_from((MAX_STENCIL_N + 1, 10 ** 4)))),
    lambda doc, draw: doc.update(N=draw(st.integers(min_value=-2, max_value=5))),
    lambda doc, draw: doc.update(b=[draw(st.floats(width=16))] + doc["b"][1:]),
    # numbers over the bit bound: a long "p/q" string and short exponent strings
    lambda doc, draw: doc.update(b=[draw(st.sampled_from(("%d/7" % 2 ** 8192, "1e200000", "-5e-9999999")))] + doc["b"][1:]),
    lambda doc, draw: doc.update(b=doc["b"][1:]),
    lambda doc, draw: doc.update(k=draw(st.sampled_from((-1, 1.5, "2", 40, None)))),
    lambda doc, draw: doc["f0"][0].update(interval=[str(draw(small_rationals)), "1/2"]),
    lambda doc, draw: doc["f0"][0].update(coeffs=draw(st.sampled_from(([], [0.5], ["x"], [[1]], "1")))),
    lambda doc, draw: doc.update(f0=draw(st.sampled_from(([], {}, [{"interval": [0, 1]}], "f0")))),
    lambda doc, draw: doc.update(f1=draw(st.sampled_from(([], [1e300], ["1/0"], {"a": 1})))),
    lambda doc, draw: doc.update(oracle=draw(st.sampled_from(({"n_values": [2]}, {"n_values": [10 ** 6]}, [], {"q": 1})))),
    lambda doc, draw: doc.update(extra=1),
)


@st.composite
def fuzzed_documents(draw):
    """Problem file text: a valid document with one mutation, wrapped, cut short or empty."""
    doc = draw(problem_documents())
    draw(st.sampled_from(MUTATIONS))(doc, draw)
    return draw(st.sampled_from((json.dumps(doc), json.dumps([doc]), json.dumps(doc)[:-1], "")))


@SETTINGS
@given(fuzzed_documents())
def test_every_problem_file_ends_analyze_in_a_documented_exit_code(text):
    handle, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


# one drawn value of each kind per example, so every kind is run on every drawn file
sample_steps = st.tuples(
    st.sampled_from(("0", "-0", "0/7", "-1/2", "-3", "1/0", "nonsense", "", "1e-9", "1e-5000", "1e8000000", "1e-99999999")),
    st.integers(min_value=1, max_value=8).map("1/{}".format),  # accepted
    st.integers(min_value=10 ** 6, max_value=10 ** 12).map("1/{}".format),  # over the CSV row cap
    # 1,000 to 5,000 digits: over the row cap, past the bit bound, or past the 4,300-digit parse limit
    st.integers(min_value=1000, max_value=5000).map(lambda digits: "1/" + "9" * digits),
)
grid_values = st.tuples(
    st.integers(min_value=-5, max_value=3).map(str),  # zero, negative, below 4
    st.integers(min_value=4, max_value=32).map(str),  # accepted
    st.integers(min_value=10 ** 6, max_value=10 ** 40).map(str),  # over the grid's unknown cap
    st.sampled_from(("x", "4.5", "", "9" * 5000)),  # not an int, or too long to parse
)


@st.composite
def documents_in_and_out_of_the_regime(draw):
    """A valid problem file, half of the time with a supported stencil, so that solves also run to the end."""
    doc = draw(problem_documents())
    if draw(st.booleans()):
        stencil = draw(supported_stencils(min_n=doc["N"], max_n=doc["N"]))
        doc["b"] = [str(c) for c in stencil.coeffs]
    return doc


def _exit_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@SETTINGS
@given(documents_in_and_out_of_the_regime(), sample_steps, grid_values)
@example(doc={"N": 1, "b": ["1", "0", "1"], "k": 0, "f0": [{"interval": [0, 2], "coeffs": [1]}]},
         steps=("0", "1/2", "1/1000000", "1/" + "9" * 1000), resolutions=("0", "4", "1000000", "9" * 5000))
def test_every_samples_step_and_grid_resolution_ends_in_a_documented_exit_code(doc, steps, resolutions):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "problem.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(doc, stream)
        # the = forms keep argparse from reading a negative value as an option
        runs = [["solve", path, "--out", os.path.join(folder, "x"), "--samples=" + step] for step in steps]
        runs += [["spectrum", path, "--grid=" + n] for n in resolutions]
        for argv in runs:
            code, err = _exit_and_stderr(argv)
            assert code in (0, 1, 2, 3, 4), argv
            if code == 1:
                assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
                assert len(err.encode("utf-8")) < 200, (argv[:2], len(err))  # an echoed value is clipped


# -- the residue blocks of the grid shift -----------------------------------------


@st.composite
def grid_stencils(draw):
    big = draw(st.integers(min_value=1, max_value=3))
    return Stencil.from_coeffs(draw(st.lists(rationals, min_size=2 * big + 1, max_size=2 * big + 1)))


@SETTINGS
@given(grid_stencils(), st.integers(min_value=4, max_value=12))
def test_the_grid_shift_is_block_diagonal_by_residue(stencil, n):
    # spectrum_check takes the grid spectrum from these blocks: grouping the
    # indices by residue mod n is a permutation similarity, so the blocks'
    # spectra are the grid spectrum exactly when no entry couples two residues
    big = stencil.N
    padded = np.zeros((n * (big + 1),) * 2)  # the interior shift behind a zero row and column for t_0
    padded[1:, 1:] = grid.assemble(stencil, n).shift.matrix
    by_residue = padded.reshape(big + 1, n, big + 1, n).transpose(1, 3, 0, 2)
    assert np.all(by_residue[~np.eye(n, dtype=bool)] == 0.0)
    r1 = np.array([[float(x) for x in row] for row in stencil.r1])
    for r in range(1, n):
        assert by_residue[r, r].tobytes() == r1.tobytes(), r
    # residue 0 is R2 behind the zero row and column of t_0
    padded_r2 = np.zeros_like(r1)
    padded_r2[1:, 1:] = [[float(x) for x in row[:big]] for row in stencil.r1[:big]]
    assert by_residue[0, 0].tobytes() == padded_r2.tobytes()


# -- the grid solve against the bodies it replaced --------------------------------


def _reference_chain_solve(lower, diag, upper, rhs, first, last):
    """``grid._chain_solve`` as it was before its steps wrote into preallocated arrays, kept as the reference."""
    p = diag[0] / 2
    if not (np.all(diag == diag[0]) and np.all(lower[1:] == -p) and np.all(upper[:-1] == -p)):
        ends = np.zeros_like(diag)
        ends[0], ends[-1] = first, last
        return grid._cyclic_reduction(lower, diag, upper, np.concatenate([rhs, ends], axis=2))
    m, rows, q = rhs.shape
    p_inv, n = np.linalg.inv(p), m + 1
    i = np.arange(1.0, n)[:, None]
    ends = ((n - i) / n)[..., None] * (p_inv @ first) + (i / n)[..., None] * (p_inv @ last)
    if not q:
        return ends

    def solve(b):
        z = (p_inv @ b).reshape(rows, m, q)
        after = np.zeros_like(z)
        after[:, :-1] = np.cumsum(((n - i) * z)[:, :0:-1], axis=1)[:, ::-1]
        return ((n - i) * np.cumsum(i * z, axis=1) + i * after) / n

    b = rhs.transpose(1, 0, 2).reshape(rows, -1)
    y = solve(b)
    k_y = 2.0 * y
    k_y[:, 1:] -= y[:, :-1]
    k_y[:, :-1] -= y[:, 1:]
    y += solve(b - p @ k_y.reshape(rows, -1))
    return np.concatenate([y.transpose(1, 0, 2), ends], axis=2)


def _reference_residue_eliminate(ops, rhs):
    """``grid._residue_eliminate`` as it was, on rhs at t_1..t_{M-1}; it keeps nothing on ``ops``."""
    diag, lower, upper = ops.diag, ops.lower, ops.upper
    col_sums = np.einsum("rkl->rl", np.abs(diag))
    col_sums += np.roll(np.einsum("rkl->rl", np.abs(upper)), 1, axis=0)
    col_sums += np.roll(np.einsum("rkl->rl", np.abs(lower)), -1, axis=0)
    norm_1 = float(col_sums.max())
    q = rhs.shape[1]
    b = np.concatenate([np.zeros((1, q)), rhs]).reshape(ops.stencil.N + 1, ops.n, q).transpose(1, 0, 2)
    chain_lower, chain_upper = lower[1:].copy(), upper[1:].copy()
    chain_lower[0] = chain_upper[-1] = 0.0
    y = _reference_chain_solve(chain_lower, diag[1:], chain_upper, b[1:], lower[1], upper[-1])
    schur = (diag[0] - upper[0] @ y[0, :, q:] - lower[0] @ y[-1, :, q:])[1:, 1:]
    g = b[0] - upper[0] @ y[0, :, :q] - lower[0] @ y[-1, :, :q]
    return schur, g[1:], y, norm_1


def _reference_solve_grid(ops, rhs):
    """``grid.solve_grid`` as it was: (values, condition, ill_conditioned, Schur complement, ||A||_1)."""
    ramp = 1.0 + np.arange(ops.size) / (ops.size - 1)
    probes = np.column_stack([np.ones(ops.size), ramp, ramp * (-1.0) ** np.arange(ops.size)])
    schur = norm_1 = None
    try:
        schur, g, y, norm_1 = _reference_residue_eliminate(ops, np.column_stack([rhs, probes]))
        x0 = np.zeros((ops.stencil.N + 1, 4))
        x0[1:] = np.linalg.solve(schur, g)
        x = np.concatenate([x0[None], y[:, :, :4] - y[:, :, 4:] @ x0])
        solved = x.transpose(1, 0, 2).reshape(-1, 4)[1:]
        growth = np.abs(solved[:, 1:]).sum(axis=0) / np.abs(probes).sum(axis=0)
        condition = float(norm_1 * growth.max())
    except np.linalg.LinAlgError:
        condition = math.inf
    ill = not math.isfinite(condition) or condition > 1e12
    values = np.linalg.lstsq(ops.operator.matrix, rhs, rcond=None)[0] if ill else solved[:, 0]
    return values, condition, ill, schur, norm_1


def _reference_spectrum_check(stencil, n):
    """``grid.spectrum_check``'s two distances as they were, one Python loop per eigenvalue."""
    exact_r1, exact_r2 = stencil.r1_eigenvalues, stencil.r2_eigenvalues
    if any(b != 0 and offset % n for offset, b in grid._shift_bands(stencil, n)):
        return n, math.inf, math.inf
    grid_eigs = np.concatenate([exact_r1, exact_r2])
    containment = max(float(np.abs(grid_eigs - lam).min()) for lam in exact_r1)
    block = max(float(np.abs(grid_eigs - mu).min()) for mu in grid_eigs)
    return n, containment, block


GRID_POOL = named_stencils() + random_regime_stencils() + tuple(
    map(Stencil.from_coeffs, [(1, 0, -1), (Fraction(1, 3), 0, Fraction(2, 7))]))


@SETTINGS
@given(st.sampled_from(GRID_POOL), st.sampled_from((4, 5, 8, 33, 64, 512)),
       st.sampled_from((None, "zero", "one", "t")), st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(GRID_POOL[0], 512, None, 0)
@example(GRID_POOL[-2], 64, None, 0)  # (1, 0, -1): a singular R1 block, the dense fallback
def test_the_grid_solve_is_bit_identical_to_the_bodies_it_replaced(stencil, n, a_kind, seed):
    a = {
        None: None,
        "zero": PiecewisePoly.constant(0, 0, stencil.N + 1),
        "one": PiecewisePoly.constant(1, 0, stencil.N + 1),
        "t": PiecewisePoly.from_global((0, 1), (0, stencil.N + 1)),
    }[a_kind]
    ops = grid.assemble(stencil, n, a)
    rhs = np.random.default_rng(seed).standard_normal(ops.size) + np.cos(np.arange(ops.size))
    values, condition, ill, schur, norm_1 = _reference_solve_grid(ops, rhs)
    solution = grid.solve_grid(ops, rhs)
    assert solution.values.tobytes() == values.tobytes()
    assert (solution.condition, solution.ill_conditioned) == (condition, ill)
    if schur is None:
        assert ops._schur is None
    else:
        assert ops._schur[0].tobytes() == schur.tobytes() and ops._schur[1] == norm_1
    check = grid.spectrum_check(stencil, n)
    assert (check.n, check.containment_distance, check.block_distance) == _reference_spectrum_check(stencil, n)
    # index_estimate's elimination, with no right-hand sides, keeps the same Schur complement
    fresh = grid.assemble(stencil, n, a)
    grid.index_estimate(fresh)
    if schur is not None:
        kept, _, _, kept_norm = _reference_residue_eliminate(fresh, np.empty((fresh.size, 0)))
        assert fresh._schur[0].tobytes() == kept.tobytes() and fresh._schur[1] == kept_norm
