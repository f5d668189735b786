"""Exact linear algebra, cross-checked against sympy on random rational matrices."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from ddbvp import exactla


def _random_matrix(rng, rows, cols, bound=6):
    return [
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def _mat_mul(a, b):
    return [[sum((ra[t] * b[t][j] for t in range(len(ra))), Fraction(0)) for j in range(len(b[0]))] for ra in a]


def _sym(a):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in a])


def test_det_and_rank_match_sympy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols)
        assert exactla.rank(a) == _sym(a).rank()
        if rows == cols:
            d = exactla.det(a)
            assert sp.Rational(d.numerator, d.denominator) == _sym(a).det()


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        exactla.det([[Fraction(1), Fraction(2)]])


def _left_null(system):
    return [[Fraction(n, den) for n in nums] for nums, den in system.left_null]


def test_nullspace_vectors_are_annihilated():
    rng = random.Random(11)
    for _ in range(20):
        a = _random_matrix(rng, rng.randint(1, 4), 2)
        system = exactla.TwoColumnSystem(a)
        assert system.rank == _sym(a).rank()
        assert len(system.right_null) == 2 - system.rank
        for v in system.right_null:
            assert all(x == 0 for x in _mat_vec(a, v))


def test_left_nullspace_annihilates_from_the_left():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    left_null = _left_null(exactla.TwoColumnSystem(a))
    for u in left_null:
        combo = [sum(u[i] * a[i][j] for i in range(3)) for j in range(2)]
        assert combo == [0, 0]
    assert len(left_null) == 1


def test_least_norm_reports_feasible_and_infeasible_systems():
    a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    system = exactla.TwoColumnSystem(a)
    assert system.least_norm([Fraction(1), Fraction(2)]) is not None
    assert system.least_norm([Fraction(1), Fraction(3)]) is None

    d = system.least_norm([Fraction(1), Fraction(2)])
    assert _mat_vec(a, d) == [1, 2]
    assert len(system.right_null) == 1


def test_least_norm_tells_degenerate_systems_from_unique_ones():
    singular = exactla.TwoColumnSystem([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert singular.least_norm([Fraction(1), Fraction(0)]) is None
    assert singular.least_norm([Fraction(1), Fraction(1)]) is not None
    assert singular.rank == 1 and len(singular.right_null) == 1

    a = exactla.TwoColumnSystem([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert a.least_norm([Fraction(3), Fraction(2)]) == (1, 1)
    assert a.rank == 2 and a.right_null == ()


def test_invert_roundtrip_and_singular_rejection():
    rng = random.Random(13)
    found = 0
    while found < 10:
        a = _random_matrix(rng, 3, 3)
        if exactla.det(a) == 0:
            continue
        found += 1
        product = _mat_mul(a, exactla.invert(a))
        assert product == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        exactla.invert([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_min_norm_solution_minimizes_over_the_affine_set():
    # one equation, two unknowns: x + y = 2; the closest point to the origin
    # on that line is (1, 1)
    system = exactla.TwoColumnSystem([[Fraction(1), Fraction(1)]])
    assert system.least_norm([Fraction(2)]) == (1, 1)
    assert len(system.right_null) == 1

    # random underdetermined systems (one row, or two of rank at most 1):
    # perturbing along any kernel direction must not decrease the squared norm
    rng = random.Random(17)
    for _ in range(10):
        (row,) = _random_matrix(rng, 1, 2)
        a = [row] if rng.random() < 0.5 else [row, [Fraction(rng.randint(-3, 3)) * x for x in row]]
        b = [Fraction(rng.randint(-3, 3)) for _ in a]
        system = exactla.TwoColumnSystem(a)
        best = system.least_norm(b)
        if best is None:
            continue
        assert _mat_vec(a, best) == b
        norm2 = sum(x * x for x in best)
        for v in system.right_null:
            for eps in (Fraction(1, 3), Fraction(-1, 2)):
                shifted = [best[i] + eps * v[i] for i in range(2)]
                assert sum(x * x for x in shifted) >= norm2


def test_min_norm_solution_none_when_infeasible():
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert exactla.TwoColumnSystem(a).least_norm([Fraction(0), Fraction(1)]) is None


def test_two_column_system_refuses_float_entries():
    with pytest.raises(TypeError):
        exactla.TwoColumnSystem([[Fraction(1), 0.5]])
    with pytest.raises(TypeError):
        exactla.TwoColumnSystem([[Fraction(1), Fraction(0)]]).least_norm([0.5])


def test_to_fraction_accepts_exact_inputs_only():
    assert exactla.to_fraction(3) == Fraction(3)
    assert exactla.to_fraction("2/5") == Fraction(2, 5)
    assert exactla.to_fraction(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        exactla.to_fraction(0.1)
