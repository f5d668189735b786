"""Piecewise polynomial calculus and the difference operator plumbing."""

import math
import random
from fractions import Fraction

import pytest

from ddbvp import exactla
from ddbvp.piecewise import (
    DegreeCapError,
    PiecewisePoly,
    _form_of,
    _shifted,
    apply_difference,
    apply_difference_inverse,
    apply_shifted_sum,
    concat,
    ptrim,
    smoothness_defects,
    trace_defects,
    two_point_hermite,
    zero_extension,
)
from ddbvp.structure import Stencil, analyze

F = Fraction


def _is_zero(f):
    return all(c == (Fraction(0),) for c in f.pieces)


def peval(c, x):
    """Fraction Horner on a coefficient tuple: the reference value."""
    out = F(0)
    for coef in reversed(c):
        out = out * x + coef
    return out


def pder(c):
    """The derivative of a coefficient tuple, in Fractions."""
    return ptrim([c[d] * d for d in range(1, len(c))]) if len(c) > 1 else (F(0),)


def padd(a, b):
    """The sum of two coefficient tuples, in Fractions."""
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0)) for i in range(n)])


def pmul(a, b):
    """The product of two coefficient tuples, in Fractions."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def _coeffs(form):
    """The Fraction coefficients of a stored form."""
    nums, den = form
    return tuple(F(n, den) for n in nums)


def _rand_coeffs(rng, degree):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1))


# -- coefficient-tuple helpers ---------------------------------------------


def test_poly_helpers_basic_identities():
    rng = random.Random(3)
    for _ in range(20):
        a = _rand_coeffs(rng, rng.randint(0, 4))
        b = _rand_coeffs(rng, rng.randint(0, 4))
        x = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert peval(padd(a, b), x) == peval(a, x) + peval(b, x)
        assert peval(pmul(a, b), x) == peval(a, x) * peval(b, x)

        s = F(rng.randint(-3, 3), rng.randint(1, 2))
        nums, den = _shifted(_form_of(a), *s.as_integer_ratio())
        assert peval([F(n, den) for n in nums], x) == peval(a, x + s)

    assert ptrim((F(1), F(0), F(0))) == (F(1),)
    assert ptrim((F(0), F(0))) == (F(0),)


def test_derivative_and_antiderivative_are_inverse():
    rng = random.Random(5)
    for _ in range(10):
        a = _rand_coeffs(rng, rng.randint(0, 5))
        c0 = F(rng.randint(-2, 2))
        f = PiecewisePoly.from_pieces((0, 1), [a])
        anti = f.antiderivative(c0)
        assert anti.derivative().pieces == (ptrim(a),)
        # fundamental theorem at a point
        assert peval(anti.pieces[0], F(0)) == c0


def test_degree_cap_guards_runaway_growth():
    with pytest.raises(DegreeCapError):
        PiecewisePoly.from_pieces((0, 1), [tuple(F(1) for _ in range(65))]).antiderivative(F(0))


def _taylor(derivatives):
    """The integer Taylor jet of derivative values: x / mu! as integers over their lcm."""
    nums, den = exactla.integer_numerators([F(x) / math.factorial(mu) for mu, x in enumerate(derivatives)])
    return tuple(nums), den


def test_two_point_hermite_matches_both_jets():
    rng = random.Random(9)
    for r in (1, 2, 3):
        left = [F(rng.randint(-3, 3)) for _ in range(r)]
        right = [F(rng.randint(-3, 3)) for _ in range(r)]
        h = _coeffs(two_point_hermite(_taylor(left), _taylor(right)))
        assert len(h) - 1 <= 2 * r - 1
        c = h
        for mu in range(r):
            assert peval(c, F(0)) == left[mu]
            assert peval(c, F(1)) == right[mu]
            c = pder(c)
    with pytest.raises(ValueError):
        two_point_hermite(_taylor([F(1)]), _taylor([F(1), F(0)]))


def test_two_point_hermite_returns_a_canonical_form():
    # ints over a positive denominator in lowest terms, trailing zeros trimmed
    for left, right in (([F(1, 2), F(-3, 4)], [F(5, 6), F(0)]), ([F(2)], [F(2)]), ([F(0)] * 3, [F(0)] * 3)):
        nums, den = two_point_hermite(_taylor(left), _taylor(right))
        assert all(type(n) is int for n in nums) and type(den) is int
        assert den > 0 and math.gcd(den, *nums) == 1
        assert nums[-1] != 0 or (nums, den) == ((0,), 1)
    assert two_point_hermite(_taylor([F(2)]), _taylor([F(2)])) == ((2,), 1)
    assert two_point_hermite(_taylor([F(0)] * 3), _taylor([F(0)] * 3)) == ((0,), 1)
    assert two_point_hermite(_taylor([F(1, 2)]), _taylor([F(0)])) == ((1, -1), 2)


# -- the piecewise class -----------------------------------------------------


def test_construction_refinement_and_equality():
    f = PiecewisePoly.from_global((1, 2, 1), (0, 3))  # (1 + t)^2 on (0, 3)
    g = f.refined([1, 2, F(1, 2)])
    assert g.breaks == (0, F(1, 2), 1, 2, 3)
    assert f.same(g)
    assert not f.same(f + PiecewisePoly.constant(1, 0, 3))
    assert f.degree == 2
    assert _is_zero(PiecewisePoly.zero(0, 2))
    assert not _is_zero(f)


def test_from_global_uses_local_coordinates_per_piece():
    f = PiecewisePoly.from_global((0, 1), (0, 2)).refined([1])  # f(t) = t
    assert f.pieces[0] == (F(0), F(1))
    assert f.pieces[1] == (F(1), F(1))  # on (1, 2): t = 1 + x


def test_arithmetic_aligns_breakpoints():
    f = PiecewisePoly.from_pieces((0, 1, 2), [(1,), (2,)])
    g = PiecewisePoly.from_pieces((0, F(3, 2), 2), [(0, 1), (5,)])
    h = f + g
    assert h.breaks == (0, 1, F(3, 2), 2)
    assert h.value(F(1, 2)) == 1 + F(1, 2)
    assert h.trace(F(7, 4), 0, 1) == 2 + 5
    assert _is_zero(f - f)
    assert (-f).value(F(1, 2)) == -1


def test_calculus_round_trips():
    rng = random.Random(11)
    f = PiecewisePoly.from_pieces(
        (0, 1, 2), [_rand_coeffs(rng, 3), _rand_coeffs(rng, 3)]
    )
    anti = f.antiderivative(F(7))
    assert anti.trace(0, 0, 1) == 7
    assert anti.derivative().same(f)
    # the antiderivative is continuous across the interior break
    assert anti.jump(1, 0) == 0

    second = f.antiderivative().antiderivative()
    assert second.derivative(2).same(f)
    assert second.trace(0, 0, 1) == 0 and second.trace(0, 1, 1) == 0


def _integral(f):
    return f.antiderivative().trace(f.end, 0, -1)


def test_integrals_and_moments():
    f = PiecewisePoly.from_global((0, 1), (0, 2))  # t on (0, 2)
    assert _integral(f) == 2
    assert _integral(f.restricted(0, 1)) == F(1, 2)
    assert _integral(f.restricted(F(1, 2), 1)) == F(3, 8)


def test_shift_restrict_traces_jumps():
    f = PiecewisePoly.from_pieces((0, 1, 2), [(0, 1), (3, -1)])  # t then 3-x
    assert f.trace(1, 0, -1) == 1
    assert f.trace(1, 0, 1) == 3
    assert f.jump(1, 0) == 2
    assert f.jump(1, 1) == -2
    assert f.value(F(1, 2)) == F(1, 2)
    with pytest.raises(ValueError):
        f.value(1)  # genuinely two-valued at the jump

    g = f.shifted(5)
    assert g.breaks == (5, 6, 7)
    assert g.value(F(11, 2)) == F(1, 2)

    r = f.restricted(F(1, 2), F(3, 2))
    assert (r.start, r.end) == (F(1, 2), F(3, 2))
    assert r.trace(F(3, 2), 0, -1) == f.trace(F(3, 2), 0, -1)


def test_point_queries_off_the_node_grid_and_at_a_break():
    # 1 + 2x on [0, 1/2), 5 + 3x^2 on [1/2, 2): nodes 0, 1, 4 over scale 2
    f = PiecewisePoly.from_pieces((0, F(1, 2), 2), [(1, 2), (5, 0, 3)])
    assert (f.nodes, f.scale) == ((0, 1, 4), 2)
    # thirds: the scale 2 does not divide the denominator 3
    for side in (1, -1):
        assert f.trace(F(1, 3), 0, side) == F(5, 3) and f.trace(F(1, 3), 1, side) == 2
        assert f.trace(F(4, 3), 0, side) == F(85, 12) and f.trace(F(4, 3), 1, side) == 5
    assert f.value(F(1, 3)) == F(5, 3) and f.value(F(4, 3)) == F(85, 12)
    assert f.jump(F(1, 3)) == 0 and f.jump(F(4, 3), 2) == 0
    # the break 1/2, from both sides
    assert (f.trace(F(1, 2), 0, -1), f.trace(F(1, 2), 0, 1)) == (2, 5)
    assert (f.trace(F(1, 2), 1, -1), f.trace(F(1, 2), 1, 1)) == (2, 0)
    assert (f.trace(F(1, 2), 2, -1), f.trace(F(1, 2), 2, 1)) == (0, 6)
    assert (f.jump(F(1, 2)), f.jump(F(1, 2), 1), f.jump(F(1, 2), 2)) == (3, -2, 6)
    with pytest.raises(ValueError, match="jumps at 1/2 \\(left 2, right 5\\)"):
        f.value(F(1, 2))
    # the ends have one side each
    assert (f.value(0), f.value(2)) == (1, F(47, 4))
    for t, side, message in ((0, -1, "no left limit at 0"), (2, 1, "no right limit at 2"),
                             (F(-1, 3), 1, "no right limit at -1/3"), (F(7, 3), -1, "no left limit at 7/3")):
        with pytest.raises(ValueError, match=message):
            f.trace(t, 0, side)
    with pytest.raises(ValueError, match="point 7/3 outside domain"):
        f.value(F(7, 3))


def test_shifted_by_a_third_of_a_function_on_halves():
    f = PiecewisePoly.from_pieces((0, F(1, 2), 1), [(1,), (2, 1)])
    g = f.shifted(F(1, 3))
    assert (g.nodes, g.scale) == ((2, 5, 8), 6)
    assert g.breaks == (F(1, 3), F(5, 6), F(4, 3))
    assert g.forms == f.forms
    assert (g.trace(F(5, 6), 0, -1), g.trace(F(5, 6), 0, 1), g.value(F(4, 3))) == (1, 2, F(5, 2))
    back = g.shifted(F(-1, 3))
    assert (back.nodes, back.scale) == ((0, 1, 2), 2)
    # a shift onto whole units comes back over scale 1
    h = PiecewisePoly.constant(1, F(1, 2), F(3, 2)).shifted(F(1, 2))
    assert (h.nodes, h.scale) == ((1, 2), 1)


def test_concat_of_parts_over_halves_and_thirds():
    left = PiecewisePoly.from_pieces((0, F(1, 2), 1), [(1,), (2,)])
    right = PiecewisePoly.from_pieces((1, F(4, 3), 2), [(3,), (4, 1)])
    f = concat([left, right])
    assert (f.nodes, f.scale) == ((0, 3, 6, 8, 12), 6)
    assert f.breaks == (0, F(1, 2), 1, F(4, 3), 2)
    assert f.pieces == left.pieces + right.pieces
    with pytest.raises(ValueError, match="parts are not adjacent: 0 != 2"):
        concat([right, left])


def test_restricted_to_a_third_and_a_half_of_a_function_with_integer_breaks():
    f = PiecewisePoly.from_global((1, 2, 3), (0, 1, 2))
    g = f.restricted(F(1, 3), F(1, 2))
    assert (g.nodes, g.scale) == ((2, 3), 6)
    assert g.breaks == (F(1, 3), F(1, 2))
    assert g.same(PiecewisePoly.from_global((1, 2, 3), (F(1, 3), F(1, 2))))
    # a restriction to whole units comes back over scale 1
    h = f.refined([F(1, 2)]).restricted(1, 2)
    assert (h.nodes, h.scale) == ((1, 2), 1)


def test_value_at_continuous_break_is_allowed():
    f = PiecewisePoly.from_global((0, 1), (0, 2)).refined([1])
    assert f.value(1) == 1


def test_sample_takes_right_limits_and_rejects_points_off_its_walk():
    f = PiecewisePoly.from_pieces((0, 1, 2), [(0, 1), (3, -1)])  # t then 3-x
    assert f.sample(0, F(1, 2), 4) == [0.0, 0.5, 3.0, 2.5]
    assert f.sample(F(2, 3), F(1, 3), 3) == [2 / 3, 3.0, 3 - 1 / 3]
    assert f.sample(F(3, 2), 5, 1) == [2.5]
    assert f.sample(0, 1, 0) == []
    # the first point before start, the last one at or past end
    for start, step, count in ((F(-1, 2), 1, 1), (2, 1, 1), (0, F(1, 2), 5), (1, F(3, 7), 4)):
        with pytest.raises(ValueError, match="outside"):
            f.sample(start, step, count)
    for start, step, count in ((0, 0, 1), (0, F(-1, 2), 1), (0, 1, -1)):
        with pytest.raises(ValueError, match="positive step"):
            f.sample(start, step, count)


def test_concat_and_zero_extension():
    left = PiecewisePoly.constant(2, -1, 0)
    right = PiecewisePoly.from_global((0, 1), (0, 2))
    both = concat([left, right])
    assert (both.start, both.end) == (F(-1), F(2))
    assert both.trace(0, 0, -1) == 2 and both.trace(0, 0, 1) == 0
    with pytest.raises(ValueError):
        concat([left, left])

    z = zero_extension(right, -2, 5)
    assert z.value(F(-1)) == 0 and z.value(F(4)) == 0
    assert z.value(F(1, 2)) == F(1, 2)
    with pytest.raises(ValueError):
        zero_extension(right, 1, 5)


# -- the difference operator --------------------------------------------------


def test_apply_difference_matches_the_definition():
    # (R v)(t) = sum_j b_j v(t + j) with v extended by zero outside (0, N+1)
    stencil = Stencil.from_coeffs((1, 0, 1))
    v = PiecewisePoly.from_global((0, 1), (0, 2))  # v(t) = t
    w = apply_difference(stencil, v)
    # on (0, 1): only v(t+1) contributes, = t + 1; on (1, 2): only v(t-1) = t - 1
    assert w.trace(F(1, 2), 0, 1) == F(3, 2)
    assert w.trace(F(3, 2), 0, 1) == F(1, 2)
    assert w.trace(1, 0, -1) == 2
    assert w.trace(1, 0, 1) == 0
    assert w.jump(1, 0) == -2


def test_apply_difference_general_stencil_pointwise():
    rng = random.Random(17)
    stencil = Stencil.from_coeffs((0, 1, 1, 1, 2))
    v = PiecewisePoly.from_pieces(
        (0, 1, 2, 3), [_rand_coeffs(rng, 2) for _ in range(3)]
    )
    w = apply_difference(stencil, v)
    for t in (F(1, 3), F(4, 3), F(5, 2), F(17, 6)):
        expected = F(0)
        for j in range(-2, 3):
            shifted_arg = t + j
            if F(0) < shifted_arg < F(3):
                expected += stencil.b(j) * v.value(shifted_arg)
        assert w.value(t) == expected


def test_apply_difference_inverse_round_trip():
    rng = random.Random(19)
    for coeffs in ((1, 0, 1), (0, 1, 1, 1, 2), (1, 1, 2, 4, 4)):
        stencil = Stencil.from_coeffs(coeffs)
        n = stencil.N
        w = PiecewisePoly.from_pieces(
            tuple(range(0, n + 2)), [_rand_coeffs(rng, 3) for _ in range(n + 1)]
        )
        structure = analyze(stencil)
        v = apply_difference_inverse(structure, w)
        assert apply_difference(stencil, v).same(w)
        assert apply_difference_inverse(structure, apply_difference(stencil, v)).same(v)


def test_apply_shifted_sum_uses_the_outside_data():
    stencil = Stencil.from_coeffs((1, 0, 1))
    # y lives on (-1, 3); inside (0, 2) it is zero, outside it is 1
    y = concat([
        PiecewisePoly.constant(1, -1, 0),
        PiecewisePoly.zero(0, 2),
        PiecewisePoly.constant(1, 2, 3),
    ])
    w = apply_shifted_sum(stencil, y)
    assert (w.start, w.end) == (F(0), F(2))
    # on (0, 1): b_{-1} y(t-1) + b_1 y(t+1) = 1 * 1 + 1 * 0 = 1
    assert w.trace(F(1, 2), 0, 1) == 1
    # on (1, 2): y(t-1) = 0, y(t+1) = 1
    assert w.trace(F(3, 2), 0, 1) == 1


def test_operators_reject_functions_on_the_wrong_interval():
    stencil = Stencil.from_coeffs((1, 0, 1))
    structure = analyze(stencil)
    for a, b in ((0, 3), (F(1, 2), 2), (-1, 2)):
        f = PiecewisePoly.from_global((0, 1), (a, b))
        with pytest.raises(ValueError):
            apply_difference(stencil, f)
        with pytest.raises(ValueError):
            apply_difference_inverse(structure, f)
    for a, b in ((0, 2), (-1, 2), (-1, F(7, 2))):
        with pytest.raises(ValueError):
            apply_shifted_sum(stencil, PiecewisePoly.constant(1, a, b))


# -- smoothness classes -------------------------------------------------------


def test_trace_defects_and_zero_trace_class():
    # t(2 - t) on (0, 2): zero endpoint values, nonzero endpoint slopes
    f = PiecewisePoly.from_global((0, 2, -1), (0, 2))
    assert not trace_defects(f, 1)
    assert trace_defects(f, 2)
    defects = trace_defects(f, 2)
    assert [(kind, node, order) for kind, node, order, _ in defects] == [
        ("endpoint", F(0), 1),
        ("endpoint", F(2), 1),
    ]
    assert defects[0][3] == 2 and defects[1][3] == -2

    # an interior kink of the first derivative also leaves the class at k = 2
    kinked = PiecewisePoly.from_pieces((0, 1, 2), [(0, 0, 1), (1, 0, -1)])
    assert not trace_defects(kinked, 1)
    assert trace_defects(kinked, 2)


def test_smoothness_defects_and_smooth_class():
    smooth = PiecewisePoly.from_global((1, 2, 3), (0, 2)).refined([1])
    assert not smoothness_defects(smooth, 4)
    assert smoothness_defects(smooth, 4) == []

    step = PiecewisePoly.from_pieces((0, 1, 2), [(0,), (1,)])
    assert smoothness_defects(step, 1)
    assert smoothness_defects(step, 1) == [(F(1), 0, F(1))]
    # smoothness at k = 0 only requires piecewise membership, no matching
    assert not smoothness_defects(step, 0)
