"""Property tests for the exact identities the exact path relies on.

Stencils are built inside the supported regime by construction:
b_0 = ... = b_{N-1} = 0 makes R2 strictly lower triangular (det R2 = 0), and
b_{-1}, b_N != 0 leave det R1 = +-b_N * b_{-1}^N != 0.  Rejection sampling
would almost never hit det R2 = 0 once N grows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddbvp import exactla
from ddbvp.piecewise import (
    PiecewisePoly,
    apply_difference,
    apply_difference_inverse,
    apply_shifted_sum,
    linear_combination,
)
from ddbvp.solver import BVPProblem, solve_nonhomogeneous
from ddbvp.structure import Stencil, analyze, cofactor

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
def supported_stencils(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
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


@SETTINGS
@given(supported_stencils())
def test_cofactor_from_adjugate_equals_signed_minor_determinant(stencil):
    report = analyze(stencil)
    r1 = report.matrix.r1
    size = report.matrix.size
    for i in range(1, size + 1):
        for k in range(1, size + 1):
            minor = [[r1[r][c] for c in range(size) if c != k - 1] for r in range(size) if r != i - 1]
            sign = -1 if (i + k) % 2 else 1
            assert cofactor(report, i, k) == sign * exactla.det(minor)


@SETTINGS
@given(stencil_and_data())
def test_difference_operator_undoes_its_inverse_exactly(case):
    stencil, w = case
    assert apply_difference(stencil, apply_difference_inverse(analyze(stencil), w)).same(w)


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


@SETTINGS
@given(sampled_functions())
def test_sample_is_the_correctly_rounded_right_limit(case):
    f, points = case
    expected = [float(f.trace(t, 0, +1)).hex() for t in points]
    assert [x.hex() for x in f.sample(points)] == expected


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
