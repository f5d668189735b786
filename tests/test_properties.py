"""Property tests for the exact identities the structure report relies on.

Stencils are built inside the supported regime by construction:
b_0 = ... = b_{N-1} = 0 makes R2 strictly lower triangular (det R2 = 0), and
b_{-1}, b_N != 0 leave det R1 = +-b_N * b_{-1}^N != 0.  Rejection sampling
would almost never hit det R2 = 0 once N grows.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ddbvp import exactla
from ddbvp.piecewise import PiecewisePoly, apply_difference, apply_difference_inverse
from ddbvp.structure import Stencil, analyze, cofactor

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero = rationals.filter(lambda x: x != 0)


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
