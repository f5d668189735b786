"""Node functionals: evaluation semantics, family counts, elimination, identities."""

import random
from fractions import Fraction

import pytest

from ddbvp import exactla
from ddbvp.functionals import (
    NodeFunctional,
    eliminate_constants,
    image_functionals,
    membership_functionals,
    rank_of_functionals,
    solvability_constraints,
)
from ddbvp.piecewise import PiecewisePoly, apply_difference_inverse
from ddbvp.structure import Stencil, analyze
from ddbvp.verification import named_stencils

F = Fraction

DEPENDENT = (Stencil.from_coeffs((1, 0, 1)), Stencil.from_coeffs((1, 1, 2, 4, 4)))
INDEPENDENT = Stencil.from_coeffs((0, 1, 1, 1, 2))


def _rand_global(rng, degree, interval):
    coeffs = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1))
    return PiecewisePoly.from_global(coeffs, interval)


def test_evaluate_uses_one_sided_limits_at_the_endpoints():
    fn = NodeFunctional(terms=((F(0), 0, F(1)), (F(2), 1, F(3))), label="probe")
    f = PiecewisePoly.from_global((1, 2, 1), (0, 2))  # (1 + t)^2
    # value at 0 plus 3 * derivative at 2: 1 + 3 * 6
    assert fn.evaluate(f) == 19


def test_evaluate_rejects_a_jump_at_a_touched_interior_node():
    fn = NodeFunctional(terms=((F(1), 0, F(1)),), label="middle value")
    step = PiecewisePoly.from_pieces((0, 1, 2), [(0,), (1,)])
    with pytest.raises(ValueError, match="jumps at node 1"):
        fn.evaluate(step)
    # an untouched jump is fine
    other = NodeFunctional(terms=((F(2), 0, F(1)),), label="right end")
    assert other.evaluate(step) == 1
    # zero-weight terms are ignored entirely
    pruned = NodeFunctional(terms=((F(1), 0, F(0)), (F(2), 0, F(1))), label="pruned")
    assert pruned.evaluate(step) == 1


def test_evaluate_names_both_limits_of_a_derivative_jump():
    # x^3 / 3 on (0, 1/2), zero on (1/2, 2): second derivatives 1 and 0 at t = 1/2
    f = PiecewisePoly.from_pieces((0, F(1, 2), 2), [(0, 0, 0, F(1, 3)), (0,)])
    fn = NodeFunctional(terms=((F(1, 2), 2, F(1)),), label="curvature")
    message = "derivative of order 2 jumps at node 1/2 (left 1, right 0); functional 'curvature' is undefined there"
    with pytest.raises(ValueError) as caught:
        fn.evaluate(f)
    assert str(caught.value) == message
    # off the breaks and at the ends each atom is one limit
    probe = NodeFunctional(terms=((F(0), 0, F(1)), (F(1, 3), 1, F(3)), (F(2), 0, F(5))), label="probe")
    assert probe.evaluate(f) == 3 * f.trace(F(1, 3), 1, 1)


def test_on_monomial_agrees_with_evaluate_on_global_polynomials():
    rng = random.Random(23)
    fn = NodeFunctional(
        terms=((F(0), 0, F(2)), (F(1), 1, F(-3)), (F(2), 2, F(1, 2))),
        label="probe",
    )
    for d in range(6):
        coeffs = [F(0)] * d + [F(1)]
        mono = PiecewisePoly.from_global(coeffs, (0, 2))
        assert fn.on_monomial(d) == fn.evaluate(mono)


def test_membership_functional_counts_and_worked_form():
    structure = analyze(Stencil.from_coeffs((1, 0, 1)))
    for k in range(4):
        fns = membership_functionals(structure.gamma, k)
        assert len(fns) == 2 * k

    edge, interior = membership_functionals(structure.gamma, 1)
    # w(2) - w(0) and w(1) for this stencil (leading node listed first)
    assert edge.terms == ((F(2), 0, F(1)), (F(0), 0, F(-1)))
    assert interior.terms == ((F(1), 0, F(1)),)

    alt_edge, alt_interior = membership_functionals(structure.alt_gamma, 1)
    assert alt_edge.terms == ((F(0), 0, F(1)), (F(2), 0, F(-1)))
    assert alt_interior.terms == interior.terms

    with pytest.raises(ValueError):
        membership_functionals(structure.gamma, -1)


def test_image_functional_counts_match_the_dependency_split():
    for k in (0, 1, 2):
        for s in DEPENDENT:
            fns = image_functionals(analyze(s), k)
            assert len(fns) == k + 3
            assert rank_of_functionals(fns) == k + 3
        fns = image_functionals(analyze(INDEPENDENT), k)
        assert len(fns) == 2 * (k + 2)
        assert rank_of_functionals(fns) == 2 * (k + 2)


def test_cofactor_functional_measures_the_preimage_jump():
    # for any w smooth across the interior nodes, the order-mu cofactor
    # condition evaluates to det(R1) times the jump of the mu-th derivative
    # of the preimage at the admissible node l
    rng = random.Random(29)
    for s in DEPENDENT:
        structure = analyze(s)
        n = s.N
        l = structure.ends.l
        det_r1 = s.det_r1
        fns = image_functionals(structure, 2)
        cof = {fn.label: fn for fn in fns}
        for trial in range(5):
            w = _rand_global(rng, 4, (0, n + 1))
            v = apply_difference_inverse(structure, w).refined(range(1, n + 1))
            for mu in (1, 2, 3):
                got = cof["cofactor[mu=%d]" % mu].evaluate(w)
                assert got == det_r1 * v.jump(l, mu)


def _scaled(fn, s):
    """fn with every weight multiplied by s."""
    return NodeFunctional(tuple((node, mu, s * w) for node, mu, w in fn.terms), fn.label)


def test_rank_certification_probe_guard():
    fn = NodeFunctional(terms=((F(0), 3, F(1)),), label="third derivative at 0")
    assert rank_of_functionals([fn]) == 1
    assert rank_of_functionals([]) == 0

    # a duplicated functional cannot raise the rank
    assert rank_of_functionals([fn, _scaled(fn, F(2))]) == 1


def test_rank_is_read_off_the_atom_weights():
    d0 = NodeFunctional(((F(0), 1, F(1)),), "w'(0)")
    d1 = NodeFunctional(((F(1), 1, F(1)),), "w'(1)")
    # equal on every polynomial of degree <= 1, yet independent
    assert [d0.on_monomial(d) for d in (0, 1)] == [d1.on_monomial(d) for d in (0, 1)]
    assert rank_of_functionals([d0, d1]) == 2
    # repeated atoms sum, and a functional whose weights cancel is zero
    halves = NodeFunctional(((F(0), 1, F(1, 2)), (F(0), 1, F(1, 2))), "halves")
    assert rank_of_functionals([d0, halves]) == 1
    cancel = NodeFunctional(((F(1), 0, F(1)), (F(1), 0, F(-1))), "cancel")
    assert rank_of_functionals([cancel]) == 0
    # a mixed-order functional links the orders it touches
    mixed = NodeFunctional(((F(0), 1, F(1)), (F(1), 0, F(1))), "mixed")
    value = NodeFunctional(((F(1), 0, F(-1)),), "-w(1)")
    assert rank_of_functionals([d0, mixed, value]) == 2
    assert rank_of_functionals([d1, mixed, value]) == 3


def test_eliminate_constants_residuals_kill_linear_functions():
    structure = analyze(Stencil.from_coeffs((0, 1, 1, 1, 2)))
    stack = membership_functionals(structure.gamma, 2)
    dc = eliminate_constants(stack)
    d_block = [[fn.on_monomial(1), fn.on_monomial(0)] for fn in stack]
    assert dc.count == len(dc.weights) == len(stack) - exactla.rank(d_block)
    assert dc.rank == exactla.rank(d_block) == 2
    for u in dc.weights:
        assert len(u) == len(stack)
        assert any(u)
        for col in (0, 1):
            assert sum(a * row[col] for a, row in zip(u, d_block)) == 0


def test_violations_equal_the_merged_residual_functionals():
    # u . (stack values on I) is the residual functional sum_i u_i stack[i]
    # applied to I, whatever I is; a linear I violates nothing
    rng = random.Random(31)
    for s in DEPENDENT + (INDEPENDENT,):
        structure = analyze(s)
        n = s.N
        for dc in solvability_constraints(structure, 1):
            linear = _rand_global(rng, 1, (0, n + 1))
            assert dc.violations([fn.evaluate(linear) for fn in dc.stack]) == ()
            for trial in range(3):
                f = _rand_global(rng, 5, (0, n + 1))
                values = [fn.evaluate(f) for fn in dc.stack]
                expected = []
                for j, u in enumerate(dc.weights):
                    value = sum(
                        (a * w * f.trace(node, mu, 1 if node < n + 1 else -1)
                         for a, fn in zip(u, dc.stack) for node, mu, w in fn.terms),
                        F(0),
                    )
                    if value != 0:
                        expected.append(("data constraint %d" % j, value))
                assert dc.violations(values) == tuple(expected)


def test_violations_refuse_a_value_vector_of_the_wrong_length():
    # a short vector used to be zipped away: violations([]) returned (), which reads as "solvable"
    zero_trace, _ = solvability_constraints(analyze(Stencil.from_coeffs((1, 1, 2, 4, 4))), 1)
    assert len(zero_trace.stack) == 6
    for values in ([], [F(1)] * 5, [F(1)] * 7):
        with pytest.raises(ValueError, match="expected 6 stack values, got %d" % len(values)):
            zero_trace.violations(values)
    assert zero_trace.violations([F(0)] * 6) == ()


def test_solvability_constraint_counts_match_the_index_table():
    for s in list(named_stencils()):
        structure = analyze(s)
        for k in (0, 1):
            table = structure.index_table(k)
            zt, mn = solvability_constraints(structure, k)
            assert zt.count == table.codim_zero_trace_domain == 2 * (k + 1)
            expected_min = (k + 1) if structure.ends.dependent else 2 * (k + 1)
            assert mn.count == table.codim_minimal_domain == expected_min
            assert zt.rank == mn.rank == 2


def test_independent_case_minimal_and_zero_trace_stacks_coincide():
    structure = analyze(INDEPENDENT)
    for k in (0, 1):
        zt, mn = solvability_constraints(structure, k)
        assert mn is zt
        assert [fn.terms for fn in zt.stack] == [fn.terms for fn in membership_functionals(structure.gamma, k + 2)]
        assert [fn.terms for fn in mn.stack] == [fn.terms for fn in image_functionals(structure, k)]


def test_dependent_case_minimal_stack_is_the_image_set():
    for s in DEPENDENT:
        structure = analyze(s)
        for k in (0, 1, 2):
            zt, mn = solvability_constraints(structure, k)
            assert mn is not zt
            assert [fn.terms for fn in zt.stack] == [fn.terms for fn in membership_functionals(structure.gamma, k + 2)]
            assert [fn.terms for fn in mn.stack] == [fn.terms for fn in image_functionals(structure, k)]
            # both stacks open with the two order-zero boundary relations
            boundary = [fn.terms for fn in membership_functionals(structure.gamma, 1)]
            assert [fn.terms for fn in zt.stack[:2]] == boundary == [fn.terms for fn in mn.stack[:2]]
