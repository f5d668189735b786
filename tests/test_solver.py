"""Boundary value solver: exactness invariants, kernels, extensions, reports."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ddbvp import functionals, solver, structure
from ddbvp.functionals import solvability_constraints
from ddbvp.piecewise import (
    PiecewisePoly,
    apply_difference,
    apply_difference_inverse,
    apply_shifted_sum,
    smoothness_defects,
    trace_defects,
)
from ddbvp.solver import (
    BVPProblem,
    SolveStatus,
    hermite_extension,
    index_report,
    kernel_certificate,
    solve_homogeneous,
    solve_nonhomogeneous,
)
from ddbvp.structure import Stencil, analyze
from ddbvp.verification import named_stencils, random_zero_trace_function

F = Fraction

RANK_ONE = Stencil.from_coeffs((1, 0, -1))


def _is_zero(f):
    return all(c == (Fraction(0),) for c in f.pieces)


def _solution_invariants(problem, family):
    """The properties every successful solve must satisfy exactly."""
    n = problem.stencil.N
    v, w = family.v, family.w
    # the equation itself: w = R v and -w'' = f0
    assert apply_difference(problem.stencil, v).same(w)
    assert _is_zero(w.derivative(2) + problem.f0)
    # Dirichlet part of the generalized problem (homogeneous data here)
    assert v.trace(0, 0, 1) == 0
    assert v.trace(n + 1, 0, -1) == 0
    # v is continuous: a W^1 function cannot jump
    for t in v.breaks[1:-1]:
        assert v.jump(t, 0) == 0


def test_solve_homogeneous_invariants_on_named_stencils():
    for s in named_stencils():
        f0 = PiecewisePoly.from_global((1, 1), (0, s.N + 1))
        problem = BVPProblem(stencil=s, k=0, f0=f0)
        family = solve_homogeneous(problem)
        assert family.status is SolveStatus.UNIQUE
        assert family.boundary_rank == 2
        assert family.kernel == ()
        _solution_invariants(problem, family)


def test_solver_recovers_a_constructed_smooth_solution_exactly():
    # manufacture data from a function in the order-(k+2) zero-trace class;
    # with a rank-2 boundary matrix the solver must return that function bit
    # for bit, and the smoothness report must notice the data is solvable
    rng = random.Random(41)
    for s in named_stencils():
        for k in (0, 1):
            v_true = random_zero_trace_function(s.N + 1, k + 2, rng)
            w_true = apply_difference(s, v_true)
            f0 = -w_true.derivative(2)
            problem = BVPProblem(stencil=s, k=k, f0=f0)
            family = solve_homogeneous(problem)
            assert family.status is SolveStatus.UNIQUE
            assert family.v.same(v_true)
            assert family.w.same(w_true)
            report = family.smoothness
            assert report.zero_trace_solvable is True
            assert report.minimal_solvable is True
            assert report.smooth_interior
            assert all(value == 0 for _, _, value in report.node_jumps)
            assert not trace_defects(family.v, k + 2)


def test_generic_data_breaks_smoothness_but_solves():
    # f0 = 1: the worked problem's jump appears and both solvable flags go off
    problem = BVPProblem(
        stencil=Stencil.from_coeffs((1, 0, 1)), k=0, f0=PiecewisePoly.constant(1, 0, 2)
    )
    family = solve_homogeneous(problem)
    _solution_invariants(problem, family)
    assert family.smoothness.zero_trace_solvable is False
    assert family.smoothness.minimal_solvable is False
    assert family.smoothness.node_jumps == ((F(1), 1, F(2)),)


def test_offgrid_data_breaks_stay_out_of_the_tracked_orders():
    # an f0 jump off the node grid moves into derivatives of v beyond order
    # k+1, so the report records no off-grid defects and v stays C^1 there
    f0 = PiecewisePoly.from_pieces((0, F(1, 2), 2), [(1,), (3,)])
    problem = BVPProblem(stencil=Stencil.from_coeffs((1, 0, 1)), k=0, f0=f0)
    family = solve_homogeneous(problem)
    _solution_invariants(problem, family)
    assert family.smoothness.offgrid_defects == ()
    assert family.v.jump(F(1, 2), 0) == 0
    assert family.v.jump(F(1, 2), 1) == 0
    assert family.v.jump(F(3, 2), 1) == 0


def test_one_solve_reads_each_jump_table_once(monkeypatch):
    # ``jumps`` and ``smoothness_defects`` both read the integer jump table ``_jump_ratios``
    tables, points, defects = [], [], []
    ratios, jump, smoothness = PiecewisePoly._jump_ratios, PiecewisePoly.jump, solver.smoothness_defects
    monkeypatch.setattr(PiecewisePoly, "_jump_ratios", lambda f, count: tables.append((f, count)) or ratios(f, count))
    monkeypatch.setattr(PiecewisePoly, "jump", lambda f, t, order=0: points.append(f) or jump(f, t, order))
    monkeypatch.setattr(solver, "smoothness_defects", lambda f, k: defects.append((f, k)) or smoothness(f, k))
    k = 1
    problem = BVPProblem(
        stencil=Stencil.from_coeffs((1, 0, 1)), k=k, f0=PiecewisePoly.constant(1, 0, 2), f1=(1, 2), f2=(3,)
    )
    family = solve_nonhomogeneous(problem)
    # the Hermite extension's self-check and the reduced data, once each
    assert [order for _, order in defects] == [k + 2, k]
    # the smoothness report reads the one table of y, seams included
    assert [count for f, count in tables if f is family.extension] == [k + 2]
    assert len(tables) == 3
    assert points == []


def test_one_solve_reads_each_node_jet_once_per_distinct_stack(monkeypatch):
    # on smooth data a solve evaluates the zero-trace stack (2(k+2) members,
    # the boundary pair first) in one pass and, when the end columns are
    # dependent, the other k+1 members of the minimal stack in another, so a
    # (function, node, side) jet is read at most once per distinct stack;
    # reading functional by functional reads the jet at N+1 once per order
    reads = []
    taylor_jet = PiecewisePoly.taylor_jet
    monkeypatch.setattr(
        PiecewisePoly, "taylor_jet",
        lambda f, t, count, side: reads.append((id(f), t, side)) or taylor_jet(f, t, count, side),
    )
    for s in named_stencils():
        dependent = analyze(s).ends.dependent
        for k in (0, 1, 2):
            for f1, f2 in (((0,), (0,)), ((1, 2), (3,))):
                f0 = PiecewisePoly.from_global((1, 1), (0, s.N + 1))
                problem = BVPProblem(stencil=s, k=k, f0=f0, f1=f1, f2=f2)
                reads.clear()
                family = solve_nonhomogeneous(problem)
                assert family.status is not SolveStatus.INFEASIBLE
                assert family.smoothness.data_smooth
                counts = Counter(reads)
                assert len({f for f, _, _ in counts}) == 1  # all off the double antiderivative
                assert (reads[0][0], F(s.N + 1), -1) in counts  # the edge relations' node
                assert max(counts.values()) <= (2 if dependent else 1)


def test_constraint_stacks_are_built_only_for_smooth_data(monkeypatch):
    # rough data reads the boundary pair alone; smooth data reads it as the head
    # of the zero-trace stack, so the stacks are built once per problem and no
    # membership stack twice; an infeasible boundary system never builds the minimal stack
    calls, builds = [], []
    monkeypatch.setattr(solver, "solvability_constraints", lambda *a: calls.append(a) or solvability_constraints(*a))
    build = functionals.membership_functionals
    for module in (solver, functionals):
        monkeypatch.setattr(module, "membership_functionals", lambda gamma, k: builds.append(k) or build(gamma, k))
    rough = PiecewisePoly.from_pieces((0, F(1, 3), 2), ((1,), (2,)))
    smooth = PiecewisePoly.from_global((1, 1), (0, 2))
    extensions = (((0,), (0,)), ((1, 2), (3,)))
    cases = [(Stencil.from_coeffs((1, 0, 1)), f0, f1, f2) for f0 in (rough, smooth) for f1, f2 in extensions]
    cases.append((RANK_ONE, smooth, (0,), (0,)))
    for stencil, f0, f1, f2 in cases:
        calls.clear()
        builds.clear()
        problem = BVPProblem(stencil=stencil, k=1, f0=f0, f1=f1, f2=f2)
        family = solve_nonhomogeneous(problem)
        smooth_data = f0 is smooth
        assert family.status is (SolveStatus.INFEASIBLE if stencil is RANK_ONE else SolveStatus.UNIQUE)
        if family.smoothness is not None:
            assert family.smoothness.data_smooth is smooth_data
        # N = 1 has dependent end columns: the minimal stack opens with the mu = 0 pair
        stacks = [3] if family.status is SolveStatus.INFEASIBLE else [3, 1]
        assert (len(calls), builds) == ((1, stacks) if smooth_data else (0, [1]))
        solve_nonhomogeneous(problem)  # a second solve of the same problem builds no stack
        assert (len(calls), builds) == ((1, stacks) if smooth_data else (0, [1, 1]))


def test_infeasible_smooth_solve_builds_no_minimal_stack(monkeypatch):
    # the INFEASIBLE return reads only the head of the zero-trace stack: no
    # image_functionals (and its cofactors), and only the boundary pair eliminated
    images, eliminated = [], []
    image, eliminate = functionals.image_functionals, functionals.eliminate_constants
    monkeypatch.setattr(functionals, "image_functionals", lambda *a: images.append(a) or image(*a))
    for module in (solver, functionals):
        monkeypatch.setattr(module, "eliminate_constants", lambda fns: eliminated.append(len(fns)) or eliminate(fns))
    for k in (0, 2, 6):
        images.clear()
        eliminated.clear()
        stencil = Stencil.from_coeffs((1, 0, -1))
        problem = BVPProblem(stencil=stencil, k=k, f0=PiecewisePoly.constant(1, 0, stencil.N + 1))
        assert stencil.structure.ends.dependent
        assert solve_nonhomogeneous(problem).status is SolveStatus.INFEASIBLE
        assert (images, eliminated) == ([], [2]), k
        # the report reads both stacks, and builds each on that first read
        assert index_report(problem).all_ok
        assert len(images) == 1 and eliminated == [2, 2 * (k + 2), len(problem.constraints.minimal.stack)], k


def test_each_class_reads_its_residuals_off_its_own_stack():
    # with dependent end columns the two classes have different stacks; each
    # residual is a weight vector of its own stack applied term by term to I
    rng = random.Random(43)
    for b in ((1, 0, 1), (1, 1, 2, 4, 4)):
        s = Stencil.from_coeffs(b)
        structure = analyze(s)
        for k in (0, 1):
            coeffs = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
            f0 = PiecewisePoly.from_global(coeffs, (0, s.N + 1))
            problem = BVPProblem(stencil=s, k=k, f0=f0)
            report = solve_nonhomogeneous(problem).smoothness
            assert report.data_smooth
            second = problem.f0.antiderivative().antiderivative()
            stacks = solvability_constraints(structure, k)
            for dc, got in zip(stacks, (report.zero_trace_residuals, report.minimal_residuals)):
                expected = []
                for j, u in enumerate(dc.weights):
                    value = sum(
                        (a * w * second.trace(node, mu, 1 if node < s.N + 1 else -1)
                         for a, fn in zip(u, dc.stack) for node, mu, w in fn.terms),
                        F(0),
                    )
                    if value != 0:
                        expected.append(("data constraint %d" % j, value))
                assert got == tuple(expected)
            assert [dc.count for dc in stacks] == [2 * (k + 1), k + 1]
            assert report.zero_trace_residuals and report.minimal_residuals


def test_problem_validation():
    s = Stencil.from_coeffs((1, 0, 1))
    with pytest.raises(ValueError, match="k must be >= 0"):
        BVPProblem(stencil=s, k=-1, f0=PiecewisePoly.constant(1, 0, 2))
    with pytest.raises(ValueError, match="must live on"):
        BVPProblem(stencil=s, k=0, f0=PiecewisePoly.constant(1, 0, 3))

    # breakpoints are refined onto the node grid at construction
    problem = BVPProblem(stencil=s, k=0, f0=PiecewisePoly.constant(1, 0, 2))
    assert problem.f0.breaks == (0, 1, 2)

    with pytest.raises(ValueError, match="solve_nonhomogeneous"):
        solve_homogeneous(
            BVPProblem(stencil=s, k=0, f0=PiecewisePoly.constant(1, 0, 2), f1=(1,))
        )


def test_infeasible_problem_reports_exact_residuals():
    problem = BVPProblem(stencil=RANK_ONE, k=0, f0=PiecewisePoly.constant(1, 0, 2))
    family = solve_homogeneous(problem)
    assert family.status is SolveStatus.INFEASIBLE
    assert family.boundary_rank == 1
    assert family.v is None and family.w is None and family.d is None
    assert family.residuals
    for _, value in family.residuals:
        assert value != 0


def test_affine_family_with_explicit_kernel_direction():
    # f0 = t - 1 satisfies the one solvability constraint of the rank-1
    # boundary matrix, so the solution set is a line; its direction is the
    # hat function, the preimage of w = t - 1
    f0 = PiecewisePoly.from_global((-1, 1), (0, 2))
    problem = BVPProblem(stencil=RANK_ONE, k=0, f0=f0)
    family = solve_homogeneous(problem)
    assert family.status is SolveStatus.AFFINE
    assert family.boundary_rank == 1
    assert len(family.kernel) == 1
    _solution_invariants(problem, family)

    direction = family.kernel[0]
    vk = direction.v
    # the direction solves the homogeneous problem: R vk is linear with the
    # recorded coefficients, vk is continuous and has zero endpoint traces
    wk = apply_difference(RANK_ONE, vk)
    assert wk.same(
        PiecewisePoly.from_global((direction.c[1], direction.c[0]), (0, 2))
    )
    assert _is_zero(wk.derivative(2))
    assert vk.trace(0, 0, 1) == 0 and vk.trace(2, 0, -1) == 0
    assert vk.jump(1, 0) == 0
    assert vk.jump(1, 1) != 0  # a genuine hat: the kink is what keeps it nontrivial

    # shifting the particular solution along the kernel keeps the equation
    shifted = family.v + vk.scaled(F(7, 3))
    assert _is_zero(apply_difference(RANK_ONE, shifted).derivative(2) + problem.f0)


def test_kernel_certificate_ranks():
    for s in named_stencils():
        cert = kernel_certificate(analyze(s))
        assert cert.rank == 2
        assert cert.dim_kernel == 0
        assert len(cert.conditions) == len(cert.matrix) == 2 + 2 * s.N

    # the rank-1 boundary matrix stencil still has a trivial smooth-class
    # kernel: its lone generalized kernel element is a hat, which the order-1
    # jump row rules out of the order-(k+2) class
    cert = kernel_certificate(analyze(RANK_ONE))
    assert cert.rank == 2
    assert cert.dim_kernel == 0


def test_kernel_certificate_reads_its_rows_off_the_integer_inverse(monkeypatch):
    for s in named_stencils() + (RANK_ONE,):
        structure = analyze(s)
        n = s.N
        v_one = apply_difference_inverse(structure, PiecewisePoly.constant(1, 0, n + 1))
        v_lin = apply_difference_inverse(structure, PiecewisePoly.from_global((0, 1), (0, n + 1)))
        expected = [(v_one.trace(0, 0, 1), v_lin.trace(0, 0, 1)), (v_one.trace(n + 1, 0, -1), v_lin.trace(n + 1, 0, -1))]
        expected += [(v_one.jump(node, mu), v_lin.jump(node, mu)) for node in range(1, n + 1) for mu in (0, 1)]
        calls = []
        for owner, name in [(solver, "apply_difference_inverse")] + [(PiecewisePoly, m) for m in ("jumps", "jump", "trace")]:
            monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: calls.append(name))
        cert = kernel_certificate(structure)
        monkeypatch.undo()
        assert list(cert.matrix) == expected
        assert cert.conditions[2:] == tuple("jump at %d, order %d" % (node, mu) for node in range(1, n + 1) for mu in (0, 1))
        assert calls == []


def test_hermite_extension_matches_data_and_stays_smooth():
    s = Stencil.from_coeffs((0, 1, 1, 1, 2))
    f1 = (F(1), F(2))          # 1 + 2t
    f2 = (F(3), F(0), F(-1))   # 3 - t^2
    for k in (0, 1):
        psi = hermite_extension(s, k, f1, f2)
        assert (psi.start, psi.end) == (F(-2), F(5))
        # data regions reproduce f1 / f2 verbatim
        assert psi.value(F(-1)) == -1
        assert psi.value(F(9, 2)) == 3 - F(81, 4)
        # dead middle
        assert _is_zero(psi.restricted(1, 2))
        # globally of order k+2: no jumps anywhere, including the seams
        assert smoothness_defects(psi, k + 2) == []


def test_solve_nonhomogeneous_satisfies_the_full_problem():
    s = Stencil.from_coeffs((1, 0, 1))
    f0 = PiecewisePoly.constant(1, 0, 2)
    problem = BVPProblem(stencil=s, k=0, f0=f0, f1=(1,), f2=(0, F(1, 2)))
    family = solve_nonhomogeneous(problem)
    assert family.status is SolveStatus.UNIQUE

    y = family.extension
    assert (y.start, y.end) == (F(-1), F(3))
    # y carries the prescribed data outside (0, 2)
    assert y.value(F(-1, 2)) == 1
    assert y.value(F(5, 2)) == F(5, 4)
    # boundary values of the solution come from the data
    assert family.v.trace(0, 0, 1) == 1
    assert family.v.trace(2, 0, -1) == F(1, 2) * 2
    # the equation holds with the full shifted sum of y
    w_full = apply_shifted_sum(s, y)
    assert w_full.same(family.w)
    assert _is_zero(w_full.derivative(2) + f0)
    # v is the interior part of y and continuous
    assert family.v.same(y.restricted(0, 2))
    for t in family.v.breaks[1:-1]:
        assert family.v.jump(t, 0) == 0


def test_solve_nonhomogeneous_with_zero_data_matches_homogeneous():
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    f0 = PiecewisePoly.from_global((0, 1), (0, 3))
    problem = BVPProblem(stencil=s, k=0, f0=f0)
    a = solve_homogeneous(problem)
    b = solve_nonhomogeneous(problem)
    assert a.status is b.status is SolveStatus.UNIQUE
    assert a.d == b.d
    assert a.v.same(b.v)
    assert a.w.same(b.w)


def test_index_report_checks_out_on_named_stencils():
    for s in named_stencils():
        for k in (0, 1, 2):
            problem = BVPProblem(
                stencil=s, k=k, f0=PiecewisePoly.constant(1, 0, s.N + 1)
            )
            report = index_report(problem)
            assert report.all_ok, [
                (row.name, row.expected, row.got) for row in report.rows if not row.ok
            ]
            assert report.boundary_rank == 2
            assert report.table.k == k


def test_index_report_checks_out_up_to_the_largest_k():
    # k = 30 is the largest order a problem file may ask for
    for s in named_stencils():
        for k in range(31):
            report = index_report(BVPProblem(stencil=s, k=k, f0=PiecewisePoly.constant(1, 0, s.N + 1)))
            assert report.all_ok, (s, k, [(row.name, row.expected, row.got) for row in report.rows if not row.ok])


def test_solve_and_index_report_analyze_a_problem_once(monkeypatch):
    # a fresh stencil: module constants such as RANK_ONE keep the analysis
    # an earlier test gave them
    calls = []

    def counting(stencil):
        calls.append(stencil)
        return analyze(stencil)

    monkeypatch.setattr(structure, "analyze", counting)
    stencil = Stencil.from_coeffs(RANK_ONE.coeffs)
    problem = BVPProblem(stencil=stencil, k=1, f0=PiecewisePoly.constant(1, 0, stencil.N + 1))
    solve_nonhomogeneous(problem)
    index_report(problem)
    solve_nonhomogeneous(problem)
    solve_nonhomogeneous(BVPProblem(stencil=stencil, k=0, f0=PiecewisePoly.constant(2, 0, stencil.N + 1)))
    assert len(calls) == 1 and calls[0] is stencil
    assert not hasattr(problem, "structure")


def test_solve_and_index_report_build_the_constraint_stacks_once(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "solvability_constraints", lambda *a: calls.append(a) or solvability_constraints(*a))
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    problem = BVPProblem(stencil=s, k=1, f0=PiecewisePoly.from_global((1, 1), (0, s.N + 1)))
    assert solve_nonhomogeneous(problem).smoothness.data_smooth
    assert index_report(problem).all_ok
    assert len(calls) == 1
