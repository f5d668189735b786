"""Acceptance battery: one test per verification criterion, at full scope.

Every test runs the corresponding check from ddbvp.verification with the
same arguments the full battery uses, prints a one-line scoreboard entry
(visible under ``pytest -s``), and fails with the check's detail text.
The stencil pool is the three named stencils plus twenty fixed-seed random
ones in the supported regime, built once per module.
"""

import random

import pytest

from ddbvp import exactla, structure, verification
from ddbvp.functionals import membership_functionals
from ddbvp.piecewise import trace_defects
from ddbvp.verification import (
    DEFAULT_SEED,
    check_boundary_rank_cases,
    check_constraint_counts,
    check_image_codimension,
    check_index_estimates,
    check_kernel_certificates,
    check_membership_theorem,
    check_oracle_convergence,
    check_spectrum_containment,
    check_structure_equivalence,
    check_worked_solution,
    named_stencils,
    random_image_member,
    random_regime_stencils,
    random_zero_trace_function,
    run_battery,
)


@pytest.fixture(scope="module")
def pool():
    stencils = named_stencils() + random_regime_stencils()
    assert len(stencils) >= 23, (
        "expected 3 named stencils plus at least 20 random supported-regime "
        "ones, found %d total" % len(stencils)
    )
    return stencils


def _report(result):
    verdict = "PASS" if result.passed else "FAIL"
    print("criterion %d (%s): %s -- %s" % (result.number, result.name, verdict, result.detail))
    assert result.passed, "criterion %d (%s) failed: %s" % (
        result.number, result.name, result.detail)


def test_criterion_01_image_membership(pool):
    # exact rational check, k in {1, 2, 3}, both directions of the mapping
    _report(check_membership_theorem(pool))


def test_image_members_are_exact_and_mostly_outside_the_zero_trace_class(pool):
    # criterion 1's own draws: a zero-trace function, then an image member.
    # The correction zeroes the membership conditions exactly, and keeps
    # w0's other node jets, so the inverse direction sees data outside the
    # zero-trace class (68 of the 69 cases; the last one is zero-trace by chance).
    rng = random.Random(DEFAULT_SEED + 1)
    outside = 0
    for stencil in pool:
        for k in (1, 2, 3):
            random_zero_trace_function(stencil.N + 1, k, rng)
            fns = membership_functionals(stencil.structure.gamma, k)
            w = random_image_member(stencil.structure, fns, rng)
            assert [fn.evaluate(w) for fn in fns] == [0] * (2 * k)
            outside += bool(trace_defects(w, k))
    assert len(pool) * 3 == 69
    assert outside == 68


def test_criterion_02_image_codimension(pool):
    # rank 2(k+2) independent / k+3 dependent, k in {0, 1, 2}, exact integers
    _report(check_image_codimension(named_stencils()))


def test_criterion_03_constraint_counts(pool):
    # post-elimination counts 2(k+1) or k+1 per variant, k in {0, 1}
    _report(check_constraint_counts(named_stencils()))


def test_criterion_04_kernel_certificates(pool):
    # boundary system rank 2, kernel dimension 0, on every pooled stencil
    _report(check_kernel_certificates(pool))


def test_criterion_05_worked_solution(pool):
    # stencil (1, 0, 1), f0 = 1: closed-form v with derivative jump 2 at t = 1
    _report(check_worked_solution())


def test_criterion_06_boundary_rank_cases(pool):
    # kernel dimension and constraint count both equal 2 - rank of the
    # boundary matrix, shown by explicit kernel bases and violating data
    _report(check_boundary_rank_cases())


def test_criterion_06_fails_on_a_boundary_rank_of_zero(monkeypatch):
    # the regime rules rank 0 out, so a box stencil showing it fails the criterion
    real = verification.boundary_matrix
    monkeypatch.setattr(
        verification, "boundary_matrix",
        lambda report: [[0, 0], [0, 0]] if report.stencil.coeffs == (1, 0, 1) else real(report),
    )
    result = check_boundary_rank_cases()
    assert not result.passed
    assert result.detail == "b=(1, 0, 1): boundary rank 0, which the regime rules out"


def test_criterion_07_spectrum_containment(pool):
    # discrete operator eigenvalues match the stencil symbol within 1e-8
    # at n = 8 and n = 16
    _report(check_spectrum_containment(pool))


def test_criterion_08_oracle_convergence(pool):
    # grid solutions of the model problem reproduce the exact solution below
    # 1e-3 at n = 128; the quartic companion shows observed order >= 1.8
    _report(check_oracle_convergence(named_stencils()))


def test_criterion_09_index_estimates(pool):
    # numerical kernel and cokernel dimensions agree at n = 64 for
    # a(t) in {0, 1, t}
    _report(check_index_estimates(named_stencils()))


def test_criterion_10_structure_equivalence(pool):
    # functional stacks from the two interior structures have equal rank,
    # separately and stacked, k in {1, 2}
    _report(check_structure_equivalence(pool))


def test_fast_battery_wiring():
    results = run_battery("fast")
    assert [r.number for r in results] == [1, 2, 3, 4, 5, 10]
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    with pytest.raises(ValueError):
        run_battery("sideways")


def test_full_battery_analyzes_each_stencil_object_once(monkeypatch):
    analyzed = []
    analyze = structure.analyze
    monkeypatch.setattr(structure, "analyze", lambda s: analyzed.append(s) or analyze(s))
    results = run_battery("full")
    assert [r.number for r in results] == list(range(1, 11))
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    ids = [id(s) for s in analyzed]  # ``analyzed`` keeps every object alive, so ids are not reused
    assert len(set(ids)) == len(ids)
    # the 23 pool stencils (criteria 1-4, 8 and 10 share the named ones), the
    # box of criterion 6 and the model stencil of criterion 5 each; criteria 7
    # and 9 analyze nothing
    assert len(ids) == 23 + 7 ** 3 + 1


def test_the_random_pool_is_drawn_once_per_process(monkeypatch):
    first = random_regime_stencils()

    def refuse(*args):
        raise AssertionError("the pool was drawn again")

    monkeypatch.setattr(exactla, "det", refuse)
    again = random_regime_stencils()
    assert [s.coeffs for s in again] == [s.coeffs for s in first]
    assert not any(a is b for a, b in zip(again, first))  # fresh objects, so each battery analyzes its own
