"""Shift matrix structure data, cross-checked against sympy and the defining identities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from ddbvp.structure import (
    Regime,
    Stencil,
    UnsupportedRegimeError,
    analyze,
    cofactor,
    index_table,
)
from ddbvp import exactla, structure
from ddbvp.verification import check_boundary_rank_cases, named_stencils, random_regime_stencils

DEPENDENT_NAMED = (Stencil.from_coeffs((1, 0, 1)), Stencil.from_coeffs((1, 1, 2, 4, 4)))
INDEPENDENT_NAMED = Stencil.from_coeffs((0, 1, 1, 1, 2))


def _sym(rows):
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _r2(s):
    return [row[:s.N] for row in s.r1[:s.N]]


def test_stencil_validation_and_lookup():
    s = Stencil.from_coeffs((1, 0, 1))
    assert s.N == 1
    assert s.b(-1) == 1 and s.b(0) == 0 and s.b(1) == 1
    assert s.b(5) == 0 and s.b(-5) == 0
    with pytest.raises(ValueError):
        Stencil.from_coeffs((1, 2))
    with pytest.raises(ValueError):
        Stencil.from_coeffs((1,))


def test_shift_matrix_is_toeplitz_in_the_stencil():
    for s in named_stencils():
        assert len(s.r1) == s.N + 1
        for i in range(1, s.N + 2):
            assert len(s.r1[i - 1]) == s.N + 1
            for k in range(1, s.N + 2):
                assert s.r1[i - 1][k - 1] == s.b(k - i)


def test_determinants_match_sympy():
    pool = list(named_stencils()) + list(random_regime_stencils(count=10, seed=5))
    for s in pool:
        assert sp.Rational(s.det_r1.numerator, s.det_r1.denominator) == _sym(s.r1).det()
        r2 = _r2(s)
        expected_r2 = _sym(r2).det() if r2 else sp.Integer(1)
        assert sp.Rational(s.det_r2.numerator, s.det_r2.denominator) == expected_r2


def test_regime_classification_three_cases():
    assert Stencil.from_coeffs((1, 0, 1)).regime is Regime.SINGULAR_MINOR
    assert Stencil.from_coeffs((0, 1, 0)).regime is Regime.NONSINGULAR_BOTH
    # b = (1, 1, 1): R1 = [[1, 1], [1, 1]] is singular
    assert Stencil.from_coeffs((1, 1, 1)).regime is Regime.SINGULAR_FULL


def _spy_on_the_passes(monkeypatch):
    """Record [rows, columns] of every forward pass and the size of every back substitution."""
    passes, solves = [], []
    forward, back = exactla._forward, exactla._back_substitute
    monkeypatch.setattr(exactla, "_forward", lambda m, n: passes.append([n, len(m[0]) if m else 0]) or forward(m, n))
    monkeypatch.setattr(exactla, "_back_substitute", lambda m, n: solves.append(n) or back(m, n))
    return passes, solves


def test_regime_of_a_singular_r1_runs_one_determinant(monkeypatch):
    passes, solves = _spy_on_the_passes(monkeypatch)
    s = Stencil.from_coeffs((1, 1, 1))
    assert s.regime is Regime.SINGULAR_FULL
    assert s.regime is Regime.SINGULAR_FULL
    assert passes == [[2, 4]] and s.r1_pass.rows is None  # a singular pass keeps no rows
    # det R2 of a singular R1 runs a pass of R2 itself, once, and only when read
    assert s.det_r2 == 1 and s.det_r2 == 1
    assert passes == [[2, 4], [1, 1]]
    assert solves == []


def test_a_rejected_stencil_runs_one_pass_and_no_back_substitution(monkeypatch):
    passes, solves = _spy_on_the_passes(monkeypatch)
    s = Stencil.from_coeffs((2, 5, -1))
    assert s.regime is Regime.NONSINGULAR_BOTH
    # det R2 = 5 is read off the same pass, by Cramer's rule
    assert (s.det_r1, s.det_r2) == (27, 5)
    with pytest.raises(UnsupportedRegimeError):
        s.structure
    assert (passes, solves) == ([[2, 4]], [])


def test_a_supported_stencil_eliminates_r1_once(monkeypatch):
    passes, solves = _spy_on_the_passes(monkeypatch)
    pairs, system = [], exactla.TwoColumnSystem
    monkeypatch.setattr(exactla, "TwoColumnSystem", lambda m: pairs.append([len(m), len(m[0])]) or system(m))
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    assert s.regime is Regime.SINGULAR_MINOR
    assert (s.det_r1, s.det_r2) == (4, 0)
    assert solves == []
    assert s.structure.inverse is s.r1_elimination[1]
    assert cofactor(s, 1, 2) == s.det_r1 * s.structure.r1_inverse[1][0]
    # one forward pass of [T | I] and one back substitution on it; the only other
    # elimination is the N x 2 end-column pair, a TwoColumnSystem
    assert (passes, solves, pairs) == ([[3, 6]], [3], [[2, 2]])
    assert s.r1_pass.rows is None  # the stencil keeps R1^-1, not the pass it came from


def test_criterion_6_back_substitutes_only_the_stencils_it_analyzes(monkeypatch):
    box = [Stencil.from_coeffs(b) for b in itertools.product(range(-3, 4), repeat=3)]
    supported = sum(s.regime is Regime.SINGULAR_MINOR for s in box)
    passes, solves = _spy_on_the_passes(monkeypatch)
    assert check_boundary_rank_cases().passed
    # one pass of [T | I] per box stencil, none of R2 alone (no singular R1 reads det R2),
    # and a back substitution for the supported stencils only
    assert passes == [[2, 4]] * len(box)
    assert solves == [2] * supported and 0 < supported < len(box)


def test_a_stencil_is_analyzed_once_and_keeps_its_report(monkeypatch):
    calls = []
    monkeypatch.setattr(structure, "analyze", lambda s: calls.append(s) or analyze(s))
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    assert s.structure is s.structure
    assert cofactor(s, 1, 2) == s.det_r1 * s.structure.r1_inverse[1][0]
    assert calls == [s]
    assert Stencil.from_coeffs(s.coeffs).structure == s.structure
    assert len(calls) == 2


def test_analyze_rejects_unsupported_regimes():
    with pytest.raises(UnsupportedRegimeError, match="classical theory"):
        analyze(Stencil.from_coeffs((0, 1, 0)))
    with pytest.raises(UnsupportedRegimeError, match="not invertible"):
        analyze(Stencil.from_coeffs((1, 1, 1)))


def test_unsupported_regime_error_carries_only_its_message():
    for coeffs, regime in (((0, 1, 0), Regime.NONSINGULAR_BOTH), ((1, 1, 1), Regime.SINGULAR_FULL)):
        stencil = Stencil.from_coeffs(coeffs)
        with pytest.raises(UnsupportedRegimeError) as exc:
            stencil.structure
        assert exc.value.args == (str(exc.value),)
        assert not hasattr(exc.value, "matrix") and not hasattr(exc.value, "regime")
        assert stencil.regime is regime
        assert ("det R1 = %s" % stencil.det_r1) in str(exc.value)


def test_named_stencils_are_in_the_supported_regime():
    for s in named_stencils():
        assert s.regime is Regime.SINGULAR_MINOR
        assert s.det_r1 != 0
        assert s.det_r2 == 0
        assert s.structure.stencil is s


def test_worked_stencil_structure_numbers():
    report = analyze(Stencil.from_coeffs((1, 0, 1)))
    assert report.gamma.m == 1
    assert report.gamma.gamma1 == {1: Fraction(1)}
    assert report.gamma.gamma2 == {}
    assert report.alt_gamma.gamma1 == {2: Fraction(1)}
    assert report.ends.dependent
    assert report.ends.alpha == (Fraction(1), Fraction(-1))
    assert report.ends.l == 1


def test_cofactors_match_sympy():
    for s in named_stencils():
        m = _sym(s.r1)
        for i in range(1, s.N + 2):
            for k in range(1, s.N + 2):
                got = cofactor(s, i, k)
                assert sp.Rational(got.numerator, got.denominator) == m.cofactor(i - 1, k - 1)
    with pytest.raises(ValueError):
        cofactor(Stencil.from_coeffs((1, 0, 1)), 0, 1)


def test_corner_cofactors_equal_det_r2():
    # both corner cofactors reduce to the leading principal minor because the
    # matrix is Toeplitz, so they vanish across the whole supported regime
    pool = list(named_stencils()) + list(random_regime_stencils(count=8, seed=33))
    for s in pool:
        assert cofactor(s, 1, 1) == s.det_r2 == 0
        assert cofactor(s, s.N + 1, s.N + 1) == s.det_r2


def test_end_columns_dependency_and_admissible_index():
    for s in DEPENDENT_NAMED:
        report = analyze(s)
        ends = report.ends
        assert ends.dependent
        a1, a2 = ends.alpha
        for x, y in zip(ends.first_inner, ends.last_inner):
            assert a1 * x + a2 * y == 0
        # l is the smallest column for which R2 minus row m, column l stays
        # nonsingular; recheck against a direct sympy determinant sweep
        gamma = report.gamma
        n = s.N
        found = None
        for cand in range(1, n + 1):
            sub = [
                [s.r1[r][c] for c in range(n) if c != cand - 1]
                for r in range(n)
                if r != gamma.m - 1
            ]
            d = _sym(sub).det() if sub else sp.Integer(1)
            if d != 0:
                found = cand
                break
        assert ends.l == found

    ends = analyze(INDEPENDENT_NAMED).ends
    assert not ends.dependent
    assert ends.alpha is None and ends.l is None


def test_cofactor_dependency_identity():
    # the end-column dependency forces alpha1*B[i][N+1] + alpha2*B[i+1][1] = 0
    # for every interior i; this is what collapses the higher-order image
    # conditions in the dependent case
    for s in DEPENDENT_NAMED:
        a1, a2 = s.structure.ends.alpha
        n = s.N
        for i in range(1, n + 1):
            assert a1 * cofactor(s, i, n + 1) + a2 * cofactor(s, i + 1, 1) == 0


def _as_tuple(t):
    return (
        t.codim_difference_image,
        t.codim_minimal_domain,
        t.codim_zero_trace_domain,
        t.index_zero_trace,
        t.index_minimal,
    )


def test_index_table_formulas():
    dep = analyze(Stencil.from_coeffs((1, 0, 1))).ends
    indep = analyze(INDEPENDENT_NAMED).ends
    for k in range(0, 4):
        t = index_table(dep, k)
        assert _as_tuple(t) == (k + 3, k + 1, 2 * (k + 1), -2 * (k + 1), -(k + 1))
        t = index_table(indep, k)
        assert _as_tuple(t) == (
            2 * (k + 2),
            2 * (k + 1),
            2 * (k + 1),
            -2 * (k + 1),
            -2 * (k + 1),
        )
    with pytest.raises(ValueError):
        index_table(dep, -1)


def test_spectrum_matches_sympy_eigenvalues():
    eigs = Stencil.from_coeffs((1, 0, 1)).r1_eigenvalues
    assert eigs.shape == (2,)
    assert abs(eigs[0] - (-1)) < 1e-12 and abs(eigs[1] - 1) < 1e-12

    for s in named_stencils():
        exact = []
        for lam, mult in _sym(s.r1).eigenvals().items():
            exact.extend([complex(sp.N(lam))] * mult)
        expected = sorted((z.real, z.imag) for z in exact)
        numeric = sorted((z.real, z.imag) for z in (complex(z) for z in s.r1_eigenvalues))
        assert len(expected) == len(numeric)
        for (a, b), (c, d) in zip(expected, numeric):
            assert abs(a - c) < 1e-9 and abs(b - d) < 1e-9


def test_eigenvalues_are_decomposed_once_and_read_only(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(np.shape(a)) or eigvals(a))
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    assert s.r1_eigenvalues is s.r1_eigenvalues
    assert calls == [(3, 3)]  # R1's eigenvalues decompose R1 alone
    assert s.r2_eigenvalues is s.r2_eigenvalues
    assert calls == [(3, 3), (2, 2)]
    for eigs in (s.r1_eigenvalues, s.r2_eigenvalues):
        with pytest.raises(ValueError):
            eigs.sort()
        with pytest.raises(ValueError):
            eigs[0] = 0.0
    # a coefficient outside the double range raises on every read, never caches
    huge = Stencil.from_coeffs((Fraction(10) ** 400, 0, 1))
    for _ in range(2):
        with pytest.raises(OverflowError, match="b_-1"):
            huge.r1_eigenvalues
        with pytest.raises(OverflowError, match="b_-1"):
            huge.r2_eigenvalues


def test_random_regime_generator_respects_its_contract():
    pool = random_regime_stencils(count=20, max_shift=3, bound=3, seed=99)
    assert len(pool) == 20
    assert len(set(pool)) == 20
    for s in pool:
        assert 1 <= s.N <= 3
        assert all(abs(c) <= 3 and c.denominator == 1 for c in s.coeffs)
        assert s.regime is Regime.SINGULAR_MINOR
