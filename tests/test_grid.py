"""Finite-difference oracle: assembly, spectra, convergence, index estimates."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ddbvp
from ddbvp import exactla, grid, piecewise
from ddbvp.grid import (
    SPECTRUM_TOLERANCE,
    assemble,
    convergence_study,
    grid_samples,
    index_estimate,
    solve_grid,
    spectrum_check,
)
from ddbvp.piecewise import PiecewisePoly
from ddbvp.solver import BVPProblem, solve_homogeneous
from ddbvp.structure import Stencil
from ddbvp.verification import named_stencils, random_regime_stencils

F = Fraction


def _points(ops):
    # the interior grid points t_i = i/n, i = 1..size
    return [F(i, ops.n) for i in range(1, ops.size + 1)]


def _right_limits(a, ops):
    return [float(a.trace(t, 0, +1)) for t in _points(ops)]


def test_assemble_shapes_and_guard():
    s = Stencil.from_coeffs((0, 1, 1, 1, 2))
    n = 6
    ops = assemble(s, n)
    size = n * (s.N + 1) - 1
    assert ops.size == size
    assert ops.operator.matrix.shape == (size, size)
    assert ops.shift.matrix.shape == (size, size)
    assert ops.shift_extended.matrix.shape == (size + 2, size)
    assert ops.second_difference.matrix.shape == (size, size + 2)
    # interior point i is t_i = i/n: the identity samples to 1/n .. size/n
    samples = grid_samples(PiecewisePoly.from_global((0, 1), (0, s.N + 1)), ops)
    assert samples[0] == 1 / n and samples[-1] == size / n
    with pytest.raises(ValueError):
        assemble(s, 3)


def test_identity_stencil_reduces_to_the_laplacian():
    # b = (0, 1, 0) leaves only the j = 0 term, so the discrete operator is
    # the plain Dirichlet second-difference matrix; -v'' = 2 with zero
    # boundary values has the exact quadratic solution t(2 - t), which the
    # scheme reproduces to rounding
    s = Stencil.from_coeffs((0, 1, 0))
    ops = assemble(s, 8)
    assert np.array_equal(ops.shift.matrix, np.eye(ops.size))
    f0 = PiecewisePoly.constant(2, 0, 2)
    sol = solve_grid(ops, grid_samples(f0, ops))
    assert not sol.ill_conditioned
    exact = np.array([float(t * (2 - t)) for t in _points(ops)])
    assert np.abs(sol.values - exact).max() < 1e-12


def test_extended_assembly_sees_nonzero_shift_values_at_the_boundary():
    # the worked solution v has (Rv)(0) = (Rv)(2) = -1/2, both nonzero;
    # applying the assembled operator to exact samples of v must still
    # reproduce f0 = 1 at every interior point, which fails if the shift and
    # second difference are composed as square interior matrices (that
    # composition silently zeroes Rv at the two ends)
    problem = BVPProblem(
        stencil=Stencil.from_coeffs((1, 0, 1)), k=0, f0=PiecewisePoly.constant(1, 0, 2)
    )
    family = solve_homogeneous(problem)
    assert family.w.trace(0, 0, 1) == F(-1, 2)
    assert family.w.trace(2, 0, -1) == F(-1, 2)

    ops = assemble(problem.stencil, 8)
    u = np.array([float(family.v.value(t)) for t in _points(ops)])
    residual = ops.operator.matrix @ u - 1.0
    assert np.abs(residual).max() < 1e-10

    square = -(ops.second_difference.matrix[:, 1:-1] @ ops.shift.matrix)
    wrong = square @ u - 1.0
    assert np.abs(wrong).max() > 1.0


def test_grid_samples_average_across_jumps():
    f = PiecewisePoly.from_pieces((0, 1, 2), [(0,), (4,)])
    ops = assemble(Stencil.from_coeffs((1, 0, 1)), 4)
    samples = grid_samples(f, ops)
    # t = 1 is interior grid point index 3 (points are 1/4, ..., 7/4)
    assert samples[3] == 2.0
    assert samples[0] == 0.0 and samples[-1] == 4.0


def test_grid_samples_and_assemble_evaluate_each_piece_once(monkeypatch):
    # on the grid progression every piece of f is one kernel call, and no
    # grid point costs a Horner evaluation of its own: the only point
    # evaluations are the two averaged traces at a break on a grid point
    calls = {"progression_floats": 0, "_taylor": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(piecewise, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(piecewise, name, counting)
    f = PiecewisePoly.from_pieces((0, F(1, 3), 1, F(5, 2), 3), [(1, 2), (0, 1, -1), (3,), (1, 0, 0, 2)])
    on_grid = sum(1 for b in f.breaks[1:-1] if (b * 512).denominator == 1)
    assert on_grid == 2  # 1 and 5/2; 1/3 falls between grid points
    ops = assemble(Stencil.from_coeffs((0, 1, 1, 1, 2)), 512, f)
    assert 0 < calls["progression_floats"] <= len(f.forms)
    assert calls["_taylor"] <= 2 * on_grid
    calls.update(progression_floats=0, _taylor=0)
    assert grid_samples(f, ops).shape == (ops.size,)
    assert 0 < calls["progression_floats"] <= len(f.forms)
    assert calls["_taylor"] <= 2 * on_grid


def test_zeroth_order_coefficient_enters_as_a_diagonal():
    s = Stencil.from_coeffs((1, 0, 1))
    a = PiecewisePoly.from_global((0, 1), (0, 2))  # a(t) = t
    plain = assemble(s, 4)
    with_a = assemble(s, 4, a)
    diff = with_a.operator.matrix - plain.operator.matrix
    expected = np.diag([float(t) for t in _points(plain)])
    assert np.abs(diff - expected).max() == 0.0


def test_solve_grid_flags_singular_systems_and_checks_shape():
    # (1, 0, -1) has a one-dimensional kernel; at n = 8 the factorisation
    # finds it exactly singular, at 64 and 256 only the estimate catches it
    for n in (8, 64, 256):
        ops = assemble(Stencil.from_coeffs((1, 0, -1)), n)
        sol = solve_grid(ops, np.ones(ops.size))
        assert sol.ill_conditioned, (n, sol.condition)
        assert np.all(np.isfinite(sol.values))
    with pytest.raises(ValueError):
        solve_grid(ops, np.ones(3))


def _shift_extended_by_rows(stencil, n):
    # the row-by-row definition: grid point i takes b_j from interior unknown i + jn
    size = n * (stencil.N + 1) - 1
    ref = np.zeros((size + 2, size))
    for i in range(size + 2):
        for j in range(-stencil.N, stencil.N + 1):
            if 1 <= i + j * n <= size:
                ref[i, i + j * n - 1] = float(stencil.b(j))
    return ref


def _second_difference_by_rows(n, size):
    # the row-by-row definition: interior point i + 1 reads grid points i, i + 1 and i + 2
    h2 = (1.0 / n) ** 2
    ref = np.zeros((size, size + 2))
    for i in range(size):
        ref[i, i:i + 3] = (1.0 / h2, -2.0 / h2, 1.0 / h2)
    return ref


def test_second_difference_matches_its_row_by_row_definition():
    for coeffs in ((1, 0, 1), (0, 1, 1, 1, 2), (-3, -2, 0, -2, 0, -2, 3)):
        s = Stencil.from_coeffs(coeffs)
        for n in (4, 5, 7, 16):
            ops = assemble(s, n)
            ref = _second_difference_by_rows(n, ops.size)
            assert ops.second_difference.matrix.tobytes() == ref.tobytes(), (coeffs, n)


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 0, -1), (0, 1, 1, 1, 2), (1, 1, 2, 4, 4), (F(1, 3), 0, F(2, 7))])
@pytest.mark.parametrize("a_kind", [None, "one", "t"])
def test_operator_is_the_second_difference_of_the_extended_shift(coeffs, a_kind):
    s = Stencil.from_coeffs(coeffs)
    exact = all(F(c).denominator == 1 for c in coeffs)
    a = {
        None: None,
        "zero": PiecewisePoly.constant(0, 0, s.N + 1),
        "one": PiecewisePoly.constant(1, 0, s.N + 1),
        "t": PiecewisePoly.from_global((0, 1), (0, s.N + 1)),
    }[a_kind]
    for n in (4, 6, 8, 16):
        ops = assemble(s, n, a)
        ext = ops.shift_extended.matrix
        assert np.array_equal(ext, _shift_extended_by_rows(s, n))
        assert np.array_equal(ops.shift.matrix, ext[1:-1])
        assert np.shares_memory(ops.shift.matrix, ext)
        expected = -(ops.second_difference.matrix @ ext)
        if a is not None:
            expected += np.diag(_right_limits(a, ops))
        if exact:
            assert np.array_equal(ops.operator.matrix, expected), (coeffs, n, a_kind)
        else:
            scale = np.abs(expected).max()
            assert np.abs(ops.operator.matrix - expected).max() <= 1e-14 * scale, (coeffs, n, a_kind)


def test_condition_estimate_bounds_kappa_1_from_below():
    for s in named_stencils() + (Stencil.from_coeffs((F(1, 3), 0, F(2, 7))),):
        for n in (8, 16, 32, 64):
            ops = assemble(s, n)
            a = ops.operator.matrix
            kappa_1 = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
            sol = solve_grid(ops, np.ones(ops.size))
            assert kappa_1 / 10 <= sol.condition <= kappa_1, (str(s), n, sol.condition, kappa_1)
            assert not sol.ill_conditioned


def test_named_stencils_solve_directly_at_n_512():
    for s in named_stencils():
        ops = assemble(s, 512)
        rhs = np.linspace(-1.0, 2.0, ops.size)
        sol = solve_grid(ops, rhs)
        assert not sol.ill_conditioned, (str(s), sol.condition)
        residual = np.linalg.norm(ops.operator.matrix @ sol.values - rhs) / np.linalg.norm(rhs)
        assert residual < 1e-8, (str(s), residual)


def test_grid_solve_imports_no_scipy():
    # importing scipy.sparse and scipy.sparse.linalg measured 0.45-0.6 s and
    # about 32 MB of peak RSS on a 2-core x86-64 host; every import of ddbvp
    # would pay it, since verification imports grid
    code = (
        "import sys, numpy as np, ddbvp\n"
        "from ddbvp.grid import assemble, solve_grid\n"
        "from ddbvp.structure import Stencil\n"
        "ops = assemble(Stencil.from_coeffs((1, 0, 1)), 8)\n"
        "assert not solve_grid(ops, np.ones(ops.size)).ill_conditioned\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(ddbvp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_spectrum_containment_on_named_stencils():
    for s in named_stencils():
        for n in (8, 16):
            check = spectrum_check(s, n)
            assert check.ok, (str(s), n, check.containment_distance)
            assert check.containment_distance <= 1e-8
            assert check.block_distance <= 1e-8


def test_index_estimates_balance():
    regular = index_estimate(assemble(Stencil.from_coeffs((1, 0, 1)), 16))
    assert regular.kernel_dim == 0
    assert regular.cokernel_dim == 0
    assert regular.balanced and regular.index == 0

    singular = index_estimate(assemble(Stencil.from_coeffs((1, 0, -1)), 16))
    assert singular.kernel_dim == 1
    assert singular.cokernel_dim == 1
    assert singular.balanced and singular.index == 0
    assert singular.smallest_forward < singular.threshold


def _dense_kernel_count(ops):
    # the reference: singular values of the whole operator below 1e-8 of the largest
    singular = np.linalg.svd(ops.operator.matrix, compute_uv=False)
    return int((singular < 1e-8 * singular.max()).sum()), float(singular.min())


def test_index_estimate_matches_the_dense_svd_count():
    # the named stencils, the acceptance pool and the singular (1, 0, -1)
    for s in named_stencils() + random_regime_stencils() + (Stencil.from_coeffs((1, 0, -1)),):
        for n in (16, 64):
            for kind in (None, "one", "t"):
                ops = assemble(s, n, _a_of_kind(kind, s))
                est = index_estimate(ops)
                dense, smallest = _dense_kernel_count(ops)
                assert est.kernel_dim == dense, (str(s), n, kind, est, dense)
                assert est.balanced
                if est.kernel_dim == 0:
                    # S^-1 is a block of A^-1, so sigma_min(S) >= sigma_min(A)
                    assert est.smallest_forward >= (1 - 1e-9) * smallest, (str(s), n, kind, est, smallest)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 2, 4), (3, 3, 3), (2, -2, 2)])
def test_index_estimate_falls_back_to_dense_when_r1_is_singular(coeffs):
    # det R1 = 0: for a = 0 the closed-form chain solve inverts the singular
    # R1 block, so the elimination raises and the dense SVD counts a kernel of
    # dimension about n; a = -30t makes the chain invertible again
    s = Stencil.from_coeffs(coeffs)
    assert s.det_r1 == 0
    for n in (16, 64):
        for kind in (None, "-30t"):
            ops = assemble(s, n, _a_of_kind(kind, s))
            dense = _dense_kernel_count(ops)[0]
            assert index_estimate(ops).kernel_dim == dense, (coeffs, n, kind, dense)
            assert (dense >= n - 1) if kind is None else dense == 0, (coeffs, n, kind, dense)
            if kind is None:  # the failed elimination is not kept: it raises again, and the fallback still counts
                with pytest.raises(np.linalg.LinAlgError):
                    grid._residue_eliminate(ops, np.empty((ops.size, 0)))
                assert index_estimate(ops).kernel_dim == dense, (coeffs, n)


def test_convergence_study_exact_reproduction_and_order():
    stencil = Stencil.from_coeffs((1, 0, 1))
    f0 = PiecewisePoly.constant(1, 0, 2)
    exact = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f0)).v
    study = convergence_study(stencil, f0, exact, resolutions=(8, 16))
    assert study.exact_reproduction
    assert study.orders == ()
    assert study.observed_order is None

    # a quartic solution leaves genuine truncation error at second order
    f0 = PiecewisePoly.from_global((0, 0, 1), (0, 2))
    exact = solve_homogeneous(BVPProblem(stencil=stencil, k=0, f0=f0)).v
    study = convergence_study(stencil, f0, exact, resolutions=(8, 16, 32))
    assert not study.exact_reproduction
    assert study.observed_order is not None
    assert 1.8 <= study.observed_order <= 2.2
    assert study.rows[-1].max_error < study.rows[0].max_error


def _dense_reference(a, rhs):
    # the dense LU solve with the same probes and threshold as solve_grid
    size = len(rhs)
    ramp = 1.0 + np.arange(size) / (size - 1)
    probes = np.column_stack([np.ones(size), ramp, ramp * (-1.0) ** np.arange(size)])
    try:
        solved = np.linalg.solve(a, np.column_stack([rhs, probes]))
    except np.linalg.LinAlgError:
        return None, np.inf
    growth = np.abs(solved[:, 1:]).sum(axis=0) / np.abs(probes).sum(axis=0)
    return solved[:, 0], np.linalg.norm(a, 1) * growth.max()


# the named stencils, a singular one, a non-integer one, the identity and an
# N = 3 stencil of the acceptance pool
BLOCK_SOLVE_COEFFS = [
    (1, 0, 1),
    (0, 1, 1, 1, 2),
    (1, 1, 2, 4, 4),
    (1, 0, -1),
    (F(1, 3), 0, F(2, 7)),
    (0, 1, 0),
    (-3, -2, 0, -2, 0, -2, 3),
]


def _a_of_kind(kind, s):
    return {
        None: None,
        "zero": PiecewisePoly.constant(0, 0, s.N + 1),
        "one": PiecewisePoly.constant(1, 0, s.N + 1),
        "t": PiecewisePoly.from_global((0, 1), (0, s.N + 1)),
        "-30t": PiecewisePoly.from_global((0, -30), (0, s.N + 1)),
    }[kind]


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS)
@pytest.mark.parametrize("a_kind", [None, "one", "t"])
def test_block_solve_matches_dense_lu(coeffs, a_kind):
    # odd n and n = 4 give chains of n - 1 residues whose reduction levels
    # end in an odd block, an even block, or a single block
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 5, 7, 8, 16, 64, 256):
        ops = assemble(s, n, _a_of_kind(a_kind, s))
        rhs = np.cos(np.arange(ops.size))
        sol = solve_grid(ops, rhs)
        reference, condition = _dense_reference(ops.operator.matrix, rhs)
        ill = not np.isfinite(condition) or condition > 1e12
        assert sol.ill_conditioned == ill, (coeffs, a_kind, n, sol.condition, condition)
        if not ill:
            rel = np.abs(sol.values - reference).max() / np.abs(reference).max()
            assert rel <= 1e-10, (coeffs, a_kind, n, rel)
            assert sol.condition == pytest.approx(condition, rel=1e-8), (coeffs, a_kind, n)


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS)
def test_operator_couples_neighbouring_residues_only(coeffs):
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 5, 8, 16):
        ops = assemble(s, n, _a_of_kind("t", s))
        residue = np.arange(1, ops.size + 1) % n
        offset = (residue[None, :] - residue[:, None]) % n
        a = ops.operator.matrix
        assert np.all(a[~np.isin(offset, (0, 1, n - 1))] == 0.0), (coeffs, n)
        for d in (0, 1, n - 1):
            assert np.any(a[offset == d] != 0.0), (coeffs, n, d)


def test_operator_matches_the_composed_form_bit_for_bit():
    # the composed second difference of the extended shift, entry for entry,
    # including the sign of every zero
    for coeffs in BLOCK_SOLVE_COEFFS:
        s = Stencil.from_coeffs(coeffs)
        for n in (4, 7, 16):
            ops = assemble(s, n)
            ext = _shift_extended_by_rows(s, n)
            composed = (2.0 * ext[1:-1] - ext[:-2] - ext[2:]) * (1.0 / (1.0 / n) ** 2)
            assert ops.operator.matrix.tobytes() == composed.tobytes(), (coeffs, n)


def test_assembly_and_block_solve_memory():
    # assembly keeps the three residue-block stacks alone, and a
    # well-conditioned solve allocates, in units of one
    # size x size float64 array, O(size) beside them
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    n = 256
    size = n * (s.N + 1) - 1
    unit = size * size * 8
    blocks = 3 * n * (s.N + 1) ** 2 * 8
    warm = assemble(s, 8)
    solve_grid(warm, np.ones(warm.size))
    rhs = np.linspace(-1.0, 2.0, size)
    tracemalloc.start()
    try:
        ops = assemble(s, n)
        retained, peak = tracemalloc.get_traced_memory()
        assert retained <= 1.05 * blocks and peak <= 1.25 * blocks, (retained / blocks, peak / blocks)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_grid(ops, rhs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not sol.ill_conditioned
    assert peak <= 0.25 * unit, peak / unit


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS)
def test_operator_is_the_interior_view_of_the_padded_matrix(coeffs):
    # slot 0 of residue 0 stands for t_0, the row and column that operator
    # drops from its padded scatter: +0.0 exactly in every block
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 7):
        ops = assemble(s, n, _a_of_kind("t", s))
        assert ops.operator.matrix.shape == (ops.size, ops.size)
        rows = (ops.diag[0, 0], ops.lower[0, 0], ops.upper[0, 0])  # blocks (0, 0), (0, n - 1) and (0, 1)
        cols = (ops.diag[0, :, 0], ops.lower[1, :, 0], ops.upper[-1, :, 0])  # blocks (0, 0), (1, 0) and (n - 1, 0)
        zeros = np.zeros(s.N + 1).tobytes()
        assert all(x.tobytes() == zeros for x in rows + cols), (coeffs, n)


def _residue_blocks_by_index(a, n, big):
    # the index gather on the size x size operator: slot [r, k] holds unknown
    # r + kn, matrix index r + kn - 1; residue 0 has no unknown at k = 0, so
    # that slot holds -1 and its rows and columns are zeroed
    index = np.arange(n)[:, None] + n * np.arange(big + 1) - 1
    pad = index < 0

    def gather(step):
        cols = np.roll(index, -step, axis=0)
        block = a[index[:, :, None], cols[:, None, :]]
        block[pad[:, :, None] | np.roll(pad, -step, axis=0)[:, None, :]] = 0.0
        return block

    return gather(0), gather(-1), gather(1)


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS)
@pytest.mark.parametrize("a_kind", [None, "t"])
def test_residue_blocks_match_the_index_gather(coeffs, a_kind):
    # against the row-by-row composed form, so every entry and the sign of every zero is checked
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 5, 7, 16):
        a = _a_of_kind(a_kind, s)
        ops = assemble(s, n, a)
        ext = _shift_extended_by_rows(s, n)
        composed = (2.0 * ext[1:-1] - ext[:-2] - ext[2:]) * (1.0 / (1.0 / n) ** 2)
        if a is not None:
            composed += np.diag(_right_limits(a, ops))
        expected = _residue_blocks_by_index(composed, n, s.N)
        for name, g, e in zip(("diagonal", "lower", "upper"), (ops.diag, ops.lower, ops.upper), expected):
            assert g.shape == e.shape == (n, s.N + 1, s.N + 1)
            assert g.tobytes() == e.tobytes(), (coeffs, a_kind, n, name)


def _dense_containment(stencil, n):
    # the reference: dense eigenvalues of the whole interior shift, built row
    # by row, and the largest distance from an R1 eigenvalue to them
    grid_eigs = np.linalg.eigvals(_shift_extended_by_rows(stencil, n)[1:-1])
    return max(float(np.abs(grid_eigs - lam).min()) for lam in stencil.r1_eigenvalues)


def test_spectrum_check_agrees_with_the_dense_spectrum():
    # the named stencils, the acceptance pool, a singular and a non-integer one
    extra = (Stencil.from_coeffs((1, 0, -1)), Stencil.from_coeffs((F(1, 3), 0, F(2, 7))))
    for s in named_stencils() + random_regime_stencils() + extra:
        for n in (4, 5, 8, 16):
            dense = _dense_containment(s, n)
            check = spectrum_check(s, n)
            assert dense <= SPECTRUM_TOLERANCE, (str(s), n, dense)
            assert check.ok == (dense <= SPECTRUM_TOLERANCE), (str(s), n, check, dense)
            assert check.block_distance <= SPECTRUM_TOLERANCE, (str(s), n, check)


def test_spectrum_check_solves_no_eigenproblem_larger_than_r1(monkeypatch):
    # one decomposition of R1 and one of R2 per stencil, whatever n is and
    # however many resolutions are checked
    shapes = []
    eigvals = np.linalg.eigvals

    def recording(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    for coeffs in BLOCK_SOLVE_COEFFS:
        s = Stencil.from_coeffs(coeffs)
        shapes.clear()
        for n in (4, 64, 256):
            assert spectrum_check(s, n).ok, (coeffs, n)
        assert sorted(shapes, reverse=True) == [(s.N + 1, s.N + 1), (s.N, s.N)], (coeffs, shapes)


def test_spectrum_check_runs_no_exact_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("exact elimination in spectrum_check")

    monkeypatch.setattr(exactla, "det", refuse)
    monkeypatch.setattr(exactla, "invert", refuse)
    for coeffs in ((1, 0, 1), (1, 1, 2, 4, 4), (1, 1, 1), (0, 1, 0)):
        assert spectrum_check(Stencil.from_coeffs(coeffs), 8).n == 8


def test_spectrum_check_memory():
    # a bound that does not grow with n: no array of the grid's size is built
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    spectrum_check(s, 8)
    for n in (8, 256, 4096):
        tracemalloc.start()
        try:
            check = spectrum_check(s, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.ok, n
        assert peak <= 64 * 1024, (n, peak)


def test_spectrum_check_refuses_fewer_than_4_subdivisions():
    with pytest.raises(ValueError):
        spectrum_check(Stencil.from_coeffs((1, 0, 1)), 3)


def _couples_two_residues(shift, n, big):
    # the interior shift behind a zero row and column for t_0, grouped by residue mod n
    padded = np.zeros((shift.shape[0] + 1,) * 2)
    padded[1:, 1:] = shift
    by_residue = padded.reshape(big + 1, n, big + 1, n).transpose(1, 3, 0, 2)
    return bool(np.any(by_residue[~np.eye(n, dtype=bool)] != 0.0))


def test_spectrum_check_fails_on_any_coupling_between_residues(monkeypatch):
    # the decoupling test is exact: a coupling far below every distance
    # tolerance still fails the check, and the shift, written from the same
    # bands, carries that coupling
    s, n = Stencil.from_coeffs((1, 0, 1)), 8
    assert spectrum_check(s, n).ok
    assert not _couples_two_residues(assemble(s, n).shift.matrix, n, s.N)
    shift_bands = grid._shift_bands

    def coupled(stencil, n):
        return shift_bands(stencil, n) + [(1, 1e-300)]  # t_i to t_{i+1}, residues r and r + 1

    monkeypatch.setattr(grid, "_shift_bands", coupled)
    check = spectrum_check(s, n)
    assert not check.ok
    assert check.containment_distance == check.block_distance == np.inf
    assert _couples_two_residues(assemble(s, n).shift.matrix, n, s.N)


def test_index_estimate_decomposes_nothing_larger_than_n(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for coeffs in BLOCK_SOLVE_COEFFS:
        s = Stencil.from_coeffs(coeffs)
        for n in (4, 64, 256):
            shapes.clear()
            index_estimate(assemble(s, n))
            assert shapes and max(max(shape) for shape in shapes) <= s.N, (coeffs, n, shapes)


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS)
def test_solve_and_index_estimate_leave_padded_unchanged(coeffs):
    # the elimination zeroes its copies of the end couplings, never the
    # stored block stacks that operator scatters into its padded matrix
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 7, 16):
        ops = assemble(s, n, _a_of_kind("t", s))
        stacks = (ops.diag, ops.lower, ops.upper)
        before = [x.tobytes() for x in stacks]
        solve_grid(ops, np.cos(np.arange(ops.size)))
        assert [x.tobytes() for x in stacks] == before, (coeffs, n, "solve_grid")
        index_estimate(ops)
        assert [x.tobytes() for x in stacks] == before, (coeffs, n, "index_estimate")


# -- the a = 0 chain in closed form ------------------------------------------------


def _chain_blocks(ops):
    # the chain of residues 1..n-1 as _residue_eliminate hands it on: its end
    # couplings to residue 0 zeroed, and passed apart as the first and last blocks
    lower, upper = ops.lower[1:].copy(), ops.upper[1:].copy()
    lower[0] = upper[-1] = 0.0
    return lower, ops.diag[1:], upper, ops.lower[1], ops.upper[-1]


def _reduction(lower, diag, upper, rhs, first, last):
    # the reference: cyclic reduction with the couplings to residue 0 as extra right-hand sides
    ends = np.zeros_like(diag)
    ends[0], ends[-1] = first, last
    return grid._cyclic_reduction(lower, diag, upper, np.concatenate([rhs, ends], axis=2))


def _counting_reduction(monkeypatch):
    calls = []
    reduction = grid._cyclic_reduction
    monkeypatch.setattr(grid, "_cyclic_reduction", lambda *args: calls.append(len(args[1])) or reduction(*args))
    return calls


def test_closed_form_chain_solve_matches_cyclic_reduction(monkeypatch):
    # for a = 0 the chain is K (x) P; the closed form must agree with the
    # reduction it replaces, which stays the reference
    calls = _counting_reduction(monkeypatch)
    rng = np.random.default_rng(5)
    extra = tuple(map(Stencil.from_coeffs, [(1, 0, -1), (F(1, 3), 0, F(2, 7))]))
    pool = named_stencils() + random_regime_stencils() + extra
    for s in pool:
        for n in (4, 5, 8, 33, 64):
            chain = _chain_blocks(assemble(s, n))
            rhs = rng.standard_normal((n - 1, s.N + 1, 3))
            calls.clear()
            closed = grid._chain_solve(*chain[:3], rhs, *chain[3:])
            assert calls == [], (str(s), n)
            assert np.array_equal(grid._chain_solve(*chain[:3], rhs[:, :, :0], *chain[3:]), closed[:, :, 3:])
            reference = _reduction(*chain[:3], rhs, *chain[3:])
            rel = np.abs(closed - reference).max() / np.abs(reference).max()
            assert rel <= 1e-12, (str(s), n, rel)


def test_only_a_nonzero_coefficient_takes_cyclic_reduction(monkeypatch):
    # the path is chosen from the blocks alone: an explicit all-zero a is a = 0
    calls = _counting_reduction(monkeypatch)
    for s in named_stencils():
        for kind in (None, "zero", "one", "t"):
            ops = assemble(s, 16, _a_of_kind(kind, s))
            calls.clear()
            solve_grid(ops, np.ones(ops.size))
            index_estimate(ops)
            assert (len(calls) > 0) is (kind in ("one", "t")), (str(s), kind, calls)


def _block_residual(ops, x, rhs):
    # ||A x - rhs|| / ||rhs|| from the stored residue blocks, never from operator:
    # residue r reads residues r - 1, r and r + 1 (mod n) at the same slots
    by_residue = np.concatenate([[0.0], x]).reshape(ops.stencil.N + 1, ops.n).T[..., None]
    ax = ops.diag @ by_residue
    ax += ops.lower @ np.roll(by_residue, 1, axis=0) + ops.upper @ np.roll(by_residue, -1, axis=0)
    return np.linalg.norm(ax[..., 0].T.reshape(-1)[1:] - rhs) / np.linalg.norm(rhs)


def test_block_residual_is_the_operator_residual():
    for coeffs in BLOCK_SOLVE_COEFFS:
        s = Stencil.from_coeffs(coeffs)
        for n in (4, 7):
            ops = assemble(s, n, _a_of_kind("t", s))
            x, rhs = np.cos(np.arange(ops.size)), np.linspace(-1.0, 2.0, ops.size)
            dense = np.linalg.norm(ops.operator.matrix @ x - rhs) / np.linalg.norm(rhs)
            assert _block_residual(ops, x, rhs) == pytest.approx(dense, rel=1e-12), (coeffs, n)


def test_closed_form_residual_at_the_grid_cap(monkeypatch):
    # at the largest n that MAX_GRID_UNKNOWNS allows, the closed-form solve's
    # relative residual stays within 2x that of cyclic reduction on the same
    # system, for smooth, polynomial, oscillating and random data
    for s in named_stencils():
        n = (grid.MAX_GRID_UNKNOWNS + 1) // (s.N + 1)
        ops = assemble(s, n)
        t = np.arange(1, ops.size + 1) / n
        data = {
            "linear": np.linspace(-1.0, 2.0, ops.size),
            "ones": np.ones(ops.size),
            "square": t * t,
            "sine": np.sin(np.pi * t),
            "cosine": np.cos(np.arange(ops.size)),
            "random": np.random.default_rng(1).standard_normal(ops.size),
        }
        for name, rhs in data.items():
            closed = solve_grid(ops, rhs)
            with monkeypatch.context() as m:
                m.setattr(grid, "_chain_solve", _reduction)
                reduced = solve_grid(ops, rhs)
            assert not closed.ill_conditioned and not reduced.ill_conditioned, (str(s), name)
            ours, reference = _block_residual(ops, closed.values, rhs), _block_residual(ops, reduced.values, rhs)
            assert ours <= 2 * reference, (str(s), n, name, ours, reference)


# -- the Schur complement an operator keeps ---------------------------------------


@pytest.mark.parametrize("coeffs", BLOCK_SOLVE_COEFFS[:4])  # the named stencils and the singular (1, 0, -1)
@pytest.mark.parametrize("a_kind", [None, "one", "t"])
def test_solves_and_index_estimates_agree_in_any_order(coeffs, a_kind, monkeypatch):
    # index_estimate reads the Schur complement of the operator's first
    # elimination, a solve's or its own; a solve reads nothing kept, so
    # repeated solves give the same bits and agree with cyclic reduction
    s = Stencil.from_coeffs(coeffs)
    for n in (4, 5, 8, 33, 64):
        rhs = np.cos(np.arange(n * (s.N + 1) - 1))
        estimate_first = assemble(s, n, _a_of_kind(a_kind, s))
        before = index_estimate(estimate_first)
        ops = assemble(s, n, _a_of_kind(a_kind, s))
        first = solve_grid(ops, rhs)
        after = index_estimate(ops)
        assert (after.kernel_dim, after.threshold) == (before.kernel_dim, before.threshold), (coeffs, a_kind, n)
        # a solve's elimination carries more columns beside U than index_estimate's, hence a tolerance
        norm_1 = before.threshold / grid.INDEX_THRESHOLD
        assert abs(after.smallest_forward - before.smallest_forward) <= 1e-12 * norm_1, (coeffs, a_kind, n)
        for other in (solve_grid(ops, rhs), solve_grid(estimate_first, rhs)):
            assert other.values.tobytes() == first.values.tobytes(), (coeffs, a_kind, n)
            assert other.condition == first.condition and other.ill_conditioned == first.ill_conditioned
        assert index_estimate(estimate_first) == before and index_estimate(ops) == after, (coeffs, a_kind, n)
        with monkeypatch.context() as m:
            m.setattr(grid, "_chain_solve", _reduction)
            reference = solve_grid(assemble(s, n, _a_of_kind(a_kind, s)), rhs).values
        rel = np.abs(first.values - reference).max() / np.abs(reference).max()
        assert rel <= 1e-12, (coeffs, a_kind, n, rel)


@pytest.mark.parametrize("a_kind", [None, "one", "t"])
def test_index_estimate_after_a_solve_eliminates_nothing(a_kind, monkeypatch):
    eliminated = []  # the number of right-hand sides of each elimination
    eliminate = grid._residue_eliminate
    monkeypatch.setattr(grid, "_residue_eliminate",
                        lambda *args: eliminated.append(args[1].shape[1]) or eliminate(*args))
    calls = _counting_reduction(monkeypatch)
    for s in named_stencils():
        n = 16
        ops = assemble(s, n, _a_of_kind(a_kind, s))
        eliminated.clear()
        calls.clear()
        solve_grid(ops, np.ones(ops.size))
        # f and the three probes ride beside the couplings: one top-level reduction, or none for a = 0
        assert calls.count(n - 1) == (a_kind is not None), (str(s), a_kind, calls)
        index_estimate(ops)
        assert eliminated == [4], (str(s), a_kind, eliminated)
        solve_grid(ops, np.ones(ops.size))
        assert eliminated == [4, 4] and calls.count(n - 1) == 2 * (a_kind is not None), (str(s), a_kind, calls)
        fresh = assemble(s, n, _a_of_kind(a_kind, s))
        index_estimate(fresh)
        index_estimate(fresh)
        assert eliminated == [4, 4, 0], (str(s), a_kind, eliminated)


def test_the_blocks_of_an_operator_are_read_only():
    # a write would leave the kept Schur complement stale without any error
    s = Stencil.from_coeffs((1, 1, 2, 4, 4))
    for a_kind in (None, "t"):
        ops = assemble(s, 8, _a_of_kind(a_kind, s))
        for blocks in (ops.diag, ops.lower, ops.upper):
            with pytest.raises(ValueError):
                blocks[1, 0, 0] = 1.0
            with pytest.raises(ValueError):
                blocks += 1.0
