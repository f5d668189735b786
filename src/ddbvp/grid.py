"""Finite-difference cross-check for the exact machinery.

Everything here is double-precision evidence, kept apart from the rational
computations: grids validate spectra, convergence rates and index claims
numerically, and they are the only place a nonzero zeroth-order coefficient
a(t) is handled.  Nothing here feeds back into an exact result.

The grid puts n subdivisions on each unit interval of (0, N+1): M - 1
interior points t_i = i/n with M = n(N+1), the Dirichlet zeros at t_0 and t_M
eliminated.  The shift takes interior samples of v to (Rv) at all grid points
0..M, and only then is the negative second difference taken back down to the
interior; composing square interior matrices instead would impose (Rv)(0) =
(Rv)(M) = 0, which the problem never asks for.  Index i means t_i
throughout, i = kn + r being slot k of residue r = i mod n.

By residue the interior shift couples each residue to itself only, as n - 1
copies of R1 and, without its t_0 slot, one of R2.  ``spectrum_check`` tests
that decoupling exactly on the (offset, b_j) bands the shift is written from
and takes the grid spectrum from the stencil's ``r1_eigenvalues`` and
``r2_eigenvalues``, one decomposition of each per stencil, shared by every n.
``_shift_bands`` writes every offset as j n, so the decoupling test holds for
every stencil and can fail only when ``_shift_bands`` itself is replaced: the
check passes by construction and shows that the assembly follows the
stencil's residue structure, not that the grid spectrum converges.  The
operator couples residue r to r and r +- 1 (mod n), and ``assemble`` writes
just these blocks, straight from the stencil, and marks them read-only:
[r, k, l] of ``diag``, ``lower`` and ``upper`` couples t_{kn+r} to
t_{ln+s}, s = r, r - 1, r + 1, and slot 0 of residue 0 (t_0) is a zero row
and column of each.  ``operator`` scatters them into an M x M array on every
read.  ``solve_grid`` eliminates residues 1..n-1 (the chain) first and
solves residue 0 last through its N x N Schur complement, whose block
2 R2 / h^2 is singular whenever det R2 = 0.  For a = 0 the chain is
(1/h^2) K (x) R1, K the Dirichlet second difference, the separable form of
fast Poisson solvers (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
1970), and it is solved in closed form: one inverse of the R1 block, then
K^-1 as two prefix sums along the residues.  Only a chain with a nonzero
coefficient a goes through odd-even (cyclic) block reduction (Golub & Van
Loan, Matrix Computations, section 4.5).  A singular R1 block raises on
either path, and the dense fallbacks take over.  The solve's ``condition``
is a lower-bound 1-norm estimate from the same pass.  The first elimination
of an operator, by a solve or by ``index_estimate`` with no right-hand
sides, keeps the Schur complement and ||A||_1 on it, and ``index_estimate``
counts the kernel from the singular values of that Schur complement, not
of the whole operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .piecewise import PiecewisePoly
from .structure import Stencil

# Largest n(N+1)-1 from input: an M x M read of operator, a dense fallback or shift is ~134 MB here.  The
# residue solve is far from it: with a = 0, (1, 0, 1) / (1, 1, 2, 4, 4) at about 2^12, 2^14 and 2^16 unknowns
# took assemble 0.04 / 0.05, 0.22 / 0.34, 0.23 / 1.3 ms, solve_grid 1.8 / 1.2, 6.9 / 4.7, 31 / 29 ms and
# index_estimate 0.27 / 0.29, 0.88 / 0.92, 3.3 / 3.9 ms on a fresh operator (0.03-0.07 ms after a solve), peak
# RSS 33 / 34, 39 / 40, 60 / 64 MB (30 MB after imports); with a = t at the cap, solve_grid 3.1 / 3.7 ms and a
# fresh index_estimate 1.9 / 2.3 ms (best of 15, one BLAS thread, 2-core x86-64).  Raising the cap changes which
# files exit 1.
MAX_GRID_UNKNOWNS = 4096
SPECTRUM_TOLERANCE = 1e-8  # containment distance that ``SpectrumCheck.ok`` accepts
INDEX_THRESHOLD = 1e-8  # singular values below this fraction of ||A||_1 count as zero
ROUNDING_FLOOR = 1e-10  # max-node error below which a convergence study counts as exact reproduction


def grid_resolution_error(big: int, n: int) -> str | None:
    """Why a grid of n subdivisions per unit interval of (0, big+1) is refused, or None."""
    if n < 4:
        return "grid resolution must be >= 4"
    if n * (big + 1) - 1 > MAX_GRID_UNKNOWNS:
        return "grid of n(N+1)-1 = %d unknowns exceeds the limit of %d" % (n * (big + 1) - 1, MAX_GRID_UNKNOWNS)
    return None


@dataclass(frozen=True)
class GridOperator:
    """One dense double-precision grid matrix."""

    matrix: np.ndarray


@dataclass(frozen=True)
class GridOperators:
    """The assembled operator as n x (N+1) x (N+1) read-only residue blocks; every dense matrix is built on read.

    The first ``solve_grid`` or ``index_estimate`` of the operator keeps the
    residue-0 Schur complement and ||A||_1 its elimination leaves
    (``_residue_eliminate``), and every later ``index_estimate`` reads them.
    """

    stencil: Stencil
    n: int
    size: int
    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _schur: tuple[np.ndarray, float] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def operator(self) -> GridOperator:
        """The size x size interior operator, scattered from the blocks into a fresh array on every read."""
        padded = np.zeros((self.size + 1, self.size + 1))
        by_residue = padded.reshape(self.stencil.N + 1, self.n, self.stencil.N + 1, self.n).transpose(1, 3, 0, 2)
        r = np.arange(self.n)
        by_residue[r, r], by_residue[r, r - 1], by_residue[r, (r + 1) % self.n] = self.diag, self.lower, self.upper
        return GridOperator(padded[1:, 1:])

    @cached_property
    def shift_extended(self) -> GridOperator:
        """The difference operator from interior samples to all grid points."""
        return GridOperator(_extended_shift(self.stencil, self.n)[:, 1:])

    @property
    def shift(self) -> GridOperator:
        """A view of ``shift_extended`` without its two boundary rows."""
        return GridOperator(self.shift_extended.matrix[1:-1])

    @property
    def second_difference(self) -> GridOperator:
        """The second difference from all grid points to the interior."""
        h2, weights = (1.0 / self.n) ** 2, enumerate((1.0, -2.0, 1.0))
        return GridOperator(_diagonals(np.zeros((self.size, self.size + 2)), ((d, w / h2) for d, w in weights)))


def grid_samples(f: PiecewisePoly, ops: GridOperators) -> np.ndarray:
    """f at the interior grid points, averaging the one-sided limits across a jump."""
    samples = np.array(f.sample(Fraction(1, ops.n), Fraction(1, ops.n), ops.size), dtype=float)
    for node in f.nodes[1:-1]:
        i, r = divmod(node * ops.n, f.scale)  # the break is grid point t_i when r = 0
        if not r and 0 < i <= ops.size:
            b = Fraction(node, f.scale)
            samples[i - 1] = float((f.trace(b, 0, -1) + f.trace(b, 0, +1)) / 2)
    return samples


def _check_resolution(n: int) -> None:
    if n < 4:
        raise ValueError("need at least 4 subdivisions per unit interval")


def _diagonals(out: np.ndarray, diagonals) -> np.ndarray:
    """Write each (offset, value) pair along its diagonal of ``out``, the entries out[i, i + offset]."""
    for offset, value in diagonals:
        np.fill_diagonal(out[:, offset:] if offset >= 0 else out[-offset:, :], value)
    return out


def _shift_bands(stencil: Stencil, n: int) -> list[tuple[int, float]]:
    """The (offset, b_j) bands of the grid shift: b_j maps the sample at t_{i + offset} to (Rv) at t_i."""
    _check_resolution(n)
    return [(j * n, float(stencil.b(j))) for j in range(-stencil.N, stencil.N + 1)]


def _extended_shift(stencil: Stencil, n: int) -> np.ndarray:
    """The shift from samples at t_0..t_{M-1} to all grid points 0..M: b_j at [i, i + offset], column 0 (t_0) zero."""
    bands = _shift_bands(stencil, n)
    out = np.zeros((n * (stencil.N + 1) + 1, n * (stencil.N + 1)))
    _diagonals(out[:, 1:], ((offset - 1, b) for offset, b in bands))
    return out


def assemble(stencil: Stencil, n: int, a: PiecewisePoly | None = None) -> GridOperators:
    """Assemble the grid operator at resolution n (n >= 4 per unit interval) as residue blocks.

    Row i of -(second difference) applied to the extended shift is
    (2 (Rv)_i - (Rv)_{i-1} - (Rv)_{i+1}) / h^2: shift j and neighbour d in
    {-1, 0, 1} put (w_d b_j) / h^2 at column i + jn + d, slot offset j of
    residue r + d, or j + d where r + d wraps mod n.  No two of these meet, so
    every entry is one rounded product, as in the composed form.
    """
    _check_resolution(n)
    big = stencil.N
    size = n * (big + 1) - 1
    inv_h2 = 1.0 / (1.0 / n) ** 2
    band = np.zeros(2 * big + 3)
    band[1:-1] = [float(stencil.b(j)) for j in range(-big, big + 1)]
    # rows 1 - o .. N + 1 - o of the reversed windows hold b_{l-k+o} at [k, l]; 0.0 - b, not -b, keeps zeros +0.0
    windows = np.arange(big + 3)[::-1, None] + np.arange(big + 1)
    centre, side = ((x * inv_h2)[windows] for x in (2.0 * band, 0.0 - band))
    diag, lower, upper = (np.repeat(x[None, 1:big + 2], n, axis=0) for x in (centre, side, side))
    lower[0], upper[-1] = side[:big + 1], side[2:]
    if a is not None:
        samples = a.sample(Fraction(1, n), Fraction(1, n), size)
        diag.reshape(n, -1)[:, ::big + 2] += np.concatenate([[0.0], samples]).reshape(big + 1, n).T
    diag[0, 0] = lower[0, 0] = upper[0, 0] = 0.0  # the row of t_0
    diag[0, :, 0] = lower[1, :, 0] = upper[-1, :, 0] = 0.0  # its column, seen from residues 0, 1 and n - 1
    for blocks in (diag, lower, upper):
        blocks.flags.writeable = False  # the kept Schur complement is only valid for these entries
    return GridOperators(stencil=stencil, n=n, size=size, diag=diag, lower=lower, upper=upper)


@dataclass(frozen=True)
class GridSolution:
    """A grid solve and its conditioning.

    ``condition`` is ||A||_1 max_j ||A^-1 p_j||_1 / ||p_j||_1 over three fixed
    Hager/Higham probes, solved beside f by the same residue-block
    elimination: a lower bound on kappa_1, and inf when a pivot block is
    exactly singular.  Above 1e12 the system counts as ill conditioned and
    ``values`` come from dense least squares instead.
    """

    values: np.ndarray
    condition: float
    ill_conditioned: bool


def _cyclic_reduction(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system with blocks ``lower[i]`` (i, i-1), ``diag[i]`` and ``upper[i]`` (i, i+1).

    ``lower[0]`` and ``upper[-1]`` must be zero.  Each level solves the odd
    blocks against their couplings in one batched call and folds them into
    the even blocks, which form the next, half-length system.
    """
    m, p = diag.shape[:2]
    if m == 1:
        return np.linalg.solve(diag[0], rhs[0])[None]
    odd = np.linalg.solve(diag[1::2], np.concatenate([lower[1::2], upper[1::2], rhs[1::2]], axis=2))
    # odd[t] is block 2t + 1; with a zero block at each end, even block 2t reads its neighbours at t and t + 1
    padded = np.concatenate([np.zeros_like(odd[:1]), odd, np.zeros_like(odd[:1])])
    evens = (m + 1) // 2
    from_left = lower[::2] @ padded[:evens]
    from_right = upper[::2] @ padded[1:evens + 1]
    x_even = _cyclic_reduction(
        -from_left[:, :, :p],
        diag[::2] - from_left[:, :, p:2 * p] - from_right[:, :, :p],
        -from_right[:, :, p:2 * p],
        rhs[::2] - from_left[:, :, 2 * p:] - from_right[:, :, 2 * p:],
    )
    x = np.empty_like(rhs)
    x[::2] = x_even
    x_pad = np.concatenate([x_even, np.zeros_like(x_even[:1])])
    odds = m // 2
    x[1::2] = odd[:, :, 2 * p:] - odd[:, :, :p] @ x_pad[:odds] - odd[:, :, p:2 * p] @ x_pad[1:odds + 1]
    return x


def _chain_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray, first: np.ndarray,
                 last: np.ndarray) -> np.ndarray:
    """[C^-1 rhs, C^-1 E] per residue for the chain C of residues 1..n-1 and its couplings E to residue 0.

    E holds ``first`` at residue 1 and ``last`` at residue n-1.  For a = 0
    every diagonal block of C is 2P and every coupling -P, P the R1 block
    b / h^2 (``assemble`` writes 2P as (2b) / h^2, exactly twice P), so
    C^-1 = K^-1 (x) P^-1, K the Dirichlet second difference on n - 1 points,
    with Green's function G_ij = min(i, j)(n - max(i, j)) / n.  P^-1 is one
    inverse of P for every residue: numpy's ``solve`` copies its right-hand
    sides one column at a time (0.34 ms against 0.01 ms at n = 512 on a
    2-core x86-64).  K^-1 E is G's end columns, (n - i) / n and i / n.
    K^-1 rhs takes two prefix sums along the residues, whose two terms
    cancel on oscillating data, so one step of iterative refinement follows;
    an empty rhs skips both.  Any other chain goes to ``_cyclic_reduction``.
    A singular P raises ``LinAlgError`` either way.  The arrays are small
    (a few thousand doubles at n = 512), so the steps write into preallocated
    arrays rather than pay numpy's per-call cost for fresh ones.
    """
    p = diag[0] / 2
    minus_p = -p
    if not ((diag == diag[0]).all() and (lower[1:] == minus_p).all() and (upper[:-1] == minus_p).all()):
        ends = np.zeros_like(diag)
        ends[0], ends[-1] = first, last
        return _cyclic_reduction(lower, diag, upper, np.concatenate([rhs, ends], axis=2))
    m, rows, q = rhs.shape
    p_inv, n = np.linalg.inv(p), m + 1
    i = np.arange(1.0, n)
    from_end = n - i
    out = np.empty((m, rows, q + rows))
    ends = out[:, :, q:]
    np.multiply((from_end / n)[:, None, None], p_inv @ first, out=ends)
    ends += (i / n)[:, None, None] * (p_inv @ last)
    if not q:
        return out

    def solve(b: np.ndarray) -> np.ndarray:
        # residues last, so that every elementwise step and prefix sum runs along m contiguous doubles
        z = (p_inv @ b).reshape(rows, q, m)
        after = np.empty_like(z)  # after[..., i] = sum over j > i of (n - j) z_j
        after[..., -1] = 0.0
        (from_end[:0:-1] * z[..., :0:-1]).cumsum(axis=2, out=after[..., -2::-1])
        before = np.multiply(i, z)  # before[..., i] = sum over j <= i of j z_j
        before.cumsum(axis=2, out=before)
        before *= from_end
        after *= i
        before += after
        before /= n
        return before

    b = rhs.transpose(1, 2, 0).reshape(rows, -1)
    y = solve(b)
    k_y = 2.0 * y
    k_y[..., 1:] -= y[..., :-1]
    k_y[..., :-1] -= y[..., 1:]
    residual = p @ k_y.reshape(rows, -1)
    np.subtract(b, residual, out=residual)
    y += solve(residual)
    out[:, :, :q] = y.transpose(2, 0, 1)
    return out


def _residue_eliminate(ops: GridOperators, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Eliminate residues 1..n-1 (the chain C) from A x = rhs; a singular pivot block raises ``LinAlgError``.

    ``rhs`` holds one row per grid point t_0..t_{M-1}; row 0, t_0, is
    eliminated with the Dirichlet zero and never read.  Returns the N x N
    residue-0 Schur complement S = D0 - V C^-1 U, its right side, the chain
    solves [C^-1 rhs, C^-1 U] per residue, and ||A||_1; the first
    elimination of ``ops`` keeps S and ||A||_1 on it for ``index_estimate``.
    For a = 0 ``_chain_solve`` solves C in closed form; cyclic reduction runs
    only on a chain with a nonzero coefficient.
    """
    diag, lower, upper = ops.diag, ops.lower, ops.upper
    n, p = diag.shape[:2]
    magnitudes = np.empty((3, n, p, p))
    np.abs(diag, out=magnitudes[0])
    np.abs(upper, out=magnitudes[1])
    np.abs(lower, out=magnitudes[2])
    # einsum, not sum(axis=2), which is 5x slower on these small blocks; column r of A meets diag[r],
    # upper[r - 1] and lower[r + 1], added in that order
    col_sums, from_upper, from_lower = np.einsum("irkl->irl", magnitudes)
    col_sums[1:] += from_upper[:-1]
    col_sums[0] += from_upper[-1]
    col_sums[:-1] += from_lower[1:]
    col_sums[-1] += from_lower[0]
    norm_1 = float(col_sums.max())

    # residues 1..n-1 form the chain; its couplings to residue 0 become extra right-hand sides
    q = rhs.shape[1]
    b = rhs.reshape(ops.stencil.N + 1, n, q).transpose(1, 0, 2)
    chain_lower, chain_upper = lower[1:].copy(), upper[1:].copy()
    chain_lower[0] = chain_upper[-1] = 0.0  # on copies, so the stored blocks keep these couplings
    y = _chain_solve(chain_lower, diag[1:], chain_upper, b[1:], lower[1], upper[-1])

    # slot 0 of residue 0 is t_0, a zero row and column of every block
    schur = (diag[0] - upper[0] @ y[0, :, q:] - lower[0] @ y[-1, :, q:])[1:, 1:]
    g = b[0] - upper[0] @ y[0, :, :q] - lower[0] @ y[-1, :, :q]
    if ops._schur is None:
        object.__setattr__(ops, "_schur", (schur, norm_1))
    return schur, g[1:], y, norm_1


def solve_grid(ops: GridOperators, f0_samples: np.ndarray) -> GridSolution:
    """Solve A v = f by residue blocks, with the probes of ``condition`` as extra right-hand sides.

    The chain of residues 1..n-1 is solved in closed form for a = 0 and by
    cyclic reduction otherwise (``_chain_solve``), in one pass with the
    chain's couplings to residue 0; the first elimination of ``ops`` keeps
    its Schur complement and ||A||_1 for ``index_estimate``.  Dense least
    squares replaces the block solve when the condition estimate exceeds
    1e12 or a pivot block is singular, as the R1 block is for a = 0 when
    det R1 = 0.
    """
    rhs = np.asarray(f0_samples, dtype=float)
    size = ops.size
    if rhs.shape != (size,):
        raise ValueError("right-hand side must have one sample per interior point")
    columns = np.empty((size + 1, 4))  # t_0, then f and the three probes at t_1..t_{M-1}
    columns[0] = 0.0
    columns[1:, 0] = rhs
    columns[1:, 1] = 1.0
    ramp = columns[1:, 2]
    np.divide(np.arange(size), size - 1, out=ramp)
    ramp += 1.0
    columns[1:, 3] = ramp
    columns[2::2, 3] *= -1.0
    probes = columns[1:, 1:]
    try:
        schur, g, y, norm_1 = _residue_eliminate(ops, columns)
        x = np.empty((ops.n, ops.stencil.N + 1, 4))  # f and the three probes: residue 0 solved last, then the chain
        x[0, 0] = 0.0
        x[0, 1:] = np.linalg.solve(schur, g)
        chain = x[1:]
        np.matmul(y[:, :, 4:], x[0], out=chain)
        np.subtract(y[:, :, :4], chain, out=chain)
        solved = x.transpose(1, 0, 2).reshape(-1, 4)[1:]
        growth = np.abs(solved[:, 1:]).sum(axis=0) / np.abs(probes).sum(axis=0)
        condition = float(norm_1 * growth.max())
    except np.linalg.LinAlgError:
        condition = math.inf
    ill = not math.isfinite(condition) or condition > 1e12
    values = np.linalg.lstsq(ops.operator.matrix, rhs, rcond=None)[0] if ill else solved[:, 0]
    return GridSolution(values=values, condition=condition, ill_conditioned=ill)


@dataclass(frozen=True)
class SpectrumCheck:
    """Distances between exact and grid spectra.

    ``containment_distance``: largest distance from an eigenvalue of R1 to the
    grid spectrum; ``block_distance``: largest distance from a grid eigenvalue
    to the union of the R1 and R2 spectra.  The grid spectrum is that of the
    residue blocks, n - 1 copies of R1 and one of R2, exactly so when no band
    of the shift couples two residues: every nonzero b_j must sit at an
    offset divisible by n (tested exactly, not to a tolerance); otherwise
    both distances are inf and ``ok`` fails.  ``_shift_bands`` writes every
    offset as j n, so that test fails only when ``_shift_bands`` is replaced,
    and both distances measure R1's eigenvalues against themselves: 0 for
    every stencil.  ``ok`` holds by construction.
    """

    n: int
    containment_distance: float
    block_distance: float

    @property
    def ok(self) -> bool:
        return self.containment_distance <= SPECTRUM_TOLERANCE


def spectrum_check(stencil: Stencil, n: int) -> SpectrumCheck:
    """Compare the R1 spectrum with the grid's at resolution n, from the stencil's kept eigenvalues of R1 and R2.

    R1 and R2 are decomposed once per stencil object, whatever n and however
    many calls; a coefficient outside the double range raises OverflowError.
    The decoupling test reads the bands of ``_shift_bands``, whose offsets are
    all multiples of n, so it passes on every stencil (see ``SpectrumCheck``).
    """
    exact_r1, exact_r2 = stencil.r1_eigenvalues, stencil.r2_eigenvalues
    if any(b != 0 and offset % n for offset, b in _shift_bands(stencil, n)):
        return SpectrumCheck(n=n, containment_distance=math.inf, block_distance=math.inf)
    grid_eigs = np.concatenate([exact_r1, exact_r2])  # the residue blocks: n - 1 copies of R1, one of R2
    nearest = np.abs(grid_eigs[:, None] - grid_eigs).min(axis=0)  # nearest[j]: from grid_eigs[j] to the grid spectrum
    containment, block = float(nearest[:len(exact_r1)].max()), float(nearest.max())
    return SpectrumCheck(n=n, containment_distance=containment, block_distance=block)


@dataclass(frozen=True)
class IndexEstimate:
    """Numerical kernel and cokernel dimensions from singular values.

    ``threshold`` is ``INDEX_THRESHOLD`` times ||A||_1.  ``smallest_forward``
    is sigma_min of the residue-0 Schur complement S, an upper bound on
    sigma_min(A) since S^-1 is a block of A^-1 (on the dense fallback, of A).
    """

    kernel_dim: int
    cokernel_dim: int
    threshold: float
    smallest_forward: float

    @property
    def index(self) -> int:
        return self.kernel_dim - self.cokernel_dim

    @property
    def balanced(self) -> bool:
        return self.kernel_dim == self.cokernel_dim


def index_estimate(ops: GridOperators) -> IndexEstimate:
    """Count singular values of the residue-0 Schur complement below ``INDEX_THRESHOLD`` times ||A||_1.

    With the chain C of residues 1..n-1 invertible, A and S = D0 - V C^-1 U
    have the same nullity, so the N x N S stands in for the whole operator.
    S and ||A||_1 are the ones the first ``solve_grid`` of ``ops`` kept, or
    come from an elimination with no right-hand sides, kept in turn: for
    a = 0, C^-1 U is read off in closed form, and cyclic reduction runs only
    for a nonzero coefficient.  A singular pivot block of the chain (for
    a = 0, det R1 = 0) falls back to the SVD of A on every call.  S is square, and S
    and S^T share their singular values, so one SVD gives both counts:
    ``kernel_dim == cokernel_dim`` and ``balanced`` hold by construction.
    ``balanced`` is a smoke check of the assembly, not evidence that the
    continuous problem has index zero.
    """
    try:
        if ops._schur is None:
            _residue_eliminate(ops, np.empty((ops.size + 1, 0)))
        schur, norm_1 = ops._schur
        singular = np.linalg.svd(schur, compute_uv=False)
    except np.linalg.LinAlgError:
        matrix = ops.operator.matrix
        norm_1 = float(np.linalg.norm(matrix, 1))
        singular = np.linalg.svd(matrix, compute_uv=False)
    cut = INDEX_THRESHOLD * norm_1 if norm_1 > 0 else INDEX_THRESHOLD
    small = int((singular < cut).sum())
    return IndexEstimate(kernel_dim=small, cokernel_dim=small, threshold=cut, smallest_forward=float(singular.min()))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max-node errors against an exact solution over a resolution sweep.

    When the scheme happens to be exact for the instance (the truncation
    error of the second difference vanishes on polynomials of degree <= 3),
    all errors sit at rounding level and an observed order is meaningless;
    ``exact_reproduction`` flags that case and ``orders`` is empty.
    """

    rows: tuple[ConvergenceRow, ...]
    orders: tuple[float, ...]
    exact_reproduction: bool

    @property
    def observed_order(self) -> float | None:
        return min(self.orders) if self.orders else None


def convergence_study(
    stencil: Stencil, f0: PiecewisePoly, exact_v: PiecewisePoly, resolutions: tuple[int, ...] = (32, 64, 128)
) -> ConvergenceStudy:
    rows = []
    for n in resolutions:
        ops = assemble(stencil, n)
        sol = solve_grid(ops, grid_samples(f0, ops))
        exact = np.array(exact_v.sample(Fraction(1, n), Fraction(1, n), ops.size))
        rows.append(ConvergenceRow(n=n, max_error=float(np.abs(sol.values - exact).max())))

    exact_reproduction = all(r.max_error < ROUNDING_FLOOR for r in rows)
    orders = [] if exact_reproduction else [
        math.log(prev.max_error / nxt.max_error) / math.log(nxt.n / prev.n)
        for prev, nxt in zip(rows, rows[1:]) if prev.max_error != 0 and nxt.max_error != 0
    ]
    return ConvergenceStudy(rows=tuple(rows), orders=tuple(orders), exact_reproduction=exact_reproduction)
