"""Exact piecewise polynomial calculus on an interval.

Functions are stored as a strictly increasing tuple of rational breakpoints
and one polynomial per piece, written in the local coordinate x = t - (left
breakpoint of the piece).  Local coordinates make translation free (only the
breakpoints move) and keep coefficients small.

Besides the usual algebra and calculus this module implements the operator
plumbing used everywhere else:

* ``linear_combination``: the one place functions are summed.  It aligns its
  terms on the union of their breakpoints, only when they do not all share
  one breakpoint tuple, and adds the scaled pieces; ``+`` and ``-`` go
  through it.  Refinement (``PiecewisePoly.refined``) carries unsplit pieces
  over unchanged and returns the function itself when nothing is inserted;
* the shift operator sum_j b_j f(t + j) of a :class:`~ddbvp.structure.Stencil`
  on (0, N+1), which reduces to the Toeplitz matrix R1 acting on the
  restrictions of f to unit intervals.  One kernel, ``_unit_product``, takes
  an m x c integer matrix M over one positive denominator D and f on c
  consecutive unit intervals, refines f once so that every unit carries the
  same fractional offsets, and returns the function on (0, m) whose unit i
  is sum_k M[i][k] / D * (unit k of f), summing over the nonzero M[i][k]
  only.  ``apply_shifted_sum`` runs it on y given on (-N, 2N+1) with the
  band matrix [i][i + j + N] = b_j, the stencil's integer numerators over
  their lcm, ``apply_difference`` on f on (0, N+1) with R1's integer rows
  ``Stencil.r1_numerators`` (R1 is R on the zero extension), and
  ``apply_difference_inverse`` with the integer R1^-1 that
  :func:`~ddbvp.structure.analyze` stored in its ``StructureReport`` (so it
  takes the report rather than the stencil);
* ``hermite_interpolant``: the one constructor that glues prescribed
  Taylor jets at the integer nodes 0..n, one ``two_point_hermite`` piece per
  unit interval.  A jet is taken in the integer form ``_jet_at`` returns
  (p^(mu)(x) / mu! as integers over one denominator), and each piece is one
  integer sum of the closed-form basis rows over the lcm of its two jets'
  denominators, with no Fraction and no factorial division.  The solver's
  extension and the battery's random functions are built on it;
* one-sided traces and jumps at a point (``trace``, ``jump``), and the table of
  every interior jump from the Taylor jets at each end of each piece: the
  private ``_jump_ratios`` yields each jump as an integer cross-difference
  over a positive denominator, ``PiecewisePoly.jumps`` builds one Fraction
  per entry, and ``smoothness_defects`` and ``trace_defects`` (which adds
  the end jets) build one only for a nonzero jump or trace; their empty
  lists define the Sobolev-type memberships used by the solvers;
* correctly rounded floats of a piece at rational points.  The piece is
  written as integers n_j over one common denominator D, and at x = X/Q it
  is sum n_j X^j Q^(d-j) / (D Q^d): integer Horner, then a single int / int
  division.  Python's integer true division is correctly rounded, so every
  float equals ``float`` of the exact Fraction value; nothing is rounded
  before that last step.  At one point that ratio is the order-0
  ``_taylor`` below, which the solution CSV divides out for its endpoint
  rows.  On an arithmetic progression the numerator is an integer
  polynomial in the index, and ``progression_floats`` gives a piece's
  floats there: top + 1 Horner values, then their difference table (Knuth,
  TAOCP vol. 2, section 4.6.4), top integer additions per later value,
  each value still one int / int division.
  ``PiecewisePoly.sample(start, step, count)``, for the grid samples, calls
  it once per piece, and so does the solution CSV for its regular rows.

A function is stored only in integers.  Breakpoint i is nodes[i] / scale,
the ``nodes`` strictly increasing over one positive ``scale`` in lowest terms
(gcd(scale, *nodes) = 1), and piece i is ``forms[i] = (numerators, den)``
with p = sum_d numerators[d] x^d / den, kept canonical (trailing zeros
trimmed, den > 0, gcd(den, *numerators) = 1, the zero polynomial
``((0,), 1)``), so ``same`` compares aligned forms directly.  Every kernel
reads and writes this form, and kernels that meet several partitions put
them over the lcm of the scales: a Fraction operation pays for a gcd, an
integer one does not.  ``breaks``, ``start``, ``end`` and ``pieces`` build
Fractions on each read, for the API only.
``_taylor`` gives the Taylor coefficient p^(k)(x)/k! = sum_{d>=k} C(d, k)
c_d x^(d-k) at x = X/Q by integer Horner with powers of Q, and reads c_k
directly at x = 0 (a right limit at a breakpoint); ``taylor_limit`` (under
``trace`` and ``value``) is built on it.  ``_shifted`` re-expands a piece at
a new left end, for ``refined`` and ``from_global``: Q^top p(x + X/Q) is
sum_d n_d Q^(top-d) (Qx + X)^d, an integer Taylor shift by X done by
synthetic division.  Its coefficients are the whole Taylor jet at X/Q over
one denominator, so ``_jet_at`` reads a jet as one ``_shifted`` (none at a
piece's left end); ``taylor_jet`` (under ``evaluate_stack`` in
:mod:`~ddbvp.functionals`), the jump table, the end jets of
``trace_defects`` and those of the solver's Hermite extension are built on
it.  ``_integer_sum``, under ``linear_combination`` and ``_unit_product``,
accumulates each piece of a sum of (c / t) * P / D terms as
c * P * (L // (t D)), with P the numerators of a term's piece over its
denominator D and L the lcm of all the t D.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Iterator, Sequence

from . import exactla
from .exactla import to_fraction
from .structure import Stencil, StructureReport

DEGREE_CAP = 64


class DegreeCapError(ValueError):
    """Polynomial degree exceeded DEGREE_CAP (runaway antidifferentiation guard)."""


# ---------------------------------------------------------------------------
# plain polynomial helpers on coefficient tuples (c0, c1, ...) = sum c_d x^d


def ptrim(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c) if c else (Fraction(0),)


# ---------------------------------------------------------------------------
# the stored integer form of a piece: (numerators, den), see the module docstring

Form = tuple[tuple[int, ...], int]


def _form(nums: Sequence[int], den: int) -> Form:
    """The canonical form of sum_d nums[d] x^d / den (module docstring)."""
    top = len(nums)
    while top and not nums[top - 1]:
        top -= 1
    if not top:
        return (0,), 1
    g = math.gcd(den, *nums[:top])
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums[:top]), den
    return tuple(n // g for n in nums[:top]), den // g


def _form_of(coeffs: Iterable) -> Form:
    """The form of a coefficient sequence of ints, Fractions or 'p/q' strings."""
    return _form(*exactla.integer_numerators([to_fraction(x) for x in coeffs]))


def _grid(points: Iterable) -> tuple[list[int], int]:
    """Points (ints, Fractions or 'p/q' strings) as integers over their least common denominator."""
    return exactla.integer_numerators([p if type(p) is int else to_fraction(p) for p in points])


def _shifted(form: Form, x_num: int, x_den: int) -> Form:
    """The form of p(x + X/Q): p re-expanded around X/Q, for Q > 0.

    With top the degree, Q^top p(x + X/Q) = sum_d a_d (Qx + X)^d for
    a_d = n_d Q^(top-d).  Synthetic division shifts the a_d by X in
    integers, and the coefficient of u^j = (Qx)^j gives a_j Q^j over
    den * Q^top.
    """
    nums, den = form
    top = len(nums) - 1
    if not x_num or not top:
        return form
    acc, power = list(nums), 1
    for d in range(top - 1, -1, -1):
        power *= x_den
        acc[d] *= power
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            acc[j] += x_num * acc[j + 1]
    scale = 1
    for j in range(1, top + 1):
        scale *= x_den
        acc[j] *= scale
    return _form(acc, den * power)


def _jet_at(form: Form, x_num: int, x_den: int, count: int) -> Form:
    """p^(k)(x) / k! for k < count, as count integers over one den, for p in form at x = X/Q, Q > 0.

    They are the coefficients of p re-expanded at x, one ``_shifted`` (none at x = 0).
    """
    nums, den = _shifted(form, x_num, x_den)
    return tuple(nums[:count]) + (0,) * (count - len(nums)), den


def _taylor(nums: Sequence[int], den: int, x_num: int, x_den: int, k: int) -> tuple[int, int]:
    """p^(k)(x) / k! as an unreduced integer ratio, for p = sum_d nums[d] t^d / den at x = X/Q, Q > 0.

    That is sum_{d >= k} C(d, k) c_d x^(d-k); integer Horner gives
    sum_d C(d, k) n_d X^(d-k) Q^(top-d) over den * Q^(top-k).  At x = 0 it is
    c_k, so the right limit at a breakpoint costs nothing.
    """
    top = len(nums) - 1
    if k > top:
        return 0, 1
    if not x_num:
        return nums[k], den
    acc, power = nums[top] * math.comb(top, k), 1
    for d in range(top - 1, k - 1, -1):
        power *= x_den
        acc = acc * x_num + math.comb(d, k) * nums[d] * power
    return acc, den * power


def progression_floats(form: Form, x_num: int, stride: int, x_den: int, count: int) -> Iterator[float]:
    """The correctly rounded floats of the piece at x_i = (x_num + i * stride) / x_den, i < count, x_den > 0.

    The numerator N(i) = sum_d n_d X_i^d Q^(top-d) of the order-0 ``_taylor``
    is an integer polynomial of degree top in i.  Its first top + 1 values
    come by integer Horner on the call; each later one is top additions of
    backward differences, run in C by nested ``accumulate`` as it is drawn,
    holding O(top) ints.  Every float is one int / int division, made as it
    is drawn, so it equals the division of the order-0 ``_taylor`` bit for
    bit and an overflow raises only on its own draw.  A piece drawn at no
    more than top + 1 points builds no difference table.
    """
    nums, den = form
    top = len(nums) - 1
    coeffs, power = [nums[top]], 1  # n_d Q^(top-d), highest degree first
    for d in range(top - 1, -1, -1):
        power *= x_den
        coeffs.append(nums[d] * power)
    head = []
    for i in range(min(count, top + 1)):
        x, acc = x_num + i * stride, 0
        for c in coeffs:
            acc = acc * x + c
        head.append(acc)
    numerators: Iterable[int] = head
    if count > top + 1:
        # the backward differences of N at i = top, order 0 first
        edge, diffs = [], head
        for _ in range(top + 1):
            edge.append(diffs[-1])
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        later = repeat(edge.pop())
        for start in reversed(edge):
            later = accumulate(later, initial=start)
            next(later)  # the initial value, at i = top; the next one is at i = top + 1
        numerators = chain(head, islice(later, count - top - 1))
    return map(operator.truediv, numerators, repeat(den * power))


def two_point_hermite(left: Form, right: Form) -> Form:
    """The form on local (0, 1) matching Taylor jets at both ends.

    ``left`` and ``right`` are jets in the integer form of ``_jet_at``: the
    Taylor coefficients p^(mu)(x) / mu! at x = 0 and x = 1, as integers over
    one positive denominator.  Both must have the same length r, and the
    interpolant, of degree at most 2r - 1, is unique.  It is sum_mu
    left[mu] mu! A_mu(x) + right[mu] mu! B_mu(x) in the closed-form basis

        A_mu(x) = x^mu / mu! * (1 - x)^r * sum_{j < r - mu} C(r - 1 + j, j) x^j,
        B_mu(x) = (-1)^mu A_mu(1 - x),

    whose mu-th derivative is 1 at its own end and every other derivative of
    order below r vanishes at both ends, so mu! A_mu has Taylor coefficient
    1 there and the Taylor numerators are the weights.  The basis is built
    once per r, and the sum is taken in integers over the lcm of the two
    denominators.
    """
    (left_nums, left_den), (right_nums, right_den) = left, right
    count = len(left_nums)
    if len(right_nums) != count:
        raise ValueError("end jets must have equal length")
    den = math.lcm(left_den, right_den)
    lm, rm = den // left_den, den // right_den
    weights = [n * lm for n in left_nums] + [n * rm for n in right_nums]
    acc = [0] * (2 * count)
    for scale, poly in zip(weights, _hermite_basis(count)):
        if scale:
            for d, c in enumerate(poly):
                acc[d] += scale * c
    return _form(acc, den)


@functools.cache
def _hermite_basis(count: int) -> tuple[tuple[int, ...], ...]:
    """mu! A_mu for mu < count, then mu! B_mu, as integer coefficient tuples of length 2 count."""
    size = 2 * count
    # (1 - x)^count * sum_{j < count - mu} C(count - 1 + j, j) x^j, shifted up by mu
    power = [(-1) ** i * math.comb(count, i) for i in range(count + 1)]
    left = []
    for mu in range(count):
        poly = [0] * size
        for j in range(count - mu):
            c = math.comb(count - 1 + j, j)
            for i, p in enumerate(power):
                poly[mu + j + i] += c * p
        left.append(tuple(poly))
    # mu! B_mu(x) = (-1)^mu (mu! A_mu)(1 - x), expanding each (1 - x)^d
    right = []
    for mu, poly in enumerate(left):
        out = [0] * size
        for d, c in enumerate(poly):
            if c:
                for i in range(d + 1):
                    out[i] += (-1) ** (mu + i) * c * math.comb(d, i)
        right.append(tuple(out))
    return tuple(left + right)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Piecewise polynomial with rational breakpoints, local-coordinate pieces.

    Breakpoint i is ``nodes[i] / scale`` and ``forms`` holds one canonical
    integer form per piece (module docstring); the constructor is internal,
    and callers build with ``from_pieces``, ``from_global``, ``zero`` or
    ``constant``.
    """

    nodes: tuple[int, ...]
    scale: int
    forms: tuple[Form, ...]

    def __post_init__(self):
        nodes = self.nodes
        if len(nodes) < 2 or len(self.forms) != len(nodes) - 1:
            raise ValueError("need n+1 breakpoints for n pieces")
        if not all(map(operator.lt, nodes, nodes[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.scale < 1 or math.gcd(self.scale, *nodes) != 1:
            raise ValueError("breakpoints must be integers over a positive scale, in lowest terms")
        for nums, _ in self.forms:
            if len(nums) - 1 > DEGREE_CAP:
                raise DegreeCapError("piece degree %d exceeds cap %d" % (len(nums) - 1, DEGREE_CAP))

    @property
    def breaks(self) -> tuple[Fraction, ...]:
        """The breakpoints as Fractions, built from ``nodes`` on every read."""
        return tuple(Fraction(n, self.scale) for n in self.nodes)

    @property
    def pieces(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Fraction coefficients of each piece, built from ``forms`` on every read."""
        return tuple(tuple(Fraction(n, den) for n in nums) for nums, den in self.forms)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pieces(cls, breaks: Iterable, pieces: Iterable[Sequence]) -> "PiecewisePoly":
        nodes, scale = _grid(breaks)
        return cls(tuple(nodes), scale, tuple(_form_of(piece) for piece in pieces))

    @classmethod
    def from_global(cls, coeffs: Sequence, breaks: Iterable) -> "PiecewisePoly":
        """A single global-coordinate polynomial, rebased onto each piece."""
        nodes, scale = _grid(breaks)
        glob = _form_of(coeffs)
        return cls(tuple(nodes), scale, tuple(_shifted(glob, n, scale) for n in nodes[:-1]))

    @classmethod
    def zero(cls, a, b) -> "PiecewisePoly":
        return cls.from_pieces((a, b), ((0,),))

    @classmethod
    def constant(cls, value, a, b) -> "PiecewisePoly":
        return cls.from_pieces((a, b), ((value,),))

    # -- basic queries -------------------------------------------------------

    @property
    def start(self) -> Fraction:
        return Fraction(self.nodes[0], self.scale)

    @property
    def end(self) -> Fraction:
        return Fraction(self.nodes[-1], self.scale)

    @property
    def degree(self) -> int:
        return max(len(nums) - 1 for nums, _ in self.forms)

    def __repr__(self) -> str:
        rng = "(%s, %s)" % (self.start, self.end)
        return "PiecewisePoly(%d pieces on %s, degree %d)" % (len(self.forms), rng, self.degree)

    # -- refinement and alignment -------------------------------------------

    def refined(self, extra: Iterable) -> "PiecewisePoly":
        """Same function with additional breakpoints inserted.

        Returns ``self`` when no new point falls inside the domain.  A piece
        whose left breakpoint stays is carried over unchanged; only pieces
        that start at an inserted point are re-expanded there.
        """
        points, den = _grid(extra)
        scale = math.lcm(den, self.scale)
        own = self._nodes_over(scale)
        new = {p * (scale // den) for p in points}.difference(own)
        if not new:
            return self
        if min(new) < own[0] or max(new) > own[-1]:
            raise ValueError("refinement points outside the domain")
        return self._onto(sorted(new.union(own)), scale)

    def _nodes_over(self, scale: int) -> Sequence[int]:
        """The nodes over ``scale``, a multiple of ``self.scale``."""
        m = scale // self.scale
        return self.nodes if m == 1 else [n * m for n in self.nodes]

    def _onto(self, nodes: Sequence[int], scale: int) -> "PiecewisePoly":
        """Same function on the partition nodes / scale, in lowest terms and holding every breakpoint of self."""
        own = self._nodes_over(scale)
        if len(nodes) == len(own):
            return self
        forms = []
        idx = -1
        for lo in nodes[:-1]:
            if lo == own[idx + 1]:
                idx += 1
                forms.append(self.forms[idx])
            else:
                forms.append(_shifted(self.forms[idx], lo - own[idx], scale))
        return PiecewisePoly(tuple(nodes), scale, tuple(forms))

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return linear_combination(((1, self), (1, other)))

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return linear_combination(((1, self), (-1, other)))

    def __neg__(self) -> "PiecewisePoly":
        return self.scaled(Fraction(-1))

    def scaled(self, s) -> "PiecewisePoly":
        s_num, s_den = to_fraction(s).as_integer_ratio()
        forms = tuple(_form([s_num * n for n in nums], s_den * den) for nums, den in self.forms)
        return PiecewisePoly(self.nodes, self.scale, forms)

    def same(self, other: "PiecewisePoly") -> bool:
        """Exact equality as functions (up to breakpoint refinement)."""
        if (self.start, self.end) != (other.start, other.end):
            return False
        a, b = align_many((self, other))
        return a.forms == b.forms

    # -- calculus --------------------------------------------------------------

    def derivative(self, order: int = 1) -> "PiecewisePoly":
        """p^(order) on each piece: coefficient d - order is d! / (d - order)! * c_d."""
        if not order:
            return self
        return PiecewisePoly(self.nodes, self.scale, tuple(
            _form([math.perm(d, order) * nums[d] for d in range(order, len(nums))], den) for nums, den in self.forms
        ))

    def antiderivative(self, value_at_start=0) -> "PiecewisePoly":
        """The continuous antiderivative F with F(start) = value_at_start.

        On a piece of degree top, F = A/B + sum_d n_d x^(d+1) / ((d+1) den),
        with A/B the value carried from the previous piece's end (integer
        Horner there), is written over lcm(den * lcm(1..top+1), B).
        """
        acc_num, acc_den = to_fraction(value_at_start).as_integer_ratio()
        forms = []
        for (nums, den), lo, hi in zip(self.forms, self.nodes, self.nodes[1:]):
            if len(nums) > DEGREE_CAP:
                raise DegreeCapError("antiderivative degree %d exceeds cap %d" % (len(nums), DEGREE_CAP))
            scale = math.lcm(*range(1, len(nums) + 1))
            common = math.lcm(den * scale, acc_den)
            m = common // (den * scale)
            integral = [n * m * (scale // (d + 1)) for d, n in enumerate(nums)]
            form = _form([acc_num * (common // acc_den)] + integral, common)
            forms.append(form)
            acc_num, acc_den = _taylor(*form, hi - lo, self.scale, 0)
            g = math.gcd(acc_num, acc_den)
            acc_num, acc_den = acc_num // g, acc_den // g
        return PiecewisePoly(self.nodes, self.scale, tuple(forms))

    # -- geometry ---------------------------------------------------------------

    def shifted(self, s) -> "PiecewisePoly":
        """The translate t -> f(t - s); local pieces are untouched."""
        s_num, s_den = to_fraction(s).as_integer_ratio()
        scale = math.lcm(self.scale, s_den)
        step = s_num * (scale // s_den)
        return PiecewisePoly(*_lowest([n + step for n in self._nodes_over(scale)], scale), self.forms)

    def restricted(self, a, b) -> "PiecewisePoly":
        a, b = to_fraction(a), to_fraction(b)
        if not (self.start <= a < b <= self.end):
            raise ValueError("restriction (%s, %s) outside domain" % (a, b))
        ref = self.refined((a, b))
        lo, hi = (ref.nodes.index(x.numerator * (ref.scale // x.denominator)) for x in (a, b))
        return PiecewisePoly(*_lowest(ref.nodes[lo:hi + 1], ref.scale), ref.forms[lo:hi])

    # -- traces -------------------------------------------------------------------

    def _locate(self, t, side: int) -> tuple[int, int, int]:
        """The piece holding the right (side +1) or left (side -1) limit at t, and t's offset X/Q in it.

        For t = P/Q, P * scale = u Q + r; t is a breakpoint, where the sides take different pieces, iff r = 0.
        """
        t = to_fraction(t)
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        p, q = t.as_integer_ratio()
        u, r = divmod(p * self.scale, q)
        if side == 1 or r:
            idx = bisect.bisect_right(self.nodes, u) - 1  # the piece [b_i, b_{i+1}) holding t
        else:
            idx = bisect.bisect_left(self.nodes, u) - 1  # the piece (b_i, b_{i+1}] ending at t
        if not 0 <= idx < len(self.forms):
            raise ValueError("no %s limit at %s" % ("right" if side == 1 else "left", t))
        return idx, p * self.scale - self.nodes[idx] * q, q * self.scale

    def taylor_limit(self, t, order: int, side: int) -> tuple[int, int]:
        """The right (side +1) or left (side -1) limit of p^(order) / order! at t, as an unreduced integer ratio."""
        idx, x_num, x_den = self._locate(t, side)
        return _taylor(*self.forms[idx], x_num, x_den, order)

    def taylor_jet(self, t, count: int, side: int) -> Form:
        """The right (side +1) or left (side -1) limits of p^(mu) / mu! at t, mu < count, as integers over one den.

        One ``_shifted`` of the piece, none for a right limit at a breakpoint.
        """
        idx, x_num, x_den = self._locate(t, side)
        return _jet_at(self.forms[idx], x_num, x_den, count)

    def trace(self, t, order: int, side: int) -> Fraction:
        num, den = self.taylor_limit(t, order, side)
        return Fraction(math.factorial(order) * num, den)

    def value(self, t) -> Fraction:
        """Value at a point of continuity; raises if the two limits disagree."""
        t = to_fraction(t)
        if not self.start <= t <= self.end:
            raise ValueError("point %s outside domain" % t)
        if t == self.end:
            return self.trace(t, 0, -1)
        right = self.trace(t, 0, 1)
        if t != self.start:
            left = self.trace(t, 0, -1)
            if left != right:
                raise ValueError("function jumps at %s (left %s, right %s)" % (t, left, right))
        return right

    def sample(self, start, step, count: int) -> list[float]:
        """Right limits f(t+) as floats at t_i = start + i * step, i < count, all in [start, end).

        Each float is the correctly rounded value of the exact right limit,
        bit-identical to ``float(self.trace(t_i, 0, +1))``.  Over the
        denominator den = L * scale, L = lcm of the denominators of start and
        step, t_i is (first + i * stride) / den; floor division gives each
        piece's first index, and each piece is one ``progression_floats``.
        """
        s_num, s_den = to_fraction(start).as_integer_ratio()
        h_num, h_den = to_fraction(step).as_integer_ratio()
        if h_num <= 0 or count < 0:
            raise ValueError("need a positive step and a non-negative count")
        m = math.lcm(s_den, h_den)
        den = m * self.scale
        first, stride = s_num * (den // s_den), h_num * (den // h_den)
        last = first + (count - 1) * stride
        if count and not self.nodes[0] * m <= first <= last < self.nodes[-1] * m:
            raise ValueError("points %s..%s outside [%s, %s)" % (Fraction(first, den), Fraction(last, den), self.start, self.end))
        out: list[float] = []
        for form, lo, hi in zip(self.forms, self.nodes, self.nodes[1:]):
            # the indices i with lo <= t_i < hi, over den
            i_lo = max(0, -((first - lo * m) // stride))
            i_hi = min(count, -((first - hi * m) // stride))
            if i_lo < i_hi:
                out.extend(progression_floats(form, first + i_lo * stride - lo * m, stride, den, i_hi - i_lo))
        return out

    def jump(self, t, order: int = 0) -> Fraction:
        """Right minus left limit of the order-th derivative at an interior point."""
        return self.trace(t, order, 1) - self.trace(t, order, -1)

    def jumps(self, count: int) -> list[tuple[Fraction, int, Fraction]]:
        """(t, mu, jump(t, mu)) at every interior breakpoint t, for mu < count, by t then mu, one Fraction per entry."""
        scale = self.scale
        return [
            (Fraction(node, scale), mu, Fraction(math.factorial(mu) * num, den))
            for node, mu, num, den in self._jump_ratios(count)
        ]

    def _jump_ratios(self, count: int) -> Iterator[tuple[int, int, int, int]]:
        """(node, mu, num, den) at every interior breakpoint node / scale, for mu < count, by node then mu.

        The jump of the mu-th derivative is mu! num / den, the cross-difference
        num = r L - l R of the right-limit Taylor coefficient r / R and the
        left-limit one l / L, over den = R L > 0; it vanishes iff num = 0.
        """
        scale, nodes, forms = self.scale, self.nodes, self.forms
        for i in range(1, len(forms)):
            left, l_den = _jet_at(forms[i - 1], nodes[i] - nodes[i - 1], scale, count)
            right, r_den = _jet_at(forms[i], 0, 1, count)
            for mu, (l_num, r_num) in enumerate(zip(left, right)):
                yield nodes[i], mu, r_num * l_den - l_num * r_den, r_den * l_den


def _lowest(nodes: Sequence[int], scale: int) -> tuple[tuple[int, ...], int]:
    """nodes / scale in lowest terms."""
    g = math.gcd(scale, *nodes)
    return tuple(n // g for n in nodes), scale // g


# ---------------------------------------------------------------------------
# operator plumbing


def align_many(funcs: Sequence[PiecewisePoly]) -> list[PiecewisePoly]:
    """Refine functions on one domain to the union of their breakpoints."""
    if not funcs:
        return []
    scale = math.lcm(*(f.scale for f in funcs))
    first = funcs[0]._nodes_over(scale)
    pts: set[int] = set()
    for f in funcs:
        own = f._nodes_over(scale)
        if (own[0], own[-1]) != (first[0], first[-1]):
            raise ValueError("cannot align functions on different domains")
        pts.update(own)
    nodes = sorted(pts)
    return [f._onto(nodes, scale) for f in funcs]


def linear_combination(terms: Iterable[tuple[object, PiecewisePoly]]) -> PiecewisePoly:
    """sum c * f over (coefficient, function) pairs on one domain.

    Functions that do not all share one breakpoint tuple are aligned on the
    union of their breakpoints first.  Terms with a zero coefficient add
    nothing but still contribute their breakpoints.  Each piece of the sum is
    one ``_integer_sum`` (module docstring).
    """
    terms = list(terms)
    coefs = [to_fraction(c) for c, _ in terms]
    funcs = [f for _, f in terms]
    nodes, scale = funcs[0].nodes, funcs[0].scale
    if any(f.scale != scale or f.nodes != nodes for f in funcs):
        funcs = align_many(funcs)
        nodes, scale = funcs[0].nodes, funcs[0].scale
    live = [(c.numerator, c.denominator, f.forms) for c, f in zip(coefs, funcs) if c]
    forms = tuple(_integer_sum((c, t, term_forms[i]) for c, t, term_forms in live) for i in range(len(nodes) - 1))
    return PiecewisePoly(nodes, scale, forms)


def _integer_sum(terms: Iterable[tuple[int, int, Form]]) -> Form:
    """The form of sum (c / t) * P / D over (c, t, (P, D)) terms, t > 0, in integers over the lcm of the t * D."""
    scaled = [(c, t * den, nums) for c, t, (nums, den) in terms]
    common = math.lcm(*(t for _, t, _ in scaled))
    acc = [0] * max((len(nums) for _, _, nums in scaled), default=0)
    for c, t, nums in scaled:
        m = c * (common // t)
        for d, n in enumerate(nums):
            acc[d] += m * n
    return _form(acc, common)


def concat(parts: Sequence[PiecewisePoly]) -> PiecewisePoly:
    """Paste functions on adjacent intervals into one; local pieces carry over."""
    scale = math.lcm(*(part.scale for part in parts))
    nodes: list[int] = list(parts[0]._nodes_over(scale))
    forms: list[Form] = list(parts[0].forms)
    for part in parts[1:]:
        own = part._nodes_over(scale)
        if own[0] != nodes[-1]:
            raise ValueError("parts are not adjacent: %s != %s" % (part.start, Fraction(nodes[-1], scale)))
        nodes.extend(own[1:])
        forms.extend(part.forms)
    return PiecewisePoly(tuple(nodes), scale, tuple(forms))


def hermite_interpolant(jets: Sequence[Form]) -> PiecewisePoly:
    """The function on (0, len(jets) - 1) whose Taylor jet at node i is ``jets[i]``, in ``_jet_at``'s integer form.

    One ``two_point_hermite`` piece per unit interval, so with jets of
    length r the function is C^(r-1) at every interior node.
    """
    forms = tuple(two_point_hermite(left, right) for left, right in zip(jets, jets[1:]))
    return PiecewisePoly(tuple(range(len(jets))), 1, forms)


def zero_extension(f: PiecewisePoly, a, b) -> PiecewisePoly:
    """Extend by zero from f's domain to the larger interval (a, b)."""
    a, b = to_fraction(a), to_fraction(b)
    if a > f.start or b < f.end:
        raise ValueError("extension interval must contain the domain")
    parts = []
    if a < f.start:
        parts.append(PiecewisePoly.zero(a, f.start))
    parts.append(f)
    if b > f.end:
        parts.append(PiecewisePoly.zero(f.end, b))
    return concat(parts)


def _unit_product(matrix: Sequence[Sequence[int]], den: int, f: PiecewisePoly, start: int) -> PiecewisePoly:
    """Unit i on (0, m) is sum_k M[i][k] / den * (unit k of f), for f on (start, start + c).

    M is an m x c integer matrix over one den > 0.  Each piece of the sum is
    one ``_integer_sum`` over the stored forms of f's common refinement,
    taken over the nonzero entries of its row only.
    """
    cols = len(matrix[0])
    scale = f.scale
    if (f.nodes[0], f.nodes[-1]) != (start * scale, (start + cols) * scale):
        raise ValueError("expected a function on (%d, %d)" % (start, start + cols))
    # the offsets over f's scale keep it in lowest terms: they are the fractional parts of f's breakpoints
    offsets = sorted({n % scale for n in f.nodes})
    f = f._onto([(start + k) * scale + o for k in range(cols) for o in offsets] + [(start + cols) * scale], scale)
    per_unit = len(offsets)
    nodes, forms = [], []
    for i, row in enumerate(matrix):
        live = [(c, k * per_unit) for k, c in enumerate(row) if c]
        nodes.extend(i * scale + o for o in offsets)
        forms.extend(_integer_sum((c, den, f.forms[first + q]) for c, first in live) for q in range(per_unit))
    nodes.append(len(matrix) * scale)
    return PiecewisePoly(tuple(nodes), scale, tuple(forms))


def apply_difference(stencil: Stencil, f: PiecewisePoly) -> PiecewisePoly:
    """sum_j b_j f(t + j) on (0, N+1), f extended by zero outside: R1 = T / D on the unit pieces of f.

    Unit k of the zero extension reaches unit i of the sum with weight
    b_{k-i} = R1[i][k], so R1 on the units of f is the whole operator and
    no zero pieces are built.  ``_unit_product`` refuses f off (0, N+1).
    """
    return _unit_product(*stencil.r1_numerators, f, 0)


def apply_difference_inverse(structure: StructureReport, w: PiecewisePoly) -> PiecewisePoly:
    """The unique zero-extended f on (0, N+1) with apply_difference(f) == w.

    Multiplies the unit pieces of w by the report's integer R1^-1 over its
    denominator; the report exists only for stencils with det R1 != 0, so
    the inverse always exists.
    """
    return _unit_product(structure.inverse, structure.inverse_den, w, 0)


def apply_shifted_sum(stencil: Stencil, y: PiecewisePoly) -> PiecewisePoly:
    """sum_j b_j y(t + j) restricted to (0, N+1), for y given on (-N, 2N+1).

    The band [i][i + j + N] = b_j holds the stencil's integer numerators over their lcm.
    """
    n = stencil.N
    nums, den = exactla.integer_numerators(stencil.coeffs)
    band = [[0] * i + nums + [0] * (n - i) for i in range(n + 1)]
    return _unit_product(band, den, y, -n)


# ---------------------------------------------------------------------------
# trace defects and smoothness classes


def trace_defects(f: PiecewisePoly, k: int) -> list[tuple[str, Fraction, int, Fraction]]:
    """Defects against the zero-trace class of order k.

    Membership means: one-sided traces of orders 0..k-1 vanish at both
    endpoints and the jumps of orders 0..k-1 vanish at every interior
    breakpoint (so the zero extension keeps the same smoothness order).
    Returns a list of (kind, node, order, value) with nonzero values only;
    each trace and jump is tested as an integer and only a nonzero one
    becomes a Fraction.
    """
    ends = (
        (f.start, _jet_at(f.forms[0], 0, 1, k)),
        (f.end, _jet_at(f.forms[-1], f.nodes[-1] - f.nodes[-2], f.scale, k)),
    )
    jumps = smoothness_defects(f, k)
    out = []
    for mu in range(k):
        fact = math.factorial(mu)
        out.extend(("endpoint", t, mu, Fraction(fact * nums[mu], den)) for t, (nums, den) in ends if nums[mu])
        out.extend(("jump", t, m, j) for t, m, j in jumps if m == mu)
    return out


def smoothness_defects(f: PiecewisePoly, k: int) -> list[tuple[Fraction, int, Fraction]]:
    """Nonzero interior jumps of orders 0..k-1 by order, then node (order-k smoothness on the open interval)."""
    scale = f.scale
    defects = [
        (Fraction(node, scale), mu, Fraction(math.factorial(mu) * num, den))
        for node, mu, num, den in f._jump_ratios(k) if num
    ]
    return sorted(defects, key=lambda d: d[1])
