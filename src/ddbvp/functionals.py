"""Node functionals carving out images and admissible data.

Everything the structure theory produces downstream is a finite linear
combination of one-point derivative evaluations

    F(w) = sum over terms of  weight * w^(order)(node).

This module provides that as a small value type plus the three families the
analysis needs:

* ``membership_functionals``: the 2k functionals whose simultaneous vanishing
  characterizes the image of the order-k zero-trace class under the
  difference operator (both the right-edge and the mirrored left-edge
  variants of the node relations are supported);
* ``image_functionals``: the conditions cutting out the image of the
  difference operator acting between order-(k+2) spaces; their number is
  2(k+2) when the clipped end columns of the shift matrix are independent and
  k+3 when they are dependent, in which case the higher-order conditions are
  built from cofactor weights;
* ``solvability_constraints``: the data-side constraints for the second-order
  problem -(R v)'' = f, for the zero-trace and the minimal-domain solution
  classes.  Every solution of -w'' = f is w = d1*t + d2 - I (I the double
  antiderivative of f); ``eliminate_constants`` keeps the stack's (d1, d2)
  block, eliminates it once as an ``exactla.TwoColumnSystem`` and takes its
  left null vectors, integer rows in the block's RREF basis, as ``weights``,
  so each data constraint is one weight vector dotted with the stack's
  values on I.  The system also gives the block's rank and the solver's
  least-norm (d1, d2), and ``violations`` names each nonzero residual
  "<label> j".  The solver eliminates its order-zero boundary pair the same
  way, as a two-member stack whose residuals it labels "boundary
  constraint j".

Ranks are read off the weights in atom coordinates, one integer row per
functional with integer atom keys.  A stack of functionals is evaluated on a
function in one pass (``evaluate_stack``): each touched node is located once
per side and its Taylor jet read once, as integers over one denominator, up
to the highest order the stack touches (``PiecewisePoly.taylor_jet``); the
two jets at an interior node are compared by cross-multiplication, and each
functional's value is summed as integer ratios over their lcm, with one
Fraction built at the end.  ``NodeFunctional.evaluate`` is its one-member
case, and ``on_monomial`` sums the same way.  ``DataConstraints`` keeps its
weight vectors as integer rows over a per-row denominator, so
``violations`` takes integer dot products and builds a Fraction only for a
nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

from . import exactla
from .piecewise import PiecewisePoly
from .structure import GammaData, StructureReport, cofactor


@dataclass(frozen=True)
class NodeFunctional:
    """A finite sum of weighted one-point derivative evaluations."""

    terms: tuple[tuple[Fraction, int, Fraction], ...]  # (node, order, weight)
    label: str

    def evaluate(self, f: PiecewisePoly) -> Fraction:
        """Apply to a piecewise polynomial, using one-sided limits: the one-member ``evaluate_stack``.

        Interior nodes require the two one-sided limits of the touched
        derivative order to agree (the functional is only defined on
        functions continuous there at that order); endpoints use the inner
        limit.
        """
        return evaluate_stack((self,), f)[0]

    def on_monomial(self, d: int) -> Fraction:
        """Exact value on t^d (global coordinate): sum weight * d!/(d-mu)! * node^(d-mu)."""
        products = []
        for node, mu, weight in self.terms:
            if mu <= d:
                x_num, x_den = node.as_integer_ratio()
                products.append((
                    weight.numerator * math.perm(d, mu) * x_num ** (d - mu),
                    weight.denominator * x_den ** (d - mu),
                ))
        return _ratio_sum(products)


def _ratio_sum(pairs: Sequence[tuple[int, int]]) -> Fraction:
    """sum n / t over (n, t) integer pairs, t > 0, accumulated over the lcm of the t."""
    common = math.lcm(*(t for _, t in pairs))
    return Fraction(sum(n * (common // t) for n, t in pairs), common)


def _node_jets(f: PiecewisePoly, node: Fraction, count: int) -> tuple:
    """(the jet a functional reads, the other side's or None): the inner one at an endpoint, else (right, left)."""
    p, q = node.numerator, node.denominator
    if p * f.scale == f.nodes[-1] * q:
        return f.taylor_jet(node, count, -1), None
    right = f.taylor_jet(node, count, 1)
    return right, None if p * f.scale == f.nodes[0] * q else f.taylor_jet(node, count, -1)


def evaluate_stack(stack: Sequence[NodeFunctional], f: PiecewisePoly) -> list[Fraction]:
    """The value of each functional of a stack on f, in stack order: ``values_from_jets`` on f's jets.

    Each node a nonzero weight touches is located once per side, and its
    Taylor jet read up to the highest order the stack touches
    (``PiecewisePoly.taylor_jet``): the inner limit at an endpoint, both
    limits at an interior node, whose two jets must agree at every touched
    order (compared by cross-multiplication).  A node is read when the walk
    in stack and term order first reaches it, so the first failure raised is
    that of the first offending term, as if the functionals were applied one
    by one.
    """
    count = 1 + max((mu for fn in stack for _, mu, weight in fn.terms if weight), default=-1)
    jets: dict[tuple[int, int], tuple] = {}

    def jet_at(node: Fraction, mu: int, fn: NodeFunctional) -> tuple[Sequence[int], int]:
        key = node.numerator, node.denominator
        jet = jets.get(key)
        if jet is None:
            jet = jets[key] = _node_jets(f, node, count)
        (nums, den), left = jet
        if left is not None and left[0][mu] * den != nums[mu] * left[1]:
            fact = math.factorial(mu)
            raise ValueError(
                "derivative of order %d jumps at node %s (left %s, right %s); functional %r is undefined there"
                % (mu, node, Fraction(fact * left[0][mu], left[1]), Fraction(fact * nums[mu], den), fn.label)
            )
        return nums, den

    return values_from_jets(stack, jet_at)


def values_from_jets(
    stack: Sequence[NodeFunctional], jet_at: Callable[[Fraction, int, NodeFunctional], tuple[Sequence[int], int]]
) -> list[Fraction]:
    """The value of each functional of a stack, given the Taylor jet each of its terms reads.

    ``jet_at(node, mu, fn)`` is the jet that fn's term at (node, mu) reads,
    Taylor numerators over one positive denominator, so w^(mu)(node) =
    mu! nums[mu] / den.  A functional's value, the sum of weight * mu! *
    nums[mu] / den over its nonzero weights, is accumulated as integer
    ratios over their lcm, with one Fraction built at the end.
    """
    values = []
    for fn in stack:
        products = []
        for node, mu, weight in fn.terms:
            if weight:
                nums, den = jet_at(node, mu, fn)
                products.append((weight.numerator * math.factorial(mu) * nums[mu], weight.denominator * den))
        values.append(_ratio_sum(products))
    return values


def membership_functionals(gamma: GammaData, k: int) -> list[NodeFunctional]:
    """The 2k node conditions defining the image of the order-k zero-trace class.

    For each derivative order mu < k there is one edge relation and one
    interior relation.  With the right-edge variant these read

        w^(mu)(N+1) = sum_{i != m+1} gamma1[i] * w^(mu)(i-1),
        w^(mu)(m)   = sum_{i != m}   gamma2[i] * w^(mu)(i),

    and the left-edge variant replaces the first by
    w^(mu)(0) = sum_{i != m} gamma1[i] * w^(mu)(i).
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    if gamma.variant == "right_edge":
        name, edge = "edge", [(Fraction(gamma.N + 1), Fraction(1))]
        edge += [(Fraction(i - 1), -w) for i, w in sorted(gamma.gamma1.items()) if w]
    elif gamma.variant == "left_edge":
        name, edge = "edge'", [(Fraction(0), Fraction(1))]
        edge += [(Fraction(i), -w) for i, w in sorted(gamma.gamma1.items()) if w]
    else:
        raise ValueError("unknown variant %r" % gamma.variant)
    interior = [(Fraction(gamma.m), Fraction(1))]
    interior += [(Fraction(i), -w) for i, w in sorted(gamma.gamma2.items()) if w]
    out = []
    for mu in range(k):
        out.append(NodeFunctional(tuple((node, mu, w) for node, w in edge), "%s[mu=%d]" % (name, mu)))
        out.append(NodeFunctional(tuple((node, mu, w) for node, w in interior), "interior[mu=%d]" % mu))
    return out


def image_functionals(structure: StructureReport, k: int) -> list[NodeFunctional]:
    """Conditions cutting out the image of the difference operator at order k+2.

    A function w of order k+2 on (0, N+1) is the image of an order-(k+2)
    function with matching extension traces iff w satisfies the full
    membership set of order k+2 (2(k+2) functionals).  When the clipped end
    columns are dependent the higher orders collapse: only the two mu = 0
    relations survive verbatim, and for each mu in 1..k+1 a single cofactor
    relation

        B[1][l+1] w^(mu)(0)
        + sum_{i=1..N} (B[i+1][l+1] - B[i][l]) w^(mu)(i)
        - B[N+1][l] w^(mu)(N+1) = 0

    takes their place, for a total of k+3.  Here B[i][j] is the (i, j)
    cofactor of the shift matrix and l the admissible column index from the
    end-column data; that relation is exactly det(R1) times the jump of the
    mu-th derivative of the preimage's vectorization at node l, which is the
    identity the tests exercise.
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    if not structure.ends.dependent:
        return membership_functionals(structure.gamma, k + 2)
    n = structure.stencil.N
    l = structure.ends.l
    assert l is not None
    b_last_l = cofactor(structure.stencil, n + 1, l)
    if b_last_l == 0:
        # The admissible column index guarantees this cofactor is nonzero;
        # hitting zero means the end-column data is inconsistent.
        raise ValueError("cofactor B[N+1][l] vanished for l = %d; end-column data inconsistent" % l)
    weights = [(Fraction(0), cofactor(structure.stencil, 1, l + 1))]
    for i in range(1, n + 1):
        weights.append((Fraction(i), cofactor(structure.stencil, i + 1, l + 1) - cofactor(structure.stencil, i, l)))
    weights.append((Fraction(n + 1), -b_last_l))
    weights = [(node, w) for node, w in weights if w != 0]
    out = membership_functionals(structure.gamma, 1)
    for mu in range(1, k + 2):
        terms = tuple((node, mu, w) for node, w in weights)
        out.append(NodeFunctional(terms, "cofactor[mu=%d]" % mu))
    return out


def rank_of_functionals(fns: Sequence[NodeFunctional]) -> int:
    """Exact rank of a functional family, read off its weights.

    Atoms w -> w^(mu)(x) at distinct (x, mu) are linearly independent on
    polynomials: they lie inside a full Hermite set, and Hermite interpolation
    is unisolvent.  So the rank is that of the weight matrix in atom
    coordinates (repeated atoms summed, zero weights dropped), one integer
    row per functional: its weights over their lcm, which does not change the
    rank.  Atoms are keyed by integers and numbered in order of first use.
    Parts linked by shared derivative orders touch disjoint columns, so their
    ranks add.
    """
    parts: list[tuple[set[int], list[dict]]] = []
    for fn in fns:
        nums, _ = exactla.integer_numerators([weight for _, _, weight in fn.terms])
        weights: dict[tuple[int, int, int], int] = {}
        for (node, mu, _), w in zip(fn.terms, nums):
            if w:
                atom = node.numerator, node.denominator, mu
                weights[atom] = weights.get(atom, 0) + w
        row = {atom: w for atom, w in weights.items() if w}
        orders = {mu for _, _, mu in row}
        rows = [row]
        rest = []
        for part_orders, part_rows in parts:
            if part_orders & orders:
                orders |= part_orders
                rows += part_rows
            else:
                rest.append((part_orders, part_rows))
        parts = rest + [(orders, rows)]
    total = 0
    for _, rows in parts:
        atoms = list(dict.fromkeys(atom for row in rows for atom in row))
        total += exactla.integer_rank([[row.get(atom, 0) for atom in atoms] for row in rows])
    return total


@dataclass(frozen=True)
class DataConstraints:
    """Constraints on the right-hand side f after eliminating (d1, d2).

    Every solution of -w'' = f is w = d1*t + d2 - I with I the double
    antiderivative of f.  Stacking the node functionals that characterize the
    wanted solution class and eliminating the two constants leaves pure data
    constraints: each weight row u is a left null vector of the stack's
    (d1, d2) block ``block``, row i the values of stack[i] on t and on 1, and
    sum_i u_i * stack[i](I) must vanish.  ``system`` is the block's one
    integer elimination (``exactla.TwoColumnSystem``), which also gives the
    solver its least-norm (d1, d2).  Row j is its left null row, stored in
    integers, ``rows[j] = (numerators, den)`` with u = numerators / den;
    ``weights`` builds its Fractions on each read.  ``rank`` is the rank of
    ``block``, and ``violations`` names the residual of row j "<label> j",
    with "data constraint" the default label.
    """

    stack: tuple[NodeFunctional, ...]
    block: tuple[tuple[Fraction, Fraction], ...]
    system: exactla.TwoColumnSystem

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return self.system.left_null

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(n, den) for n in nums) for nums, den in self.rows)

    def violations(self, values: Sequence[Fraction], label: str = "data constraint") -> tuple[tuple[str, Fraction], ...]:
        """Nonzero residuals named "<label> j", given the stack's values on I in stack order.

        The values go over their lcm L once, so each residual is an integer
        dot product over den * L, and only a nonzero one becomes a Fraction.
        """
        if len(values) != len(self.stack):
            raise ValueError("expected %d stack values, got %d" % (len(self.stack), len(values)))
        v_nums, v_den = exactla.integer_numerators(values)
        bad = []
        for j, (nums, den) in enumerate(self.rows):
            total = sum(a * b for a, b in zip(nums, v_nums))
            if total:
                bad.append(("%s %d" % (label, j), Fraction(total, den * v_den)))
        return tuple(bad)


def eliminate_constants(stack: Sequence[NodeFunctional]) -> DataConstraints:
    """Eliminate (d1, d2) from a functional stack applied to w = d1 t + d2 - I.

    The stack's (d1, d2) block, row i the values of stack[i] on t and on 1,
    is eliminated once (``exactla.TwoColumnSystem``); its left null rows are
    the constraints' integer ``rows`` as they come.
    """
    block = tuple((fn.on_monomial(1), fn.on_monomial(0)) for fn in stack)
    return DataConstraints(stack=tuple(stack), block=block, system=exactla.TwoColumnSystem(block))


@dataclass(frozen=True)
class SolvabilityConstraints:
    """The two constraint stacks of one order, each eliminated on its first read; unpacks as (zero_trace, minimal).

    ``membership`` is the zero-trace stack before elimination; ``build_minimal``
    builds the minimal-domain stack, None when it is the zero-trace one.
    """

    membership: tuple[NodeFunctional, ...]
    build_minimal: Callable[[], DataConstraints] | None

    @cached_property
    def zero_trace(self) -> DataConstraints:
        return eliminate_constants(self.membership)

    @cached_property
    def minimal(self) -> DataConstraints:
        return self.zero_trace if self.build_minimal is None else self.build_minimal()

    def __iter__(self) -> Iterator[DataConstraints]:
        return iter((self.zero_trace, self.minimal))


def solvability_constraints(structure: StructureReport, k: int) -> SolvabilityConstraints:
    """Data constraints of -(R v)'' = f for the two solution classes of order k.

    Returns ``(zero_trace, minimal)``, each eliminated only when read, and the
    minimal stack built only then:

    * ``zero_trace``: v of order k+2 with vanishing extension traces (so the
      zero-extended solution stays order k+2 across the endpoints); the stack
      is the full membership set of order k+2, whose first two members are
      the order-zero boundary relations;
    * ``minimal``: v in the operator's minimal domain (v and R v of order k+2
      on the open interval, zero-trace only at order 1); the stack is
      ``image_functionals``.  With independent end columns that is the same
      set, and ``minimal is zero_trace``; with dependent ones it is the
      smaller cofactor set.
    """
    membership = tuple(membership_functionals(structure.gamma, k + 2))
    if not structure.ends.dependent:
        return SolvabilityConstraints(membership, None)
    return SolvabilityConstraints(membership, lambda: eliminate_constants(image_functionals(structure, k)))
