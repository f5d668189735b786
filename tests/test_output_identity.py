"""Output identity guard: one sha256 over the exact outputs of a fixed set of solves.

The digest was computed before the integer kernels of ``piecewise`` and
``functionals`` went in, so a change to the arithmetic that alters any output
byte (a Fraction, a piece, a report line, a CSV float) fails here.  An
intended change of output must say so and update ``EXPECTED``.
"""

import dataclasses
import enum
import hashlib
import json
import random
from fractions import Fraction

from ddbvp import cli, functionals, verification
from ddbvp.piecewise import PiecewisePoly
from ddbvp.solver import BVPProblem, solve_nonhomogeneous
from ddbvp.structure import Stencil

EXPECTED = "d2741e225b89b83dc634a298747e6c5bd3038e1019f6400cdacced4798ce39e6"


def _dump(x) -> str:
    """Canonical text of a result: every Fraction by repr, every piece written out."""
    if isinstance(x, PiecewisePoly):
        return "PiecewisePoly(%r, %r)" % (x.breaks, x.pieces)
    if isinstance(x, Fraction):
        assert type(x) is Fraction
        return repr(x)
    if isinstance(x, enum.Enum):
        return repr(x)
    if dataclasses.is_dataclass(x):
        fields = ("%s=%s" % (f.name, _dump(getattr(x, f.name))) for f in dataclasses.fields(x))
        return "%s(%s)" % (type(x).__name__, ", ".join(fields))
    if isinstance(x, (tuple, list)):
        return "[%s]" % ", ".join(_dump(y) for y in x)
    assert isinstance(x, (int, str, bool, type(None))), type(x)
    return repr(x)


def _stencil(n: int, dependent: bool) -> Stencil:
    """Supported regime by construction: b_0 = ... = b_{N-1} = 0, b_{-1}, b_N != 0.

    The end columns are dependent exactly when b_{-N} = ... = b_{-2} = 0.
    """
    b = {j: 0 for j in range(-n, n + 1)}
    b[-1] = 3 if n % 2 else -3
    b[n] = 2 if n % 3 else -2
    if not dependent:
        for j in range(-n, -1):
            b[j] = (1, -1, 2, -2)[(5 * j) % 4]
    return Stencil.from_coeffs([b[j] for j in range(-n, n + 1)])


def _problems():
    for n in range(1, 9):
        for dependent in (False, True):
            s = _stencil(n, dependent)
            smooth = PiecewisePoly.from_global((n, -1, Fraction(1, 2)), (0, n + 1))
            cut = Fraction(2 * n + 1, 3)
            rough = PiecewisePoly.from_pieces((0, cut, n + 1), ((1, Fraction(-1, 3)), (Fraction(2, 5), 0, 1)))
            yield BVPProblem(stencil=s, k=(n + dependent) % 5, f0=smooth)
            yield BVPProblem(stencil=s, k=(n + 2) % 5, f0=rough, f1=(1, Fraction(-1, 2)), f2=(2,))
            yield BVPProblem(stencil=s, k=(n + 3) % 5, f0=smooth, f1=(Fraction(1, 3),), f2=(0, 1))
    # boundary rank 1: affine families with a kernel direction, and infeasible data
    for coeffs in ((1, 0, -1), (3, 1, 0, 0, 1), (3, 1, 1, 0, 0, 0, 1)):
        s = Stencil.from_coeffs(coeffs)
        n = s.N
        yield BVPProblem(stencil=s, k=2, f0=PiecewisePoly.zero(0, n + 1))
        yield BVPProblem(stencil=s, k=1, f0=PiecewisePoly.from_global((n, -1, Fraction(1, 2)), (0, n + 1)))
        yield BVPProblem(stencil=s, k=0, f0=PiecewisePoly.constant(1, 0, n + 1), f1=(1, Fraction(-1, 2)), f2=(2,))


CLI_DOCUMENTS = (
    {"N": 1, "b": [1, 0, 1], "k": 0, "f0": [{"interval": [0, 2], "coeffs": [1]}]},
    {
        "N": 2, "b": [1, "1/2", 0, 0, 2], "k": 1,
        "f0": [{"interval": [0, "4/3"], "coeffs": [1, "-1/2"]}, {"interval": ["4/3", 3], "coeffs": [2]}],
        "f1": [1, 2], "f2": [-1, 1],
    },
    {"N": 3, "b": [0, 0, -3, 0, 0, 0, 2], "k": 2, "f0": [{"interval": [0, 4], "coeffs": [1, 1, "1/3"]}]},
)


def test_outputs_match_the_pinned_digest(tmp_path):
    digest = hashlib.sha256()
    for problem in _problems():
        digest.update(_dump(solve_nonhomogeneous(problem)).encode())
    for i, doc in enumerate(CLI_DOCUMENTS):
        path = tmp_path / ("p%d.json" % i)
        path.write_text(json.dumps(doc), encoding="utf-8")
        prefix = tmp_path / ("p%d" % i)
        assert cli.main(["solve", str(path), "--out", str(prefix), "--samples", "1/8"]) == 0
        for suffix in ("-report", "-solution.csv"):
            text = (tmp_path / ("p%d%s" % (i, suffix))).read_bytes()
            digest.update(text.replace(str(tmp_path).encode(), b"<dir>"))
    assert digest.hexdigest() == EXPECTED


# The digest below was taken before ``Stencil`` took over the shift matrix and
# regime types, so the text of ``analyze`` and ``spectrum`` (both exit paths)
# is pinned across that change.
STRUCTURE_EXPECTED = "baef079d0f330b602d6b77bbf6daec596f0a63fd5db1a91755dd389ed60429c8"

STRUCTURE_DOCUMENTS = CLI_DOCUMENTS + tuple(
    {"N": 1, "b": b, "k": 1, "f0": [{"interval": [0, 2], "coeffs": [1]}]}
    for b in ([0, 1, 0], [1, 1, 1], [1, 0, -1])
)


def test_analyze_and_spectrum_match_the_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for i, doc in enumerate(STRUCTURE_DOCUMENTS):
        path = tmp_path / ("s%d.json" % i)
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["analyze", str(path)], ["spectrum", str(path), "--grid", "8"]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            for part in (str(code), captured.out, captured.err):
                digest.update(part.replace(str(tmp_path), "<dir>").encode() + b"\0")
    assert digest.hexdigest() == STRUCTURE_EXPECTED


# The digest below pins every random function of the battery (form by form)
# and the detail lines of the exact criteria.  It was first taken before the
# Hermite constructors took integer Taylor jets, and kept by the boundary
# pair's elimination as a ``DataConstraints``.  It was retaken once, when
# criterion 6 began to fail on a boundary rank of 0 in place of reporting its
# absence: that removed ", 0: 0" from the rank counts and the closing
# "no rank-0 instance in the box (reported, not failed)" from its detail line,
# and changed nothing else.
BATTERY_EXPECTED = "a7bda113df3c9646de43d881bb3a9f5aa7318229f9d9076f64752041bcae3319"


def test_random_constructors_and_exact_criteria_match_the_pinned_digest():
    named = verification.named_stencils()
    pool = named + verification.random_regime_stencils()
    digest = hashlib.sha256()
    for i, stencil in enumerate(pool):
        for k in range(4):
            rng = random.Random(1000 * i + k)
            n = stencil.N
            for f in (
                verification.random_zero_trace_function(n + 1, k, rng),
                verification.random_order_k_function(n + 2, k, rng),
                verification.random_image_member(
                    stencil.structure, functionals.membership_functionals(stencil.structure.gamma, k), rng
                ),
            ):
                digest.update(repr((f.nodes, f.scale, f.forms)).encode() + b"\0")
    results = (
        verification.check_membership_theorem(pool),
        verification.check_membership_theorem(named, orders=(0, 1, 2)),
        verification.check_image_codimension(named),
        verification.check_constraint_counts(named),
        verification.check_kernel_certificates(pool),
        verification.check_worked_solution(),
        verification.check_boundary_rank_cases(),
        verification.check_structure_equivalence(pool),
    )
    for r in results:
        assert r.passed, r
        digest.update(("%d|%s|%s" % (r.number, r.name, r.detail)).encode() + b"\0")
    assert digest.hexdigest() == BATTERY_EXPECTED


# The digest below was taken before the regime, both determinants and R1^-1
# came from one elimination of [T | I], so the text and exit code of
# ``analyze`` on stencils outside the supported regime are pinned at N = 2
# and 3 (``STRUCTURE_EXPECTED`` reaches them only at N = 1): singular R1 with
# det R2 = 0 and with det R2 != 0, and both minors nonsingular.
OUT_OF_REGIME_EXPECTED = "f4e3a0d71f12d5ac13b2855b17a2d6468fb608a6c85af215189315b594a59e23"

OUT_OF_REGIME_STENCILS = (
    [1, 2, 3, 4, 5],
    [1, 1, 1, 1, 1],
    [0, 0, 1, 0, 0],
    [2, 0, 1, 0, 3],
    ["1/2", "-1/3", 2, "5/7", -1],
    [-1, -1, -1, 1, -1, 0, 1],
    [1, 2, 3, 4, 5, 6, 7],
    [1, 0, 0, 2, 0, 0, 1],
    ["1/3", 0, -2, 1, "3/4", 0, 5],
)


def test_analyze_outside_the_regime_matches_the_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for i, b in enumerate(OUT_OF_REGIME_STENCILS):
        n = (len(b) - 1) // 2
        path = tmp_path / ("r%d.json" % i)
        doc = {"N": n, "b": b, "k": 1, "f0": [{"interval": [0, n + 1], "coeffs": [1]}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        digest.update(("%d\0%s\0" % (code, out.replace(str(tmp_path), "<dir>"))).encode())
    assert digest.hexdigest() == OUT_OF_REGIME_EXPECTED
