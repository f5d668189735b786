"""Command line interface and the problem file format."""

import itertools
import json
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddbvp import cli, exactla, problem_io, structure
from ddbvp.cli import main
from ddbvp.piecewise import PiecewisePoly, align_many
from ddbvp.problem_io import (
    MAX_STENCIL_N,
    ProblemFileError,
    canonical_problem_text,
    extract_problem_text,
    parse_problem,
    solution_csv,
    solution_csv_lines,
    solve_report,
)
from ddbvp.solver import BVPProblem, index_report, solve_nonhomogeneous
from ddbvp.structure import Stencil, StructureError, analyze

WORKED = {
    "N": 1,
    "b": [1, 0, 1],
    "k": 0,
    "f0": [{"interval": [0, 2], "coeffs": [1], "basis": "local"}],
}


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_parse_accepts_ints_and_fraction_strings():
    doc = dict(WORKED)
    doc["b"] = ["1", 0, "2/2"]
    parsed = parse_problem(json.dumps(doc))
    assert parsed.stencil.coeffs == (1, 0, 1)
    assert parsed.problem.k == 0
    assert parsed.oracle is None
    # every solve builds a Hermite extension of degree 2k+3 <= 64
    assert parse_problem(json.dumps(dict(WORKED, k=30))).problem.k == 30


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("k"), "k"),
        (lambda d: d.update(b=[1, 0]), "b"),
        (lambda d: d.update(b=[1, 0.5, 1]), "b[1]"),
        (lambda d: d.update(N=0), "N"),
        (lambda d: d.update(k=-1), "k"),
        (lambda d: d.update(extra=1), "document"),
        (lambda d: d.update(f0=[]), "f0"),
        (lambda d: d.update(f0=[{"interval": [0, 2], "coeffs": [1], "curve": 1}]), "f0[0]"),
        (
            lambda d: d.update(
                f0=[
                    {"interval": [0, 1], "coeffs": [1]},
                    {"interval": ["3/2", 2], "coeffs": [1]},
                ]
            ),
            "f0[1].interval",
        ),
        (
            lambda d: d.update(
                f0=[{"interval": [0, 2], "coeffs": [1], "basis": "global"}]
            ),
            "f0[0].basis",
        ),
        (lambda d: d.update(f0=[{"interval": [0, 1], "coeffs": [1]}]), "f0"),
        (lambda d: d.update(oracle={"n_values": [2]}), "oracle.n_values[0]"),
        # N = 1: n(N+1)-1 = 8191 grid unknowns, above MAX_GRID_UNKNOWNS = 4096
        (lambda d: d.update(oracle={"n_values": [8, 4096]}), "oracle.n_values[1]"),
        (lambda d: d.update(oracle={"m_values": [8]}), "oracle"),
        (lambda d: d.update(f1=[]), "f1"),
        # the Hermite extension of nonzero f1/f2 has degree 2k+3 = 83 > 64
        (lambda d: d.update(k=40, f1=[1]), "k"),
        (lambda d: d.update(f0=[{"interval": [0, 2], "coeffs": [1] * 71}]), "f0"),
    ],
)
def test_parse_errors_name_the_offending_field(mutate, field):
    doc = dict(WORKED)
    mutate(doc)
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(json.dumps(doc))
    assert exc.value.where == field
    assert str(exc.value).startswith(field + ":")


@pytest.mark.parametrize("n", [MAX_STENCIL_N + 1, 10 ** 4])
def test_stencils_wider_than_the_bound_exit_1_naming_n(tmp_path, capsys, n):
    doc = dict(WORKED, N=n, b=["1"] * (2 * n + 1), f0=[{"interval": [0, n + 1], "coeffs": [1]}])
    assert main(["analyze", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: N:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("k", [31, 10 ** 6])
def test_k_above_the_extension_bound_exits_1_naming_k(tmp_path, capsys, k):
    # zero extension data: the solve would still build the (k+2)-jet Hermite basis
    path = _write(tmp_path, dict(WORKED, k=k))
    for argv in (["analyze", path], ["solve", path, "--out", str(tmp_path / "out")]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: k:") and len(err.splitlines()) == 1


def test_stencil_at_the_bound_parses():
    n = MAX_STENCIL_N
    doc = dict(WORKED, N=n, b=["1"] * (2 * n + 1), f0=[{"interval": [0, n + 1], "coeffs": [1]}])
    assert parse_problem(json.dumps(doc)).stencil.N == n


def test_parse_rejects_malformed_json_with_location():
    with pytest.raises(ProblemFileError, match="line 1, column"):
        parse_problem('{"N": 1,,}')


def test_canonical_text_is_idempotent_and_omits_defaults():
    parsed = parse_problem(json.dumps(WORKED))
    text = canonical_problem_text(parsed)
    assert '"f1"' not in text and '"f2"' not in text
    again = canonical_problem_text(parse_problem(text))
    assert again == text

    with_data = dict(WORKED)
    with_data["f1"] = ["1/2", 1]
    text = canonical_problem_text(parse_problem(json.dumps(with_data)))
    assert '"f1"' in text and '"f2"' not in text


def test_report_embeds_recoverable_problem_text():
    parsed = parse_problem(json.dumps(WORKED))
    family = solve_nonhomogeneous(parsed.problem)
    report = solve_report(parsed, family)
    embedded = extract_problem_text(report)
    assert embedded == canonical_problem_text(parsed)
    with pytest.raises(ValueError, match="no embedded problem"):
        extract_problem_text("just some text")


def test_solution_csv_rows_and_breakpoint_sides():
    parsed = parse_problem(json.dumps(WORKED))
    family = solve_nonhomogeneous(parsed.problem)
    text = solution_csv(family, parsed.problem.f0, Fraction(1, 4))
    lines = text.strip().split("\n")
    assert lines[0] == "t,v,dv,w,f0"
    by_t = {}
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        by_t.setdefault(cells[0], []).append(cells)
    # interior breakpoint t = 1: one row per side, derivative -1 then 1
    assert len(by_t["1"]) == 2
    assert [row[2] for row in by_t["1"]] == ["-1", "1"]
    # endpoints get their single one-sided row
    assert len(by_t["0"]) == 1 and len(by_t["2"]) == 1
    # regular samples exclude the breakpoints
    assert by_t["0.25"][0][1] == _fmt_check(-(0.25**2) / 2)

    with pytest.raises(ValueError):
        solution_csv(family, parsed.problem.f0, Fraction(0))


def _fmt_check(x: float) -> str:
    return "%.17g" % x


def _reference_csv(family, f0, step):
    """The per-point writer: two traces per regular point, then a sort."""
    _fmt = _fmt_check
    lines = ["t,v,dv,w,f0"]
    if family.v is None:
        return "\n".join(lines) + "\n"
    v = family.v
    dv = v.derivative(1)
    w = family.w
    start, end = v.start, v.end
    breaks = sorted(set(v.breaks) | set(w.breaks) | set(f0.breaks))
    break_set = set(breaks)

    rows = []
    for b in breaks:
        if b > start:
            rows.append((b, 0, tuple(g.trace(b, 0, -1) for g in (v, dv, w, f0))))
        if b < end:
            rows.append((b, 2, tuple(g.trace(b, 0, +1) for g in (v, dv, w, f0))))
    t = start
    while t <= end:
        if t not in break_set:
            rows.append((t, 1, tuple(g.value(t) for g in (v, dv, w, f0))))
        t += step
    rows.sort(key=lambda r: (r[0], r[1]))
    for t, _, values in rows:
        lines.append(",".join([_fmt(float(t))] + [_fmt(float(x)) for x in values]))
    return "\n".join(lines) + "\n"


# f0 breaks at 1/3 (and, on N = 2, at 4/3 and 5/2), with extension data so
# that v, w and f0 all carry nonzero, non-dyadic values
CSV_PROBLEMS = {
    "N1": {
        "N": 1, "b": [1, 0, 2], "k": 1,
        "f0": [{"interval": [0, "1/3"], "coeffs": ["-3/7", 2]},
               {"interval": ["1/3", 2], "coeffs": [1, 0, "-5/3"]}],
        "f1": [1, -2], "f2": [3],
    },
    "N2": {
        "N": 2, "b": [3, 1, 0, 0, -2], "k": 0,
        "f0": [{"interval": [0, "4/3"], "coeffs": ["1/2"]},
               {"interval": ["4/3", "5/2"], "coeffs": [-1, 3]},
               {"interval": ["5/2", 3], "coeffs": [0, 0, "7/11"]}],
    },
}


# 1/64 and 3/100 divide no off-node break; 1/6 lands on the f0 break 1/3;
# 5/4 and 4 are longer than some or all pieces
@pytest.mark.parametrize("step", ["1/64", "3/100", "1/6", "5/4", "4"])
@pytest.mark.parametrize("name", sorted(CSV_PROBLEMS))
def test_solution_csv_matches_the_per_point_writer(name, step):
    parsed = parse_problem(json.dumps(CSV_PROBLEMS[name]))
    family = solve_nonhomogeneous(parsed.problem)
    assert family.v is not None
    step = Fraction(step)
    assert solution_csv(family, parsed.problem.f0, step) == _reference_csv(family, parsed.problem.f0, step)


def _horner(nums, den, x_num, x_den):
    """p(x) for p = sum_d nums[d] x^d / den at x = x_num / x_den: integer Horner, then one int / int division."""
    acc, power = nums[-1], 1
    for n in reversed(nums[:-1]):
        power *= x_den
        acc = acc * x_num + n * power
    return acc / (den * power)


def _horner_csv(family, f0, step):
    """The writer with one ``_horner`` per value: the piece walk of ``solution_csv_lines``, row by row."""
    lines = ["t,v,dv,w,f0\n"]
    if family.v is None:
        return "".join(lines)
    columns = align_many((family.v, family.v.derivative(1), family.w, f0))
    nodes, scale = columns[0].nodes, columns[0].scale
    row = ",".join(["%.17g"] * 5) + "\n"
    den = scale * step.denominator
    first = nodes[0] * step.denominator
    stride = step.numerator * scale
    for idx, (lo, hi) in enumerate(zip(nodes, nodes[1:])):
        forms = [g.forms[idx] for g in columns]
        lines.append(row % (lo / scale, *[_horner(*form, 0, 1) for form in forms]))
        lo_t, hi_t = lo * step.denominator, hi * step.denominator
        for i in range((lo_t - first) // stride + 1, -((first - hi_t) // stride)):
            t_num = first + i * stride
            lines.append(row % (t_num / den, *[_horner(*form, t_num - lo_t, den) for form in forms]))
        lines.append(row % (hi / scale, *[_horner(*form, hi - lo, scale) for form in forms]))
    return "".join(lines)


# k = 30, the largest k a solve accepts, with f0 of degree 40 and a break at
# 1/3, so v, v' and w have degree 41-42: at 1/8 every piece is drawn at fewer
# than degree + 1 points, at 1/1000 at more
HIGH_DEGREE = dict(CSV_PROBLEMS["N1"], k=30, f0=[
    {"interval": [0, "1/3"], "coeffs": [(-1) ** d * (d % 5 + 1) for d in range(41)]},
    {"interval": ["1/3", 2], "coeffs": ["%d/%d" % (d % 7 - 3, d + 1) for d in range(41)]},
])
CSV_IDENTITY_CASES = [
    pytest.param(CSV_PROBLEMS[name], step, id="%s-%s" % (name, step))
    for name in sorted(CSV_PROBLEMS) for step in ("1/7", "1/64", "1/1000", "5/3", "3")
] + [pytest.param(HIGH_DEGREE, step, id="k30-%s" % step) for step in ("1/8", "1/1000")]


@pytest.mark.parametrize("doc, step", CSV_IDENTITY_CASES)
def test_solution_csv_is_byte_identical_to_one_horner_per_value(doc, step):
    parsed = parse_problem(json.dumps(doc))
    family = solve_nonhomogeneous(parsed.problem)
    assert family.v is not None
    step = Fraction(step)
    assert solution_csv(family, parsed.problem.f0, step) == _horner_csv(family, parsed.problem.f0, step)


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def csv_cases(draw):
    """A supported N <= 2 problem with f0 breaking off the nodes, and a sample step.

    The step is a drawn rational (at most 3, so it may be longer than a piece
    or the whole interval), or a break over a small integer, so that the
    regular rows land on that break.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    far_left = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
    ends = small.filter(bool)
    stencil = Stencil.from_coeffs(far_left + [draw(ends)] + [Fraction(0)] * n + [draw(ends)])
    off_nodes = st.fractions(min_value=0, max_value=n + 1, max_denominator=7).filter(lambda t: t.denominator > 1)
    breaks = sorted(draw(st.sets(off_nodes, min_size=1, max_size=3)) | {Fraction(0), Fraction(n + 1)})
    f0 = PiecewisePoly.from_pieces(breaks, [draw(st.lists(small, min_size=1, max_size=3)) for _ in breaks[1:]])
    extension = st.lists(small, min_size=1, max_size=2)
    problem = BVPProblem(stencil=stencil, k=draw(st.integers(0, 1)), f0=f0, f1=draw(extension), f2=draw(extension))
    step = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 24), max_value=3, max_denominator=24).filter(lambda x: x > 0),
        st.tuples(st.sampled_from(breaks[1:-1]), st.integers(min_value=1, max_value=4)).map(lambda bm: bm[0] / bm[1]),
    ))
    return problem, step


@settings(max_examples=40, deadline=None, derandomize=True)
@given(csv_cases())
def test_solution_csv_equals_the_per_point_writer_on_drawn_problems(case):
    problem, step = case
    family = solve_nonhomogeneous(problem)
    assert solution_csv(family, problem.f0, step) == _reference_csv(family, problem.f0, step)


def test_solution_csv_samples_without_value_and_few_traces(monkeypatch):
    parsed = parse_problem(json.dumps(CSV_PROBLEMS["N2"]))
    family = solve_nonhomogeneous(parsed.problem)
    calls = {"value": 0, "trace": 0}

    def counting(name):
        original = getattr(PiecewisePoly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(PiecewisePoly, name, wrapper)

    counting("value")
    counting("trace")
    text = solution_csv(family, parsed.problem.f0, Fraction(1, 64))
    assert text.count("\n") > 3 * 64
    assert calls["value"] == 0
    assert calls["trace"] == 0


def test_solution_csv_lines_stream_the_samples(monkeypatch):
    parsed = parse_problem(json.dumps(CSV_PROBLEMS["N1"]))
    family = solve_nonhomogeneous(parsed.problem)
    step = Fraction(1, 10 ** 4)
    expected = "".join(solution_csv(family, parsed.problem.f0, step).splitlines(True)[:5])
    drawn = [0]
    original = problem_io.progression_floats

    def counting(*args):
        for value in original(*args):
            drawn[0] += 1
            yield value

    monkeypatch.setattr(problem_io, "progression_floats", counting)
    head = list(itertools.islice(solution_csv_lines(family, parsed.problem.f0, step), 5))
    # four values per row taken, none ahead of it
    assert 0 < drawn[0] <= 4 * 5
    assert "".join(head) == expected
    assert all(line.endswith("\n") for line in head)


def test_solve_index_report_and_csv_read_no_fraction_pieces(monkeypatch):
    # the solver, the functionals and the CSV writer work on the stored
    # integer forms; only the API builds Fraction pieces
    reads = [0]
    pieces = PiecewisePoly.pieces

    def counting(self):
        reads[0] += 1
        return pieces.fget(self)

    monkeypatch.setattr(PiecewisePoly, "pieces", property(counting))
    far_left = [(-1) ** j * (j % 3 + 1) for j in range(7)]
    wide = Stencil.from_coeffs(far_left + [3] + [0] * 8 + [-2])
    problem = BVPProblem(stencil=wide, k=2, f0=PiecewisePoly.from_global((1, -1, 2), (0, 9)), f1=(1, 2), f2=(3,))
    assert solve_nonhomogeneous(problem).v is not None
    assert reads[0] == 0
    index_report(problem)
    assert reads[0] == 0
    parsed = parse_problem(json.dumps(CSV_PROBLEMS["N1"]))
    family = solve_nonhomogeneous(parsed.problem)
    assert sum(1 for _ in solution_csv_lines(family, parsed.problem.f0, Fraction(1, 64))) > 64
    assert reads[0] == 0


def test_solve_index_report_and_csv_read_no_fraction_breaks(monkeypatch):
    # breakpoints are stored as ints over one scale; the solver, the
    # functionals and the CSV writer walk them, and only the API builds
    # Fraction breakpoints
    reads = [0]
    breaks = PiecewisePoly.breaks

    def counting(self):
        reads[0] += 1
        return breaks.fget(self)

    monkeypatch.setattr(PiecewisePoly, "breaks", property(counting))
    far_left = [(-1) ** j * (j % 3 + 1) for j in range(7)]
    wide = Stencil.from_coeffs(far_left + [3] + [0] * 8 + [-2])
    f0 = PiecewisePoly.from_pieces((0, Fraction(1, 3), Fraction(5, 2), 9), [(1, -1), (2,), (0, 1, 2)])
    problem = BVPProblem(stencil=wide, k=2, f0=f0, f1=(1, 2), f2=(3,))
    assert solve_nonhomogeneous(problem).v is not None
    assert reads[0] == 0
    index_report(problem)
    assert reads[0] == 0
    parsed = parse_problem(json.dumps(CSV_PROBLEMS["N1"]))
    family = solve_nonhomogeneous(parsed.problem)
    assert sum(1 for _ in solution_csv_lines(family, parsed.problem.f0, Fraction(1, 64))) > 64
    assert reads[0] == 0


# -- the command line -----------------------------------------------------------


def test_the_parser_is_built_once_per_process(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = _write(tmp_path, WORKED)
    assert main(["analyze", path]) == 0
    assert main(["solve", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    assert main(["solve", path]) == 1  # --out is required, on every call
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--out" in err[0], err


def test_analyze_command(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, WORKED)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regime: singular minor" in out
    assert "anchor node m = 1" in out
    assert "boundary matrix rank: 2" in out
    assert "index table at k = 0" in out


def test_analyze_rejects_unsupported_regimes(tmp_path, capsys):
    doc = dict(WORKED)
    doc["b"] = [0, 1, 0]
    code = main(["analyze", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 2
    assert "unsupported:" in out

    doc["b"] = [1, 1, 1]
    code = main(["analyze", _write(tmp_path, doc, "full.json")])
    assert code == 2
    assert "not invertible" in capsys.readouterr().out


@pytest.mark.parametrize("b", [[1, 0, 1], [0, 1, 0], [1, 1, 1]])
def test_analyze_command_analyzes_once(tmp_path, capsys, monkeypatch, b):
    passes, solves, analyses = [], [], []
    forward, back = exactla._forward, exactla._back_substitute
    monkeypatch.setattr(exactla, "_forward", lambda m, n: passes.append(n) or forward(m, n))
    monkeypatch.setattr(exactla, "_back_substitute", lambda m, n: solves.append(n) or back(m, n))
    monkeypatch.setattr(structure, "analyze", lambda s: analyses.append(s) or analyze(s))
    main(["analyze", _write(tmp_path, dict(WORKED, b=b))])
    # one forward pass of [T | I] gives det R1 and det R2, and only the supported stencil
    # back-substitutes it for R1^-1; only a singular R1 runs a pass of R2 for det R2
    assert passes == ([2, 1] if b == [1, 1, 1] else [2])
    assert solves == ([2] if b == [1, 0, 1] else [])
    assert len(analyses) == 1
    assert "det R1 = %s" % Stencil.from_coeffs(b).det_r1 in capsys.readouterr().out


def test_parse_failures_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 1', encoding="utf-8")
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "No such file" in capsys.readouterr().err

    doc = dict(WORKED)
    doc["b"] = [1, 0]
    assert main(["analyze", _write(tmp_path, doc, "short.json")]) == 1
    assert "b:" in capsys.readouterr().err

    over_cap = _write(tmp_path, dict(WORKED, k=40, f1=[1]), "over_cap.json")
    for argv in (["analyze", over_cap], ["solve", over_cap, "--out", str(tmp_path / "cap")]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: k:")
    # f1 or f2 above the cap is refused on parsing, naming the field; the cap
    # applies to the degree after trailing zeros are trimmed
    for field in ("f1", "f2"):
        over = _write(tmp_path, dict(WORKED, **{field: [0] * 70 + [1]}), "over_%s.json" % field)
        for argv in (["analyze", over], ["spectrum", over], ["solve", over, "--out", str(tmp_path / "over")]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "error: %s: polynomial degree 70 exceeds cap 64\n" % field)
        assert not list(tmp_path.glob("over-*"))
        at_cap = _write(tmp_path, dict(WORKED, **{field: [0] * 64 + [1] + [0] * 10}), "at_cap.json")
        assert main(["analyze", at_cap]) == 0
        capsys.readouterr()
    # f0 of degree 63 parses, but its double antiderivative exceeds the cap
    steep = dict(WORKED, f0=[{"interval": [0, 2], "coeffs": [1] * 64}])
    assert main(["solve", _write(tmp_path, steep, "steep.json"), "--out", str(tmp_path / "steep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds cap" in err and len(err.splitlines()) == 1

    # json.loads raises RecursionError on nesting past the interpreter's limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    for argv in (["analyze", str(deep)], ["solve", str(deep), "--out", str(tmp_path / "deep")], ["spectrum", str(deep)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: document:") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_an_over_long_integer_literal_exits_1(tmp_path, capsys):
    # json.loads refuses a bare integer past the interpreter's 4300-digit
    # conversion limit with a plain ValueError, not a JSONDecodeError
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(WORKED).replace('"b": [1,', '"b": [%s,' % ("7" * 5001)), encoding="utf-8")
    for argv in (["analyze", str(huge)], ["solve", str(huge), "--out", str(tmp_path / "huge")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: document: integer literal") and len(err.splitlines()) == 1
    assert not (tmp_path / "huge-report").exists()


def test_an_over_long_rational_string_is_echoed_clipped(tmp_path, capsys):
    # a quoted literal reaches Fraction, whose error names the digit limit;
    # the error line echoes only the start of the literal
    path = _write(tmp_path, dict(WORKED, b=["7" * 5001, 0, 1]))
    assert main(["analyze", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: b[0]: not a rational") and len(err) < 200, err


def _long_rational(seed):
    # numerator and denominator of 1500 digits each, well inside the digit limit
    return "%d/%d" % (10 ** 1499 + 7 * seed + 1, 10 ** 1499 + 11 * seed + 2)


# inputs inside the interpreter's int/str digit limit whose exact results pass it
LONG_RATIONALS = {
    "supported": dict(
        N=1, b=[_long_rational(1), 0, _long_rational(2)], k=8,
        f0=[{"interval": [0, 2], "coeffs": [_long_rational(3), _long_rational(4)]}], f1=[_long_rational(5)],
    ),
    # det R1 has about 4500 digits, and the regime error message prints it
    "unsupported": dict(N=2, b=[_long_rational(j) for j in range(1, 6)], k=0, f0=[{"interval": [0, 3], "coeffs": [1]}]),
}


@pytest.mark.parametrize("case", sorted(LONG_RATIONALS))
@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_exact_results_past_the_digit_limit_are_printed_in_full(tmp_path, capsys, case, command):
    argv = [command, _write(tmp_path, LONG_RATIONALS[case])]
    if command == "solve":
        argv += ["--out", str(tmp_path / "long")]
    limit = sys.get_int_max_str_digits()
    code = main(argv)
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert code == (0 if case == "supported" else 2), captured.err
    assert captured.err == ""
    written = sorted(tmp_path.glob("long-*"))
    assert len(written) == (2 if (case, command) == ("supported", "solve") else 0)
    assert all(path.stat().st_size > 0 for path in written)
    if case == "unsupported":
        assert captured.out.count("unsupported: det R1 = ") == 1
    if (case, command) != ("supported", "analyze"):  # the analyze printout stays inside the limit there
        text = (tmp_path / "long-report").read_text(encoding="utf-8") if written else captured.out
        assert max(len(digits) for digits in re.findall(r"\d+", text)) > limit


def test_the_digit_limit_is_lifted_only_while_exact_results_are_written(tmp_path, capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    seen = []

    def report(parsed, family):
        seen.append(sys.get_int_max_str_digits())
        return "report\n"

    def failing_csv(family, f0, step):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "solve_report", report)
    monkeypatch.setattr(cli, "solution_csv_lines", failing_csv)
    assert main(["solve", _write(tmp_path, WORKED), "--out", str(tmp_path / "run")]) == 1
    assert seen == [0] and sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().err == "error: disk full\n"

    monkeypatch.setattr(cli, "solve_report", lambda parsed, family: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        main(["solve", _write(tmp_path, WORKED), "--out", str(tmp_path / "run")])
    assert sys.get_int_max_str_digits() == limit


def test_solve_command_writes_report_and_csv(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code = main(["solve", _write(tmp_path, WORKED), "--out", prefix])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: unique" in out

    report = (tmp_path / "run-report").read_text(encoding="utf-8")
    csv_text = (tmp_path / "run-solution.csv").read_text(encoding="utf-8")
    assert report.startswith("second-order difference boundary value problem")
    assert "integration constants: d1 = 1, d2 = -1/2" in report
    assert csv_text.startswith("t,v,dv,w,f0\n")

    # a solve rerun from the report alone reproduces the CSV byte for byte
    embedded = extract_problem_text(report)
    parsed = parse_problem(embedded)
    family = solve_nonhomogeneous(parsed.problem)
    assert solution_csv(family, parsed.problem.f0, Fraction(1, 8)) == csv_text


def test_an_affine_family_takes_the_smooth_representative(tmp_path, capsys):
    # the zero-trace stack is infeasible but the minimal one is not: d comes
    # from the minimal stack's solution set, so v has no node jump
    doc = {
        "N": 1, "b": [-3, 0, 3], "k": 0,
        "f0": [{"interval": [0, 2], "coeffs": [3, -3], "basis": "local"}], "f1": [-2, 0], "f2": [-2],
    }
    assert main(["solve", _write(tmp_path, doc), "--out", str(tmp_path / "affine")]) == 0
    report = (tmp_path / "affine-report").read_text(encoding="utf-8")
    assert "status: affine family" in report
    assert "integration constants: d1 = 0, d2 = -5" in report
    assert "t = 1, derivative order 1: 0\n" in report
    assert "solution in W^{k+2} inside the interval: yes" in report
    assert "solvable in the zero-trace class: no" in report
    assert "solvable in the minimal domain: yes" in report


def test_solve_samples_validation(tmp_path, capsys):
    path = _write(tmp_path, WORKED)
    # the = form keeps argparse from mistaking "-1/2" for an option; the last three take the
    # problem file's bounds: 1e-5000 has a 16,610-bit denominator, past MAX_RATIONAL_BITS, and
    # the longer exponents are refused before Fraction builds 10^e
    for bad in ("0", "-1/2", "nonsense", "1/1000000000", "1e-5000", "1e8000000", "1e-99999999"):
        start = time.perf_counter()
        code = main(["solve", path, "--out", str(tmp_path / "x"), "--samples=" + bad])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --samples: "), (bad, err)
        assert elapsed < 1.0, bad
    assert not list(tmp_path.glob("x-*"))


def test_a_long_samples_step_is_clipped_in_the_row_cap_message(tmp_path, capsys):
    # 1/3^5000 has a 2,386-digit denominator, inside the 8,192-bit bound, and gives far too many rows
    path = _write(tmp_path, WORKED)
    assert main(["solve", path, "--out", str(tmp_path / "x"), "--samples=1/%d" % 3 ** 5000]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --samples: ") and "CSV rows" in err[0], err
    assert len(captured.err.encode("utf-8")) < 200
    assert not list(tmp_path.glob("x-*"))


@pytest.mark.parametrize("argv, flag", [
    (["solve", "{path}"], "--out"),
    (["spectrum", "{path}", "--grid", "x"], "--grid"),
    (["verify", "--level", "medium"], "--level"),
    ([], "command"),
    (["solve", "{path}", "--out", "x", "--unknown"], "--unknown"),
])
def test_usage_errors_exit_1_with_one_error_line(tmp_path, capsys, argv, flag):
    path = _write(tmp_path, WORKED)
    assert main([arg.format(path=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ddbvp") and flag in err[0], err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: ddbvp" in capsys.readouterr().out


def test_solve_infeasible_exits_3_with_header_only_csv(tmp_path, capsys):
    doc = dict(WORKED)
    doc["b"] = [1, 0, -1]
    prefix = str(tmp_path / "inf")
    code = main(["solve", _write(tmp_path, doc), "--out", prefix])
    out = capsys.readouterr().out
    assert code == 3
    assert "violated: boundary constraint 0, residual -1/2" in out
    assert (tmp_path / "inf-solution.csv").read_text(encoding="utf-8") == "t,v,dv,w,f0\n"
    report = (tmp_path / "inf-report").read_text(encoding="utf-8")
    assert "status: infeasible" in report
    assert "smoothness: not applicable" in report


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_structure_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    def failing(stencil):
        raise StructureError("relation rows failed to form a basis")

    monkeypatch.setattr(structure, "analyze", failing)
    argv = [command, _write(tmp_path, WORKED)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "unsupported: relation rows failed to form a basis\n"


def test_a_failed_report_leaves_no_output_files(tmp_path, monkeypatch):
    def failing(parsed, family):
        raise ValueError("report formatting failed")

    monkeypatch.setattr(cli, "solve_report", failing)
    with pytest.raises(ValueError, match="report formatting failed"):
        main(["solve", _write(tmp_path, WORKED), "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run-report").exists()
    assert not (tmp_path / "run-solution.csv").exists()


def test_solve_unsupported_regime_exits_2(tmp_path, capsys):
    doc = dict(WORKED)
    doc["b"] = [0, 1, 0]
    code = main(["solve", _write(tmp_path, doc), "--out", str(tmp_path / "no")])
    assert code == 2
    assert not (tmp_path / "no-report").exists()


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_a_coefficient_outside_the_double_range_exits_1_before_any_output(tmp_path, capsys, command):
    code = main([command, _write(tmp_path, dict(WORKED, b=["1e400", 0, 1]))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: stencil coefficient b_-1 lies outside the double range\n"


# numbers whose numerator or denominator is longer than problem_io.MAX_RATIONAL_BITS (8192)
OVERSIZE = {
    "exponent": "1e200000",  # 664,386 bits: solve took about 40 s before the bound
    "negative exponent": "-3e-200000",
    "exponent past the digits": "1e99999999999",
    "just over": "1e2467",  # 8,196 bits
    "p/q": "1/%d" % 3 ** 5170,  # 8,195 bits in the denominator
    "integer": 2 ** 8192,
}


@pytest.mark.parametrize("command", ["analyze", "spectrum", "solve"])
@pytest.mark.parametrize("case", sorted(OVERSIZE))
def test_an_oversize_rational_exits_1_at_once_naming_the_field(tmp_path, capsys, command, case):
    argv = [command, _write(tmp_path, dict(WORKED, b=[0, 1, OVERSIZE[case]]))]
    if command == "solve":
        argv += ["--out", str(tmp_path / "big")]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: b[2]: ") and len(captured.err.splitlines()) == 1, captured.err
    assert elapsed < 1.0
    assert not list(tmp_path.glob("big-*"))


def test_rationals_at_the_bit_bound_are_accepted():
    # 10^2466 and 2^8192 - 1 have 8,192 bits, the bound
    for value in ("1e2466", "-1/%d" % (2 ** 8192 - 1), 2 ** 8192 - 1):
        parsed = parse_problem(json.dumps(dict(WORKED, b=[1, 0, value])))
        assert parsed.stencil.coeffs[2] == Fraction(value)
    assert problem_io.MAX_RATIONAL_BITS == 8192


# (0, 1, 1, 1, 2) with b_2 = 1e-400, which rounds to 0.0 as a double: still in
# the supported regime, and its solution stays inside the double range
UNDERFLOW = {"N": 2, "b": [0, 1, 1, 1, "1e-400"], "k": 0, "f0": [{"interval": [0, 3], "coeffs": [1]}]}


@pytest.mark.parametrize("args", [["analyze"], ["spectrum"], ["spectrum", "--grid", "8"]])
def test_a_coefficient_that_underflows_exits_1_before_any_output(tmp_path, capsys, args):
    code = main([args[0], _write(tmp_path, UNDERFLOW)] + args[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: stencil coefficient b_2 lies outside the double range\n"


def test_solve_needs_no_double_of_the_stencil(tmp_path, capsys):
    assert main(["solve", _write(tmp_path, dict(WORKED, b=["1e400", 0, 1])), "--out", str(tmp_path / "big")]) == 0
    assert main(["solve", _write(tmp_path, UNDERFLOW), "--out", str(tmp_path / "tiny")]) == 0


def test_a_csv_sample_outside_the_double_range_exits_1_and_writes_no_file(tmp_path, capsys):
    code = main(["solve", _write(tmp_path, dict(WORKED, b=["1e-400", 0, 1])), "--out", str(tmp_path / "tiny")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: a sample of v, dv, w or f0 lies outside the double range; no CSV or report written\n"
    assert not list(tmp_path.glob("tiny-*"))


def test_spectrum_command_with_grid_flags(tmp_path, capsys):
    path = _write(tmp_path, WORKED)
    code = main(["spectrum", path, "--grid", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum of R1:" in out
    assert "grid n = 8:" in out and "ok" in out

    # without --grid the oracle block of the file drives the containment check
    doc = dict(WORKED)
    doc["oracle"] = {"n_values": [8, 16]}
    code = main(["spectrum", _write(tmp_path, doc, "oracle.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid n = 8:" in out and "grid n = 16:" in out


def test_spectrum_rejects_grid_resolutions_before_assembling(tmp_path, capsys, monkeypatch):
    import ddbvp.grid

    def refuse(*args):
        raise AssertionError("a rejected resolution reached the grid")

    monkeypatch.setattr(ddbvp.grid, "spectrum_check", refuse)
    path = _write(tmp_path, WORKED)
    # N = 1: n = 2048 gives 4095 unknowns, within MAX_GRID_UNKNOWNS = 4096; 2049 gives 4097
    for bad in ("2", "3", "-1", "2049"):
        assert main(["spectrum", path, "--grid", "8", "--grid", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --grid %s:" % bad), err
    assert parse_problem(json.dumps(dict(WORKED, oracle={"n_values": [2048]}))).oracle.n_values == (2048,)


def test_verify_fast_battery_passes(capsys):
    code = main(["verify", "--level", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) >= 6
    assert all("PASS" in l for l in lines)
    assert "of 6 checks passed" in out
