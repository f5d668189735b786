"""tools/code_lines.py, the code-line counter of the package."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""

    # a comment inside
    text = """first
second
third"""
    return (x +
            len(text))
'''
# import, def, the three lines of the assigned string, the two of the return
SAMPLE_LINES = 7


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines(tool, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert tool.code_lines(path) == SAMPLE_LINES


def test_main_prints_each_module_and_their_sum(tool, tmp_path, monkeypatch, capsys):
    (tmp_path / "b.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    tool.main()
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py",
        "     7  b.py",
        "     8  total",
    ]
