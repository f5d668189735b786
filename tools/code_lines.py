"""Count the code lines of the ``ddbvp`` package.

A code line is a source line that holds at least one token other than a
comment, a docstring or indentation; blank lines, comment lines and
docstrings do not count.  A docstring here is a string literal that forms a
statement on its own.  Prints each module's count and the total.

Usage: python tools/code_lines.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ddbvp"
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that carry code."""
    with path.open("rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type != tokenize.COMMENT]
    lines: set[int] = set()
    statement_start = True
    for token, following in zip(tokens, tokens[1:] + tokens[-1:]):
        if token.type in LAYOUT:
            statement_start = statement_start or token.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        docstring = statement_start and token.type == tokenize.STRING and following.type == tokenize.NEWLINE
        statement_start = False
        if not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main()
