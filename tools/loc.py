"""Count the lines and code lines of Python modules.

    python tools/loc.py [DIR ...]

Prints, for each `.py` file in each DIR (default `src/emlang`) and in
total, all lines and code lines. A code line holds a token other than a
comment, and is not part of a module, class or function docstring. So
docstrings, comment-only lines and blank lines are not code, while every
line of any other string literal, a triple-quoted one included, is.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, DOCUMENTED):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(lines, code lines) of a module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["src/emlang"])
    args = parser.parse_args(argv)
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>6}  module")
    for directory in args.dirs:
        for path in sorted(Path(directory).glob("*.py")):
            lines, code = count(path.read_text(encoding="utf-8"))
            total_lines += lines
            total_code += code
            print(f"{lines:>7} {code:>6}  {path}")
    print(f"{total_lines:>7} {total_code:>6}  total")


if __name__ == "__main__":
    main()
