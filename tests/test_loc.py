import importlib.util
from pathlib import Path

import pytest

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line code


class Box:
    """Class docstring."""

    # a comment line
    def size(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is not a docstring,

        three lines, the blank one included"""
        return len(text)
'''


@pytest.fixture
def loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines(loc):
    # code: the import, `class`, `def`, the string's three lines, `return`
    assert loc.count(SOURCE) == (18, 7)
    assert loc.docstring_lines(SOURCE) == {1, 2, 8, 12, 13, 14}


def test_main_prints_each_module_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    loc.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["lines", "code", "module"],
        ["18", "7", str(tmp_path / "a.py")],
        ["3", "1", str(tmp_path / "b.py")],
        ["21", "8", "total"],
    ]
