import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# a package's __init__ imports names to re-export them
MODULES = sorted(path for directory in ("src/emlang", "tools")
                 for path in (ROOT / directory).glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names that the module source imports and never reads, with the
    line of each import. `import a.b` binds a; `from __future__` binds
    nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_finds_each_name_never_read():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .nn import check_int, is_int as whole\n"
              "def f(x: np.ndarray):\n    return os.path.join(x, whole(x))\n")
    assert unused_imports(source) == [(2, "math"), (5, "check_int")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def bespoke_shape_messages(source):
    """The lines of the module source whose InputError message interpolates
    a `.shape`, outside `check_shape`, the one shape rule, which owns the
    one message that shows shapes."""
    tree = ast.parse(source)
    skipped = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name == "check_shape"
               for node in ast.walk(function)}
    lines = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in skipped:
            continue
        named = getattr(call.func, "id", getattr(call.func, "attr", None))
        if named == "InputError" and any(
                isinstance(node, ast.Attribute) and node.attr == "shape"
                for value in ast.walk(call) if isinstance(value, ast.FormattedValue)
                for node in ast.walk(value.value)):
            lines.append(call.lineno)
    return sorted(lines)


def test_bespoke_shape_messages_finds_each_shape_in_an_input_error():
    source = ("def check_shape(name, array, shape):\n"
              "    raise InputError(f'{name} got {array.shape}')\n"
              "def forward(x, w):\n"
              "    if x.shape[1] != w:\n"
              "        raise InputError(f'input shape {x.shape} does not fit')\n"
              "    if x.ndim != 2:\n"
              "        raise errors.InputError(f'{x.shape[0]} rows, ' f'{w}')\n"
              "    raise ValueError(f'{x.shape}')\n")
    assert bespoke_shape_messages(source) == [5, 7]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_shape_message_comes_from_check_shape(path):
    assert bespoke_shape_messages(path.read_text()) == []
