import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# a package's __init__ imports names to re-export them
MODULES = sorted(path for directory in ("src/emlang", "tools")
                 for path in (ROOT / directory).glob("*.py")
                 if path.name != "__init__.py")
PACKAGE = [path for path in MODULES if path.parent.name == "emlang"]


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


def calls_outside(source, owner):
    """The calls in the module source, with the name each calls, except
    those inside the function `owner`."""
    tree = ast.parse(source)
    skipped = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name == owner
               for node in ast.walk(function)}
    return [(call, getattr(call.func, "id", getattr(call.func, "attr", None)))
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and id(call) not in skipped]


def bespoke_shape_messages(source):
    """The lines of the module source whose InputError message interpolates
    a `.shape`, outside `check_shape`, the one shape rule, which owns the
    one message that shows shapes."""
    lines = []
    for call, named in calls_outside(source, "check_shape"):
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


# numpy's integer types by name, as an attribute (np.int64), a name (int)
# or a string ("int64", "i8")
INT_TYPE = re.compile(r"u?int(8|16|32|64|p|c|_)?|[iu][1248]?")
# where each converting call takes its dtype by position
DTYPE_ARG = {"asarray": 1, "array": 1, "astype": 0}


def names_an_int_type(node):
    name = getattr(node, "attr", getattr(node, "id", getattr(node, "value", None)))
    return isinstance(name, str) and INT_TYPE.fullmatch(name) is not None


def integer_conversions(source):
    """The lines of the module source that convert to an integer dtype, by
    `asarray` or `array` given one or `astype` to one, outside `as_labels`,
    the one rule for labels, which owns the one such conversion. An
    allocation, such as `np.zeros(n, dtype=np.int64)`, converts nothing."""
    lines = []
    for call, named in calls_outside(source, "as_labels"):
        if named not in DTYPE_ARG:
            continue
        position = DTYPE_ARG[named]
        dtypes = call.args[position:position + 1] + [
            keyword.value for keyword in call.keywords if keyword.arg == "dtype"]
        if any(names_an_int_type(node) for dtype in dtypes for node in ast.walk(dtype)):
            lines.append(call.lineno)
    return sorted(lines)


def test_integer_conversions_finds_each_conversion_to_an_int_dtype():
    source = ("def as_labels(name, labels, num_classes):\n"
              "    return np.asarray(labels).astype(np.int64)\n"
              "def load(rows, n):\n"
              "    counts = np.zeros(n, dtype=np.int64)\n"
              "    labels = np.asarray(rows, dtype=np.int64)\n"
              "    floats = np.asarray(rows, dtype=np.float64)\n"
              "    symbols = np.array(rows, np.intp)\n"
              "    return counts, labels.astype(int), floats.astype('i8'),\\\n"
              "        np.array(rows, dtype=np.dtype('uint8')), symbols\n")
    assert integer_conversions(source) == [5, 7, 8, 8, 9]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_every_integer_conversion_comes_from_as_labels(path):
    assert integer_conversions(path.read_text()) == []


def run_writes(source, module):
    """The lines of the module source that call `_write_run`, outside
    `cli.main`, the one caller of the one writer, which owns the rule for
    where a failed run may write."""
    owner = "main" if module == "cli" else None
    return sorted(call.lineno for call, named in calls_outside(source, owner)
                  if named == "_write_run")


def test_run_writes_finds_each_call_of_the_writer():
    source = ("def main(argv=None):\n"
              "    _write_run(args.out, files)\n"
              "def cmd_repro(opts, args):\n"
              "    files, error = _repro_run(opts)\n"
              "    _write_run(args.out, files)\n"
              "    return cli._write_run(args.out, {}), None\n")
    assert run_writes(source, "cli") == [5, 6]
    assert run_writes(source, "study") == [2, 5, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_only_main_writes_a_run(path):
    assert run_writes(path.read_text(), path.stem) == []
