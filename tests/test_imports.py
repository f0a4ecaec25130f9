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


# the calls that list a directory's entries: os.walk, os.listdir, os.scandir,
# Path.iterdir and Path.rglob
LISTINGS = {"walk", "listdir", "scandir", "iterdir", "rglob"}


# the one function of each module that may list a directory: `cli.main`
# owns the rule for which files a run may write beside, and `nn._sweep` the
# rule for which build directories a kernel cache deletes
LISTING_OWNERS = {"cli": "main", "nn": "_sweep"}


def directory_listings(source, module):
    """The lines of the module source that list a directory, outside the
    module's one owner in LISTING_OWNERS, if it has one."""
    owner = LISTING_OWNERS.get(module)
    return sorted(call.lineno for call, named in calls_outside(source, owner)
                  if named in LISTINGS)


def test_directory_listings_finds_each_call_that_lists_a_directory():
    source = ("def main(argv=None):\n"
              "    held = [names for _, _, names in os.walk(args.out)]\n"
              "def _load_split_dir(data_dir, label_column):\n"
              "    names = os.listdir(data_dir)\n"
              "    return sorted(Path(data_dir).iterdir())\n"
              "EMPTY = not any(os.scandir('.'))\n"
              "def count(root):\n"
              "    return len(list(root.rglob('*')))\n"
              "def _sweep(cache):\n"
              "    return os.scandir(cache)\n")
    assert directory_listings(source, "cli") == [4, 5, 6, 8, 10]
    assert directory_listings(source, "nn") == [2, 4, 5, 6, 8]
    assert directory_listings(source, "study") == [2, 4, 5, 6, 8, 10]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_only_main_lists_a_directory(path):
    assert directory_listings(path.read_text(), path.stem) == []


# imported only where a kernel loads (nn.compiled), so that `import
# emlang.cli` does not load them for a command that never compiles
LAZY = {"subprocess", "tempfile"}


def top_level_imports(source):
    """The modules the module source imports outside any function or class,
    by their top-level package name."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_top_level_imports_skips_what_a_function_imports():
    source = ("import os.path\nfrom numpy import ndarray\nfrom .nn import compiled\n"
              "def build():\n    import subprocess\n"
              "class Lazy:\n    import tempfile\n")
    assert top_level_imports(source) == {"os", "numpy"}


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_module_imports_the_compiler_modules_at_its_top_level(path):
    assert top_level_imports(path.read_text()) & LAZY == set()


def test_importing_the_cli_loads_no_compiler_module():
    import os
    import subprocess
    import sys

    # numpy loads tempfile itself, so only subprocess shows here
    script = "import sys, emlang.cli; print(sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert "'subprocess'" not in loaded.stdout
    assert "'emlang.cli'" in loaded.stdout
