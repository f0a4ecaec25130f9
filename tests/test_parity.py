import importlib.util
from pathlib import Path

import pytest

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


@pytest.fixture
def parity():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compare_trees_reports_every_changed_missing_and_extra_file(tmp_path,
                                                                    parity):
    write_tree(tmp_path / "base", {"a.csv": b"1,2\n", "run/b.json": b"{}\n",
                                   "run/c.json": b"[0]\n", "z.txt": b"z"})
    write_tree(tmp_path / "head", {"a.csv": b"1,3\n", "run/b.json": b"{}\n",
                                   "run/d.json": b"[0]\n", "z.txt": b"y"})
    assert parity.compare_trees(tmp_path / "base", tmp_path / "head") == [
        ("a.csv", "differs"),
        ("run/c.json", "only in base"),
        ("run/d.json", "only in head"),
        ("z.txt", "differs"),
    ]
    assert parity.compare_trees(tmp_path / "base", tmp_path / "base") == []


def test_every_case_is_compared_after_the_first_difference(tmp_path, parity,
                                                           monkeypatch, capsys):
    outputs = {("one", "base"): b"0", ("one", "head"): b"1",
               ("two", "base"): b"2", ("two", "head"): b"2",
               ("three", "base"): b"3", ("three", "head"): b"4"}

    def fake_run(name, argv, src, side, work, code):
        write_tree(Path(work) / f"{name}-{side}", {"out.txt": outputs[name, side]})
        return name != "two" or side == "base"

    monkeypatch.setattr(parity, "CASES", {"one": [], "two": [], "three": []})
    monkeypatch.setattr(parity, "CHECKS", [("one-base/out.txt", "two-base/out.txt"),
                                           ("two-base/out.txt", "two-head/out.txt")])
    monkeypatch.setattr(parity, "run_case", fake_run)
    code = parity.main(["--base", "b", "--head", "h", "--work", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "one: DIFFERS",
        "  one/out.txt: differs",
        "two: FAILED",
        "three: DIFFERS",
        "  three/out.txt: differs",
        "cmp one-base/out.txt two-base/out.txt: DIFFERS",
        "cmp two-base/out.txt two-head/out.txt: identical",
    ]


def test_a_check_of_two_trees_compares_them_whole(tmp_path, parity, monkeypatch,
                                                  capsys):
    write_tree(tmp_path / "a", {"x.json": b"{}\n", "sub/y.csv": b"1\n"})
    write_tree(tmp_path / "b", {"x.json": b"{}\n", "sub/y.csv": b"1\n"})
    write_tree(tmp_path / "c", {"x.json": b"[]\n", "z.csv": b"1\n"})
    monkeypatch.setattr(parity, "CASES", {})
    monkeypatch.setattr(parity, "CHECKS", [("a", "b"), ("a", "c"), ("a", "missing")])
    code = parity.main(["--base", "b", "--head", "h", "--work", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "cmp a b: identical",
        "cmp a c: DIFFERS",
        "  sub/y.csv: only in base",
        "  x.json: differs",
        "  z.csv: only in head",
        "cmp a missing: DIFFERS",
    ]


def test_a_case_passes_on_the_exit_code_it_names(tmp_path, parity, monkeypatch,
                                                 capsys):
    # a stand-in `emlang.cli` that writes its first argument into --out, the
    # last, prints it to stderr and exits with it
    write_tree(tmp_path / "src", {"emlang/__init__.py": b"", "emlang/cli.py": (
        b"import os, sys\n"
        b"os.makedirs(sys.argv[-1])\n"
        b"open(os.path.join(sys.argv[-1], 'code.txt'), 'w').write(sys.argv[1])\n"
        b"print('error: code', sys.argv[1], file=sys.stderr)\n"
        b"sys.exit(int(sys.argv[1]))\n")})
    monkeypatch.setattr(parity, "CASES", {"ok": ["0"], "fails": ["3"],
                                          "passes-wrongly": ["0"],
                                          "fails-wrongly": ["2"]})
    monkeypatch.setattr(parity, "EXIT_CODES", {"fails": 3, "passes-wrongly": 3})
    monkeypatch.setattr(parity, "CHECKS", [])
    src = str(tmp_path / "src")
    code = parity.main(["--base", src, "--head", src, "--work", str(tmp_path / "w")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok: identical",
        "fails: identical",
        "passes-wrongly: base exited 0, not 3: error: code 0",
        "passes-wrongly: head exited 0, not 3: error: code 0",
        "passes-wrongly: FAILED",
        "fails-wrongly: base exited 2, not 0: error: code 2",
        "fails-wrongly: head exited 2, not 0: error: code 2",
        "fails-wrongly: FAILED",
    ]
    # a case that fails as it should is compared on what it wrote
    assert (tmp_path / "w" / "fails-head" / "code.txt").read_text() == "3"
