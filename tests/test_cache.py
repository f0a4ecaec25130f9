"""The compiled library and its cache: Adam's loop and the training step
compile without a warning into one library, once per machine, and a cached
library is used only where it loads, passes both self-checks and lies in a
directory that no other user can write."""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_nn import rounding_changed_adam_c
from test_step import rounding_changed_step_c

from emlang import classifier, nn
from emlang.classifier import TrainConfig, build_model, train
from emlang.data import SynthSpec, generate_synthetic

SRC = Path(__file__).resolve().parents[1] / "src"

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")

# trains a small el model, then prints whether the library loaded and
# whether every Adam step ran its loop
TRAIN = """
from emlang import classifier
from emlang.classifier import TrainConfig, build_model, train
from emlang.data import SynthSpec, generate_synthetic
kernels = []
adam_step = classifier.adam_step
def recorded(state):
    kernels.append(state.kernel is not None)
    adam_step(state)
classifier.adam_step = recorded
train_set, val_set, _ = generate_synthetic(SynthSpec(seed=3, train_samples=64, val_samples=16))
model = build_model(train_set.num_features, train_set.num_classes, vocab_size=8,
                    hidden_dim=8, seed=3)
train(model, train_set, val_set, TrainConfig(max_epochs=1, patience=1))
print(classifier._library() is not None, kernels == [True, True])
"""


LOAD = "from emlang import classifier; print(classifier._library() is not None)"


def _python(script, cache, path=None):
    """A fresh interpreter running script on the cache at `cache`, with
    `path` as its PATH if one is given."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE)


def _train():
    train_set, val_set, _ = generate_synthetic(SynthSpec(seed=3, train_samples=64,
                                                         val_samples=16))
    model = build_model(train_set.num_features, train_set.num_classes, vocab_size=8,
                        hidden_dim=8, seed=3)
    train(model, train_set, val_set, TrainConfig(max_epochs=1, patience=1))


def _recorded(monkeypatch, module, name):
    """The results of every call of module's self-check `name` from now on."""
    results = []
    check = getattr(module, name)

    def recorded(*args):
        results.append(check(*args))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


@pytest.mark.parametrize("xdg", [None, "relative/cache"], ids=["unset", "relative"])
def test_the_cache_is_under_home_where_xdg_cache_home_names_no_absolute_path(
        monkeypatch, tmp_path, xdg):
    monkeypatch.setenv("HOME", str(tmp_path))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert nn.cache_directory() == str(tmp_path / ".cache" / "emlang")
    assert (tmp_path / ".cache" / "emlang").stat().st_mode & 0o777 == 0o700


@needs_cc
def test_a_truncated_library_is_replaced(tmp_path):
    # built and loaded only in other processes: a process that maps the
    # library dies of SIGBUS when it is truncated in place, at its next read
    # of a lost page (at the latest its exit), as dlopen of the truncated
    # file would kill it
    building = _python(LOAD, tmp_path)
    assert building.communicate()[0] == "True\n"
    [path] = (tmp_path / "emlang").glob("*.so")
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    loading = _python(LOAD, tmp_path)
    assert loading.communicate()[0] == "True\n"
    assert [building.returncode, loading.returncode] == [0, 0]
    assert path.stat().st_size == len(whole)
    assert [p.name for p in (tmp_path / "emlang").iterdir()] == [path.name]


@needs_cc
@pytest.mark.parametrize("kernel", ["ADAM_C", "STEP_C"])
def test_a_library_that_fails_the_self_check_is_replaced_never_used(
        cold_cache, monkeypatch, kernel):
    # either half of the one library, wrong, keeps the whole of it out
    module, check, changed = {
        "ADAM_C": (nn, "_agrees", rounding_changed_adam_c),
        "STEP_C": (classifier, "_steps_agree", rounding_changed_step_c),
    }[kernel]
    load = classifier._library
    assert load() is not None
    [path] = cold_cache.glob("*.so")
    # a library whose one rounding differs, cached past a check that passes
    # anything, then moved to the right source's key
    with monkeypatch.context() as patched:
        patched.setattr(module, kernel, changed())
        patched.setattr(module, check, lambda *args: True)
        load.cache_clear()
        assert load() is not None
    [wrong] = set(cold_cache.glob("*.so")) - {path}
    os.replace(wrong, path)
    wrong = path.read_bytes()
    load.cache_clear()
    checks = _recorded(monkeypatch, module, check)
    assert load() is not None
    assert checks == [False, True]  # the cached library failed; its rebuild passed
    assert path.read_bytes() != wrong
    assert [p.name for p in cold_cache.iterdir()] == [path.name]


def _other_owner(monkeypatch, cache):
    real = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: real + 1)
    return cache


def _writable_by(mode):
    def chmod(monkeypatch, cache):
        cache.chmod(mode)
        return cache

    return chmod


def _a_link(monkeypatch, cache):
    target = cache.parent / "elsewhere"
    target.mkdir(mode=0o700)
    cache.rmdir()
    cache.symlink_to(target)
    return target


@pytest.mark.parametrize("unsafe", [_writable_by(0o777), _writable_by(0o730), _other_owner,
                                    _a_link],
                         ids=["others-write", "group-writes", "another-owner", "a-link"])
def test_a_cache_directory_another_user_could_write_is_not_used(
        cold_cache, monkeypatch, unsafe):
    cold_cache.mkdir(parents=True, mode=0o700)
    watched = unsafe(monkeypatch, cold_cache)
    assert nn.cache_directory() is None
    # compiled in a private temporary directory instead
    assert (classifier._library() is None) == (shutil.which("cc") is None)
    assert list(watched.iterdir()) == []


@needs_cc
def test_a_cold_train_leaves_one_library(cold_cache):
    _train()
    assert [p.suffix for p in cold_cache.iterdir()] == [".so"]


@needs_cc
def test_two_processes_on_an_empty_cache_both_train_compiled_and_leave_one_library(
        tmp_path):
    racing = [_python(TRAIN, tmp_path), _python(TRAIN, tmp_path)]
    assert [p.communicate()[0] for p in racing] == ["True True\n"] * 2
    assert [p.returncode for p in racing] == [0, 0]
    # one file, and no build left behind
    assert [p.suffix for p in (tmp_path / "emlang").iterdir()] == [".so"]
    # both load where no cc runs, so both are valid
    warm = _python(TRAIN, tmp_path, path="/nonexistent")
    assert warm.communicate()[0] == "True True\n"


def _compilers():
    """The pids of every compiler process, zombies included."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # gone
            continue
        if text[text.index("(") + 1 : text.rindex(")")] in {"cc", "gcc", "cc1", "as",
                                                            "collect2", "ld"}:
            pids.add(stat.parent.name)
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_no_compiler_remains_after_a_cold_or_a_warm_train(cold_cache):
    before = _compilers()
    for cache in ("cold", "warm"):
        classifier._library.cache_clear()
        _train()
        assert _compilers() - before == set(), cache


def test_importing_the_cli_makes_no_cache_and_starts_no_cc(tmp_path):
    marker = tmp_path / "cc-ran"
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "cc").write_text(f"#!/bin/sh\ntouch {marker}\n")
    (tmp_path / "bin" / "cc").chmod(0o755)
    imported = _python("import emlang.cli", tmp_path / "cache",
                       path=f"{tmp_path / 'bin'}:{os.environ.get('PATH', '')}")
    imported.communicate()
    assert imported.returncode == 0
    assert not (tmp_path / "cache").exists()
    assert not marker.exists()


def test_a_miss_deletes_only_the_build_directories_no_live_build_can_own(
        cold_cache, monkeypatch, tmp_path):
    # a killed build leaves its directory; a live one is at most
    # BUILD_SECONDS old
    cold_cache.mkdir(parents=True, mode=0o700)
    for name in ("build-killed", "build-running"):
        (cold_cache / name).mkdir()
        (cold_cache / name / "lib.c").write_text("int x;\n")
    aged = time.time() - 2 * nn.BUILD_SECONDS - 10
    os.utime(cold_cache / "build-killed", (aged, aged))
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc: the miss itself sweeps
    assert nn.compiled("int x;\n", (), lambda lib: lib) is None
    assert [p.name for p in cold_cache.iterdir()] == ["build-running"]


@needs_cc
def test_the_one_source_compiles_without_a_warning(tmp_path):
    # the runtime flags stay as chosen, so that a new compiler's new warning
    # never sends a user to the numpy path; here every warning fails
    (tmp_path / "lib.c").write_text(nn.ADAM_C + classifier.STEP_C)
    built = subprocess.run(["cc", *classifier.CFLAGS, "-Wall", "-Wextra", "-Werror",
                            "-o", "lib.so", "lib.c"], cwd=tmp_path, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert built.returncode == 0, built.stdout
