import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

# allow `import gradcheck` from sibling test modules
sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    # one kernel cache for the whole session, this process and every one it
    # starts: no test reads or writes the user's, and each kernel compiles
    # once a session
    config.kernel_cache = tempfile.mkdtemp(prefix="emlang-test-cache-")
    os.environ["XDG_CACHE_HOME"] = config.kernel_cache


def pytest_unconfigure(config):
    shutil.rmtree(config.kernel_cache, ignore_errors=True)


@pytest.fixture
def numpy_path(monkeypatch):
    """`train` walks every batch through `forward` and steps Adam's numpy
    passes, as it does where no compiled library loads."""
    from emlang import classifier

    monkeypatch.setattr(classifier, "_library", lambda: None)


@pytest.fixture
def cold_cache(monkeypatch, tmp_path):
    """An empty kernel cache for the test, whose directory it returns, with
    the compiled library not loaded in this process until the test loads
    it; it loads again from the session's cache after it."""
    from emlang import classifier

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    classifier._library.cache_clear()
    yield tmp_path / "cache" / "emlang"
    monkeypatch.undo()
    classifier._library.cache_clear()
