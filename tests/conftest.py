import sys
from pathlib import Path

import pytest

# allow `import gradcheck` from sibling test modules
sys.path.insert(0, str(Path(__file__).parent))


class _NoSteps:
    """A `classifier._STEPS` that never gives a library."""

    def get(self, wait=False, start=True):
        return None

    def stop(self):
        pass


@pytest.fixture
def numpy_path(monkeypatch):
    """`train` walks every batch through `forward`, as it does until its
    compiled step has loaded."""
    from emlang import classifier

    monkeypatch.setattr(classifier, "_STEPS", _NoSteps())
