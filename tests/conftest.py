import pytest


class _CallCounter:
    """Wraps owner.name so that `calls` counts its calls; the original still runs."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) -> a counter of the calls to owner.name,
    undone when the test ends."""
    return lambda owner, name: _CallCounter(monkeypatch, owner, name)
