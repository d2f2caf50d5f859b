import pytest

from commentary import backends
from commentary.evaluation import EmbeddingScorer


@pytest.fixture()
def endpoint_constants(monkeypatch):
    """Shortens the endpoints' retry backoff to 1 ms for one test; the function it
    returns sets their timeout and attempts per request too."""
    monkeypatch.setattr(backends, "BACKOFF_BASE", 0.001)

    def set_constants(timeout=None, max_attempts=None):
        if timeout is not None:
            monkeypatch.setattr(backends.RemoteChatBackend, "_TIMEOUT", timeout)
            monkeypatch.setattr(EmbeddingScorer, "_TIMEOUT", timeout)
        if max_attempts is not None:
            monkeypatch.setattr(backends, "MAX_ATTEMPTS", max_attempts)

    return set_constants
