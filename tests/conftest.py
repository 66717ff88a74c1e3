import pytest

from apmod import primes


@pytest.fixture
def fresh_lpf_table(monkeypatch):
    """Empty the process-wide least-prime-factor table for one test, then restore it."""
    monkeypatch.setattr(primes, "_lpf", primes._lpf[:0])
