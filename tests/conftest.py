"""Shared fixtures."""

import pytest

from hibshrink import prior


@pytest.fixture
def normalizer_calls(monkeypatch):
    """List that gains one entry per ``prior.log_normalizer`` call."""
    calls = []
    real = prior.log_normalizer

    def counting(params, *args):
        calls.append(params)
        return real(params, *args)

    monkeypatch.setattr(prior, "log_normalizer", counting)
    return calls
