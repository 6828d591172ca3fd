"""Shared fixtures."""

import multiprocessing

import pytest

from hibshrink import prior


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that returns while a child process it started still runs."""
    yield
    live = multiprocessing.active_children()
    names = [f"{child.name} (pid {child.pid})" for child in live]
    for child in live:
        child.kill()
        child.join()
    assert not names, f"child processes left running: {names}"


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
