"""Deterministic, splittable random number streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by ``(seed, label_hash)``.  The label hash is an FNV-1a 64-bit
digest of the string labels identifying the consumer (for example
``("risk-direct", p, beta_norm, prior parameters)``), so distinct grid points
and estimators get statistically independent streams that do not depend on
execution order or thread count.

The same independence lets any parallel path run on as many workers as the
host grants; ``worker_count`` reads that number, in one place for the whole
package, from the ``HIBSHRINK_THREADS`` environment variable, else from the
CPUs the process may run on.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError, check_count

__all__ = ["stream", "check_seed", "label_hash", "worker_count"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def label_hash(*labels: object) -> int:
    """FNV-1a 64-bit hash of the '/'-joined string form of the labels."""
    text = "/".join(str(item) for item in labels)
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def check_seed(seed: int) -> int:
    """``seed`` as an ``int`` in [0, 2^64), read by the package's count rule;
    any other value, a ``bool`` included, raises ``DomainError``."""
    seed = check_count("seed", seed, 0)
    if seed > _MASK64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Philox generator for the stream named by ``labels`` under ``seed``.

    The same ``(seed, labels)`` pair always yields the same bit stream, and
    any two distinct label tuples yield independent streams.  ``seed`` must
    pass :func:`check_seed`, so no two seeds share a stream.
    """
    key = np.array([check_seed(seed), label_hash(*labels)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def worker_count() -> int:
    """Workers a parallel path may use: ``HIBSHRINK_THREADS``, else the CPUs
    this process may run on (its affinity set where the OS reports one, else
    the CPU count).

    A value that is not an integer of at least 1 raises ``DomainError``.
    """
    env = os.environ.get("HIBSHRINK_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError as exc:
        raise DomainError(f"HIBSHRINK_THREADS must be an integer, got {env!r}") from exc
    if count < 1:
        raise DomainError("HIBSHRINK_THREADS must be >= 1")
    return count
