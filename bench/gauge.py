"""Host-speed gauge for the end-to-end timings.

A shared VM host changes speed by tens of per cent from one minute to the
next, and every timing of the program moves with it.  The gauge is a side
process that times a small fixed kernel, a pure-Python integer loop, every
``PERIOD`` seconds for the whole run.  A job that ran from ``t0`` to ``t1``
is then also reported in reference seconds,

    (t1 - t0) * (REF_S / median kernel time of the samples near the job) ** e

with ``e`` the workload's ``host_elasticity``, how far its time follows the
kernel's when the host changes speed.  A host that runs everything 20%
slower then leaves the reference figure about where it was, while a program
that itself gets 20% slower moves it by 20%.  The kernel does not call the
program.  Of the kernels tried (integer and float loops, numpy on short and
on long arrays, dict building), the integer loop's time tracked all three
workloads' own times most closely when the host changed speed.  Sampling
takes about 3% of one CPU.

The side process runs ``python3 gauge.py``; it samples until its stdin
closes, then prints its samples as one JSON line and exits.
"""

from __future__ import annotations

import bisect
import json
import math
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD = 0.1  # seconds between samples
WINDOW = 0.5  # seconds either side of a job whose samples set its speed
REPEATS = 3  # kernel runs per sample; the fastest one is kept
REF_S = 1.0e-3  # kernel time that counts as reference speed


def _kernel() -> int:
    total = 0
    for i in range(14_000):
        total += i * i % 7
    return total


def _sample() -> tuple[float, float]:
    """(midpoint, fastest kernel seconds) of one sample."""
    best = math.inf
    t_start = time.perf_counter()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return 0.5 * (t_start + time.perf_counter()), best


def serve() -> None:
    """Side-process body: sample until stdin closes, then report."""
    samples = []
    while True:
        samples.append(_sample())
        if select.select([sys.stdin], [], [], PERIOD)[0]:
            break
    print(json.dumps(samples))


class Gauge:
    """Parent side: start the side process, stop it, convert job times."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter midpoints of the samples
        self.speeds: list[float] = []  # kernel seconds of the samples
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> None:
        """End the side process, wait for it and keep its samples."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(input="", timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        samples = json.loads(out) if proc.returncode == 0 else []
        self.times += [t for t, _ in samples]
        self.speeds += [s for _, s in samples]

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second for an interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        if lo == hi:
            raise RuntimeError(f"no gauge samples within {WINDOW} s of a job")
        return REF_S / statistics.median(self.speeds[lo:hi])


if __name__ == "__main__":
    serve()
