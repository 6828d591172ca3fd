"""hibshrink benchmark: one workload per process, seeded, end-to-end or traced.

    python3 bench/run.py --workload risk-curve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Workloads: risk-curve,
gibbs-profile, exact-fits (see README.md).  With ``--trace 0`` the run times
jobs for ``--seconds`` seconds with no instrumentation and reports the
end-to-end metrics, each time scaled to a reference host speed by the side
process in ``gauge.py``; with ``--trace 1`` it runs the same jobs twice, plain
and under the span recorder in ``tracer.py``, and reports per-layer metrics
plus the tracing overhead.  Outputs are checked after the timing; the last
stdout line is the JSON result.  Scratch files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import Gauge
from tracer import Tracer, layer_metrics, quantile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 8  # half before the timed loop, half after it
TRACE_SHARE = 0.5  # share of --seconds the plain pass of a traced run takes


def _thread_env() -> dict[str, str]:
    threads = min(2, len(os.sched_getaffinity(0)))
    return {
        "HIBSHRINK_THREADS": str(threads),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def _pin_environment() -> None:
    """Fix thread counts before numpy loads; drop any other HIBSHRINK_* input."""
    for key in [k for k in os.environ if k.startswith("HIBSHRINK_")]:
        del os.environ[key]
    os.environ.update(_thread_env())


def _import_program() -> None:
    """Import hibshrink from this checkout's src/ or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hibshrink
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hibshrink from {src}: {exc}")
    where = Path(hibshrink.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bench: hibshrink imported from {where}, not from {src}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {key: os.environ[key] for key in _thread_env()},
    }


def run_jobs(workload, jobs, seconds: float, min_ops: int, check: bool = True) -> list:
    """Closed loop: start the next job only after the previous returns.

    Only ``execute`` is timed.  Each output is then read back, checked
    (unless ``check`` is false) and reduced to a digest, so outputs are not
    kept.
    """
    done = []
    n_ops = 0
    start = time.perf_counter()
    for job in jobs:
        if n_ops >= min_ops and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            workload.execute(job)
        except Exception as exc:  # a failed job is counted and the run goes on
            t1 = time.perf_counter()
            job.failures = [repr(exc)]
        else:
            t1 = time.perf_counter()
            workload.collect(job)
            if check:
                job.failures = workload.check(job)
            job.digest = _digest(job.result)
        job.latency = t1 - t0
        job.span = (t0, t1)
        job.result = None
        done.append(job)
        n_ops += job.kind == workload.op_kind
    return done


def _digest(result) -> str:
    if hasattr(result, "post_mean"):
        result = (result.kappa_bar, result.log_marginal, result.post_var_scalar,
                  result.post_mean.tobytes())
    return hashlib.sha256(repr(result).encode()).hexdigest()


def setup_samples(args, count: int) -> list[tuple[float, float]]:
    """Fresh processes timed from spawn through import, inputs and warm-up,
    as (start, end) on the ``perf_counter`` clock."""
    spans = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        spans.append((start, float(proc.stdout.strip().splitlines()[-1])))
    return spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, jobs, setup_s: float, peak_mb: float, clock: str) -> dict:
    """``jobs`` holds every operation attempted, checks included; ``clock``
    names the job attribute that holds its time."""
    ops = [j for j in jobs if j.kind == workload.op_kind and not j.failures]
    lat_ms = sorted(getattr(j, clock) * 1e3 for j in ops)
    item_jobs = [j for j in jobs if j.kind == workload.item_kind and not j.failures]
    item_time = math.fsum(getattr(j, clock) for j in item_jobs)
    failed = sum(1 for j in jobs if j.failures)
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1.0 - failed / len(jobs), "frac"),
        "op_ms_p50": (statistics.median(lat_ms) if lat_ms else 0.0, "ms"),
        "op_ms_p99": (quantile(lat_ms, 99), "ms"),
        "ops_per_s": (len(lat_ms) / (math.fsum(lat_ms) * 1e-3) if lat_ms else 0.0, "1/s"),
        "items_per_s": (sum(j.items for j in item_jobs) / item_time if item_time else 0.0, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["risk-curve", "gibbs-profile", "exact-fits"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative integer below 2**63")

    _pin_environment()
    _import_program()
    import numpy as np

    from workloads import WORKLOADS, Job

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    jobs = workload.jobs()
    first = next(jobs)
    for job in workload.warm_up():
        workload.execute(job)
    if args.setup_probe:
        print(time.perf_counter())
        return 0
    jobs = itertools.chain([first], jobs)

    notes = []
    wall_metrics = host_speed = None
    if args.trace == 0:
        # the host's speed drifts over tens of seconds, so set-up is sampled
        # on both sides of the timed loop, across the window the loop sees
        gauge = Gauge()
        gauge.start()
        try:
            setup = setup_samples(args, SETUP_PROBES // 2)
            timed = run_jobs(workload, jobs, args.seconds, workload.min_ops)
            peak_mb = peak_rss_mb()
            setup += setup_samples(args, SETUP_PROBES // 2)
        finally:
            gauge.stop()
        for job in timed:
            job.ref_latency = job.latency * gauge.factor(*job.span) ** workload.host_elasticity
        setup_wall = [end - start for start, end in setup]
        setup_ref = [(end - start) * gauge.factor(start, end) for start, end in setup]
        ops = timed + workload.finish(timed)
        metrics = end_to_end(workload, ops, statistics.median(setup_ref), peak_mb, "ref_latency")
        wall_metrics = end_to_end(workload, ops, statistics.median(setup_wall), peak_mb, "latency")
        host_speed = {"gauge_ms_median": statistics.median(gauge.speeds) * 1e3,
                      "gauge_samples": len(gauge.speeds)}
    else:
        timed = run_jobs(workload, jobs, args.seconds * TRACE_SHARE, 1)
        replay = [dataclasses.replace(job, latency=0.0, span=None, failures=[], digest="")
                  for job in timed]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_jobs(workload, iter(replay), math.inf, 0, check=False)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
        for plain, job in zip(timed, traced):
            if plain.digest != job.digest:
                job.failures.append("traced output differs from untraced")
        metrics = layer_metrics(
            tracer,
            math.fsum(j.latency for j in traced),
            math.fsum(j.latency for j in timed),
        )
        sentinel = Job("trace-sentinel", 0)
        if tracer.missing:
            sentinel.failures.append(f"hooks not installed: {', '.join(tracer.missing)}")
        if metrics["quadrature.calls"]["value"]:
            sentinel.failures.append(
                f"{metrics['quadrature.calls']['value']} quadrature calls on timed paths")
        ops = timed + traced + workload.finish(timed) + [sentinel]
    if getattr(workload, "oracle_mismatch", 0):
        notes.append(
            f"quadrature.oracle_hib_moment differs from the series by > 1e-6 on "
            f"{workload.oracle_mismatch} sampled fits (the series agrees with mpmath)"
        )
    messages = [f"{j.kind}: " + "; ".join(j.failures[:3]) for j in ops if j.failures]

    result = {
        "correct": not messages,
        "attempted": len(ops),
        "failed": len(messages),
        "metrics": metrics,
    }
    record = {"fingerprint": fingerprint(args, np.__version__), "notes": notes,
              "failures": messages, **result,
              "wall_clock_metrics": wall_metrics, "host_speed": host_speed,
              "job_latencies_s": [[job.kind, job.latency, job.ref_latency] for job in timed]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record) + "\n")
    for message in messages[:20]:
        print(f"FAIL {message}")
    for note in notes:
        print(f"note: {note}")
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
