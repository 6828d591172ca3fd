"""Span recorder that times hibshrink's layers from outside the package.

Nothing in ``src/`` is instrumented.  Instead, each public function is
replaced, for the duration of a traced pass, by a wrapper installed in the
namespace of the module that calls it (``risk`` looks up
``kappa_moment12_batch`` in its own globals, ``posterior`` looks up
``log_phi1``/``log_phi1_batch`` in its own, and so on), so every call that
crosses a module boundary leaves one span.  Spans live in memory as
``(id, parent, name, start, end, items, label)`` tuples and are written out
when the run ends.  Spans on the risk thread pool name the ``risk_curve``
span as their parent through a wrapped ``ThreadPoolExecutor``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict


def _x_size(args) -> int:
    return getattr(args[3], "size", 1)


def _grid_size(args) -> int:
    return getattr(args[1], "size", 1)


def _beta_norm(args) -> float:
    return float(args[2])


# (module, attribute looked up by that module, span name, items, label)
HOOKS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "risk_curve", "risk.risk_curve", None, None),
    ("cli", "horseshoe_gibbs", "sparse.horseshoe_gibbs", None, None),
    ("cli", "simulate_sparse", "sparse.simulate_sparse", None, None),
    ("cli", "density_lambda", "prior.density_lambda", _grid_size, None),
    ("cli", "density_lambda2", "prior.density_lambda2", _grid_size, None),
    ("cli", "density_kappa", "prior.density_kappa", _grid_size, None),
    ("cli", "shrink", "posterior.shrink", None, None),
    ("risk", "risk_analytic", "risk.risk_analytic", None, _beta_norm),
    ("risk", "js_risk", "risk.js_risk", None, None),
    ("risk", "simulate_estimator_risk", "risk.simulate_estimator_risk", None, None),
    ("risk", "kappa_moment12_batch", "posterior.kappa_moment12_batch", None, None),
    ("risk", "stream", "streams.stream", None, None),
    ("risk", "integrate_unit", "quadrature.integrate_unit", None, None),
    ("posterior", "shrink", "posterior.shrink", None, None),
    ("posterior", "kappa_moment", "posterior.kappa_moment", None, None),
    ("posterior", "marginal_log_likelihood", "posterior.marginal_log_likelihood", None, None),
    ("posterior", "log_phi1", "specfun.log_phi1", None, None),
    ("posterior", "log_phi1_batch", "specfun.log_phi1_batch", _x_size, None),
    ("prior", "log_normalizer", "prior.log_normalizer", None, None),
    ("prior", "log_phi1", "specfun.log_phi1", None, None),
    ("prior", "integrate_unit", "quadrature.integrate_unit", None, None),
    ("sparse", "gibbs_update_means", "sparse.gibbs_update_means", None, None),
    ("sparse", "gibbs_update_local_scales", "sparse.gibbs_update_local_scales", None, None),
    ("sparse", "gibbs_update_global_scale", "sparse.gibbs_update_global_scale", None, None),
    ("sparse", "density_lambda", "prior.density_lambda", _grid_size, None),
    ("sparse", "stream", "streams.stream", None, None),
)

POOL_TASK = "risk.pool_task"


class Tracer:
    """Installs the hooks, records spans, and restores the modules."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.pool_workers: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def adopt(self, parent: int, fn, args, kwargs):
        """Run ``fn`` on this thread as if called from span ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _wrap(self, name, fn, items=None, label=None):
        record = self.spans.append
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            count = items(args) if items else 0
            tag = label(args) if label else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, name, start, end, count, tag))

        return traced

    def _set(self, module, attr, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for mod_name, attr, name, items, label in HOOKS:
            module = importlib.import_module(f"hibshrink.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._set(module, attr, self._wrap(name, fn, items, label))
        risk = importlib.import_module("hibshrink.risk")
        base = getattr(risk, "ThreadPoolExecutor", None)
        if base is None:
            self.missing.append("risk.ThreadPoolExecutor")
        else:
            self._set(risk, "ThreadPoolExecutor", self._pool_class(base))

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Runs each task in a span whose parent is the submitting span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_workers.append(self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                task = tracer._wrap(POOL_TASK, fn)
                return super().submit(tracer.adopt, tracer.current(), task, args, kwargs)

        return TracedPool

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_us,end_us,items,label\n")
            for sid, parent, name, start, end, items, label in self.spans:
                handle.write(
                    f"{sid},{parent},{name},{(start - t0) * 1e6:.3f},"
                    f"{(end - t0) * 1e6:.3f},{items},{'' if label is None else label}\n"
                )


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def quantile(values, q: int) -> float:
    """q-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures by module name; a layer never reached reads 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def durs(*names):
        return [s[4] - s[3] for n in names for s in by_name[n]]

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def total(*names):
        return math.fsum(durs(*names))

    def self_sum(*names):
        return math.fsum(selfs[s[0]] for n in names for s in by_name[n])

    def ratio(num, den):
        return num / den if den else 0.0

    batch_x = sum(s[5] for s in by_name["specfun.log_phi1_batch"])
    scalar_us = sorted(d * 1e6 for d in durs("specfun.log_phi1"))
    densities = ("prior.density_lambda", "prior.density_lambda2", "prior.density_kappa")
    density_points = sum(s[5] for n in densities for s in by_name[n])
    points = by_name["risk.risk_analytic"]
    point_s = sorted(s[4] - s[3] for s in points)
    tail_over_origin = 0.0
    if points:
        top = max(s[6] for s in points)
        origin = [s[4] - s[3] for s in points if s[6] == 0.0]
        tail = [s[4] - s[3] for s in points if s[6] == top]
        if origin and top > 0.0:
            tail_over_origin = statistics.mean(tail) / statistics.mean(origin)
    risk_names = [n for n in by_name if n.startswith("risk.")]
    pool_capacity = total("risk.risk_curve") * max(tracer.pool_workers, default=0)
    sweeps = count("sparse.gibbs_update_means")

    def per_call_us(name):
        return ratio(total(name) * 1e6, count(name))

    values = {
        "specfun.batch.calls": (count("specfun.log_phi1_batch"), "count"),
        "specfun.batch.s": (total("specfun.log_phi1_batch"), "s"),
        "specfun.batch.ns_per_x": (ratio(total("specfun.log_phi1_batch") * 1e9, batch_x), "ns"),
        "specfun.scalar.calls": (len(scalar_us), "count"),
        "specfun.scalar.s": (math.fsum(scalar_us) * 1e-6, "s"),
        "specfun.scalar.us_p50": (quantile(scalar_us, 50), "us"),
        "specfun.scalar.us_p99": (quantile(scalar_us, 99), "us"),
        "posterior.batch.self_s": (self_sum("posterior.kappa_moment12_batch"), "s"),
        "posterior.scalar.self_s": (
            self_sum("posterior.shrink", "posterior.kappa_moment",
                     "posterior.marginal_log_likelihood"),
            "s",
        ),
        "prior.density.points": (density_points, "count"),
        "prior.density.s": (total(*densities), "s"),
        "prior.density.us_per_point": (ratio(total(*densities) * 1e6, density_points), "us"),
        "prior.normalizer.calls": (count("prior.log_normalizer"), "count"),
        "prior.normalizer_per_point": (ratio(count("prior.log_normalizer"), density_points), "ratio"),
        "risk.points": (len(points), "count"),
        "risk.point_s.p50": (quantile(point_s, 50), "s"),
        "risk.point_s.max": (max(point_s, default=0.0), "s"),
        "risk.self_s": (self_sum(*risk_names), "s"),
        "risk.tail_over_origin": (tail_over_origin, "ratio"),
        "risk.pool_busy_frac": (ratio(total(POOL_TASK), pool_capacity), "frac"),
        "streams.calls": (count("streams.stream"), "count"),
        "streams.s": (total("streams.stream"), "s"),
        "sparse.sweeps": (sweeps, "count"),
        "sparse.update_means.us": (per_call_us("sparse.gibbs_update_means"), "us"),
        "sparse.update_local.us": (per_call_us("sparse.gibbs_update_local_scales"), "us"),
        "sparse.update_global.us": (per_call_us("sparse.gibbs_update_global_scale"), "us"),
        "sparse.sweep_rest.us": (ratio(self_sum("sparse.horseshoe_gibbs") * 1e6, sweeps), "us"),
        "cli.self_s": (self_sum("cli.main"), "s"),
        "quadrature.calls": (count("quadrature.integrate_unit"), "count"),
        "trace.spans": (len(spans), "count"),
        "trace.hooks_missing": (len(tracer.missing), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
