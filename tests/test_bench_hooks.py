"""The benchmark's span recorder must find every function it hooks.

``bench/tracer.py`` wraps functions by name in the namespaces of the
modules that call them.  A rename in ``src/`` would leave a hook missing and
turn every traced benchmark run into a failed operation, so the hook table
is checked here against the package as it stands, and a traced profile run
must write the bytes an untraced one does.
"""

import importlib.util
import multiprocessing
from collections import Counter
from pathlib import Path

import pytest

from hibshrink import cli, posterior, specfun

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert posterior.log_phi1 is not specfun.log_phi1
    finally:
        tracer.uninstall()
    assert posterior.log_phi1 is specfun.log_phi1


def test_density_grid_spans_count_points_and_one_normalizer(tmp_path):
    # keeps prior.density.points and prior.normalizer_per_point meaningful:
    # the grid arrives as one array call, which computes one normalizer
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["prior-density", "--var", "kappa", "--prior", "0.5,1,4,3",
                         "--grid", "0.01:0.99:81", "--out", str(tmp_path / "d.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[2] for span in tracer.spans]
    density_items = sum(span[5] for span in tracer.spans
                        if span[2].startswith("prior.density_"))
    assert density_items == 81
    assert names.count("prior.log_normalizer") == 1


def test_risk_curve_batch_spans_are_one_per_bayes_point(tmp_path):
    # keeps the base of specfun.batch.ns_per_x: every Bayes point evaluates
    # its n_mc draws in exactly one log_phi1_batch call, which sums all of
    # its series: two at tau2 = 1, as for this half-Cauchy curve, else three
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["risk-curve", "--p", "7", "--grid", "0:6:3", "--mc", "2000",
                         "--seed", "1", "--compare", "js,js_plus,mle",
                         "--out", str(tmp_path / "r.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    by_id = {span[0]: span for span in tracer.spans}

    def enclosing_point(span):
        while span[2] != "risk.risk_analytic":
            span = by_id[span[1]]
        return span[0]

    batch = [span for span in tracer.spans if span[2] == "specfun.log_phi1_batch"]
    per_point = Counter(enclosing_point(span) for span in batch)
    points = [span for span in tracer.spans if span[2] == "risk.risk_analytic"]
    assert len(points) == 3
    assert sorted(per_point) == sorted(span[0] for span in points)
    assert set(per_point.values()) == {1}
    assert [span[5] for span in batch] == [2000] * 3


@pytest.mark.parametrize("threads", [
    "1",
    pytest.param("2", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")),
])
def test_traced_profile_writes_the_untraced_bytes(threads, tmp_path, monkeypatch):
    # the gibbs-profile workload runs traced: its hooks must all be found, and
    # must change no byte of the profile, at one worker or with the helper
    monkeypatch.setenv("HIBSHRINK_THREADS", threads)
    argv = ["marglik-profile", "--seed", "3", "--data-seed", "2", "--iters", "600",
            "--burn-in", "100", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.csv")]) == 0
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(argv + [str(tmp_path / "traced.csv")])
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert code == 0
    assert missing == []
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
