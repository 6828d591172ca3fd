"""The benchmark's span recorder must find every function it hooks.

``bench/tracer.py`` wraps functions by name in the namespaces of the
modules that call them.  A rename in ``src/`` would leave a hook missing and
turn every traced benchmark run into a failed operation, so the hook table
is checked here against the package as it stands.
"""

import importlib.util
from pathlib import Path

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
