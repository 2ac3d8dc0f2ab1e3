"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps pvsieve
functions by module and name and reads its counters off their positional
arguments; a rename or a reordered signature would silently empty a layer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _home(layer):
    return importlib.import_module(f"pvsieve.{layer.module}")


def test_tracer_layers_resolve_and_install_cleanly():
    tracer = _load_tracer()
    originals = {}
    for layer in tracer.LAYERS:
        fn = getattr(_home(layer), layer.func, None)
        assert inspect.isfunction(fn), layer.name
        originals[layer.name] = fn

    t = tracer.Tracer()
    t.install()
    try:
        for layer in tracer.LAYERS:
            assert getattr(_home(layer), layer.func) is not \
                originals[layer.name], layer.name
        from pvsieve import experiments
        experiments.disc_value_buckets(100, experiments.SmoothWeight())
        experiments.geo_pair_count(experiments.GeoSieveQuery(lam=3,
                                                             window=(3, 5)))
        experiments.weighted_count(3, 100)
        metrics, _ = t.aggregate()
    finally:
        t.uninstall()
    for layer in tracer.LAYERS:
        assert getattr(_home(layer), layer.func) is originals[layer.name]

    assert metrics["experiments.disc_value_buckets.points"] == 7 ** 4
    assert metrics["experiments.geo_pair_count.pair_tests"] == 7 ** 4 * 2
    assert metrics["experiments.weighted_count.calls"] == 1
    assert metrics["spaces.disc_cubic.points"] > 0
