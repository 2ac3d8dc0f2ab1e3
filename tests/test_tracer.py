"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps pvsieve
functions by module and name and reads its counters off their positional
arguments; a rename or a reordered signature would silently empty a layer.
"""

import importlib
import importlib.util
import inspect
import threading
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

    # weighted_count serves its count from a second bucket pass
    assert metrics["experiments.disc_value_buckets.points"] == 2 * 7 ** 4
    assert metrics["experiments.geo_pair_count.pair_tests"] == 7 ** 4 * 2
    assert metrics["experiments.weighted_count.calls"] == 1
    assert metrics["spaces.disc_cubic.points"] > 0


def test_lod_spans_nest_while_workers_run(monkeypatch, capsys):
    # lod builds its shards and serves its primes on worker threads, and no
    # traced function runs there, since the tracer keeps one span stack:
    # every span opens on the main thread and closes within its parent's
    # interval, and tracing leaves stdout as it was
    from pvsieve import cli, experiments
    monkeypatch.setattr(experiments, "_WORKERS", 2)
    monkeypatch.setattr(experiments, "_SHARD_POINTS", 2 ** 14)
    argv = ["lod", "--X", "1e4,1e5"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    t, off_main = _load_tracer().Tracer(), []
    opener = t._open

    def spy(name):
        if threading.current_thread() is not threading.main_thread():
            off_main.append(name)
        return opener(name)

    t._open = spy
    t.install()
    try:
        assert cli.main(argv) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out == plain
    assert off_main == []
    names = {span[0] for span in t.spans}
    assert {"cli.main", "experiments.disc_value_buckets", "spaces.disc_cubic",
            "sieve.primes_upto", "sieve.squarefree_upto",
            "ffcore.factor_squarefree"} <= names
    for name, t0, t1, parent, _, _ in t.spans:
        assert t1 is not None and t0 <= t1, name
        if parent is not None:
            _, p0, p1, *_ = t.spans[parent]
            assert p0 <= t0 and t1 <= p1, name
