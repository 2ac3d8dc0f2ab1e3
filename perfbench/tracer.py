"""Per-layer tracing for the traced benchmark pass.

The tracer wraps the public functions listed in LAYERS from outside the
program: it replaces the function in its defining module and in every
pvsieve module that bound it with ``from ... import``.  Each call becomes a
span (name, start, end, parent, job) kept in memory; counters are read off
the call's arguments and result, so the program itself takes no tracing
arguments.  Only the traced pass installs a Tracer.
"""

import contextlib
import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _rows(coords):
    """Number of states in an (n, r) array or list of coordinate rows."""
    shape = np.shape(coords)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _histogram_counts(args, kwargs, result):
    cond, p = args[0], args[1]
    lo, hi = _arg(args, kwargs, 3, "code_range") or (0, p ** cond.space.r)
    states = hi - lo
    support = result[0].total() if result else 0
    return {"states": states, "support": support}


def _bucket_counts(args, kwargs, result):
    from pvsieve import experiments
    X = _arg(args, kwargs, 0, "X")
    weight = _arg(args, kwargs, 1, "weight") or experiments.SmoothWeight()
    side = 2 * experiments.box_radius(X, weight.s) + 1
    return {"points": side ** 4, "distinct_values": int(result[0].size)}


def _geo_counts(args, kwargs, result):
    from pvsieve import spaces
    q = _arg(args, kwargs, 0, "query")
    n_pts = 1
    for i in range(4):
        n_pts *= len(spaces.box_axis(q.lam, q.x0[i], q.m))
    return {"pair_tests": n_pts * result.n_primes}


@dataclass(frozen=True)
class Layer:
    """One traced public function, the per-layer stats reported for it, and
    the prediction written down before measuring: the end-to-end metric it
    should move, on which workload, and where it should stay flat."""
    module: str
    func: str
    counters: tuple = ()          # counter names produced by `count`
    derived: tuple = ()           # (suffix, numerator, denominator) ratios
    count: object = None          # (args, kwargs, result) -> {counter: n}
    moves: str = ""
    on: str = ""
    flat_on: str = ""

    @property
    def name(self):
        return f"{self.module}.{self.func}"

    def stats(self):
        return ["s", "self_s", "calls", *self.counters,
                *(suffix for suffix, _, _ in self.derived)]


LAYERS = (
    Layer("cli", "main", moves="every job time (expected << 1 %)",
          on="all"),
    Layer("fourier", "ft_bruteforce_exhaustive_cubic", ("targets",),
          (("targets_per_s", "targets", "s"),),
          lambda a, k, r: {"targets": int(r[1])},
          "ft_exhaustive_s", "cubic-exact", "quartic-orbits, lod-box"),
    Layer("fourier", "ft_histograms", ("states", "support"),
          (("support_ratio", "support", "states"),
           ("states_per_s", "states", "s")), _histogram_counts,
          "ft_per_class_s, ft_verify_s", "cubic-exact, quartic-orbits",
          "lod-box"),
    Layer("orbits", "decode_states", ("states",), (),
          lambda a, k, r: {"states": int(r.shape[0])},
          "ft_per_class_s, ft_verify_s", "cubic-exact, quartic-orbits",
          "lod-box"),
    Layer("spaces", "disc_mod", ("states",), (),
          lambda a, k, r: {"states": _rows(_arg(a, k, 1, "coords"))},
          "ft_per_class_s, ft_verify_s", "cubic-exact, quartic-orbits",
          "lod-box"),
    Layer("orbits", "decompose_orbits", moves="ft_verify_s",
          on="quartic-orbits", flat_on="cubic-exact, lod-box"),
    Layer("orbits", "classify_batch", ("states",),
          (("states_per_s", "states", "s"),),
          lambda a, k, r: {"states": int(r.size)},
          "classify_s", "quartic-orbits", "cubic-exact, lod-box"),
    Layer("experiments", "disc_value_buckets", ("points", "distinct_values"),
          (("points_per_s", "points", "s"),), _bucket_counts,
          "lod_s, peak_rss_mb", "lod-box", "cubic-exact, quartic-orbits"),
    Layer("experiments", "serve_buckets", (), (("q_per_s", "calls", "s"),),
          moves="lod_s", on="lod-box", flat_on="cubic-exact"),
    Layer("sieve", "squarefree_upto", moves="lod_s", on="lod-box",
          flat_on="cubic-exact"),
    Layer("spaces", "disc_cubic", ("points",), (),
          lambda a, k, r: {"points": int(np.size(r))},
          "lod_s; geosieve_s", "lod-box; cubic-exact", "quartic-orbits"),
    Layer("experiments", "geo_pair_count", ("pair_tests",),
          (("pair_tests_per_s", "pair_tests", "s"),), _geo_counts,
          "geosieve_s", "cubic-exact", "lod-box"),
    Layer("sieve", "primes_upto", moves="geosieve_s", on="cubic-exact",
          flat_on="lod-box"),
    Layer("experiments", "dual_bound_sum", moves="exact_sums_s",
          on="cubic-exact", flat_on="quartic-orbits"),
    Layer("experiments", "dual_bound_majorant", moves="exact_sums_s",
          on="cubic-exact", flat_on="quartic-orbits"),
    Layer("experiments", "reducible_count", moves="exact_sums_s",
          on="cubic-exact", flat_on="quartic-orbits"),
    Layer("ffcore", "factor_squarefree", moves="exact_sums_s",
          on="cubic-exact", flat_on="quartic-orbits"),
    Layer("experiments", "weighted_count", moves="wall_s (small)",
          on="lod-box", flat_on="cubic-exact"),
    Layer("experiments", "poisson_rhs", moves="wall_s (small)",
          on="lod-box", flat_on="cubic-exact"),
    Layer("ffcore", "ft_value_from_histogram",
          moves="every job time (expected << 1 %)", on="all"),
)


def layer_metric_names():
    return [f"{layer.name}.{stat}" for layer in LAYERS
            for stat in layer.stats()]


class Tracer:
    """Span recorder.  Spans are (name, t0, t1, parent index, job index,
    counters); a job span is opened by the workload runner around each job
    and every traced call inside it becomes a descendant."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._patched = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._job, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, counts=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, name):
        self._job = len(self.spans)
        idx = self._open(f"job.{name}")
        try:
            yield
        finally:
            self._close(idx)
            self._job = None

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer.name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if layer.count is not None:
                    counts = layer.count(args, kwargs, result)
                return result
            finally:
                tracer._close(idx, counts)
        return traced

    def install(self):
        """Patch every layer function wherever pvsieve bound it."""
        import pvsieve.cli  # noqa: F401  (loads every pvsieve module)
        modules = [m for n, m in sys.modules.items()
                   if n == "pvsieve" or n.startswith("pvsieve.")]
        for layer in LAYERS:
            home = sys.modules[f"pvsieve.{layer.module}"]
            original = getattr(home, layer.func)
            traced = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path, run_id, workload):
        """Write the spans out as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, job, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "workload": workload, "id": i,
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "job": job, "counts": counts or {}}) + "\n")

    def aggregate(self):
        """(per-layer metrics, per-job self-time shares).

        Self time is a span's duration minus its direct children's: calls
        are sequential, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        acc = {}
        job_self = {}
        for i, (name, t0, t1, parent, job, counts) in enumerate(self.spans):
            if name.startswith("job."):
                continue
            a = acc.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            a["s"] += t1 - t0
            self_s = (t1 - t0) - child_time[i]
            a["self_s"] += self_s
            a["calls"] += 1
            for key, n in (counts or {}).items():
                a[key] = a.get(key, 0) + n
            if job is None:
                continue
            jname = self.spans[job][0][len("job."):]
            per_job = job_self.setdefault(jname, {})
            per_job[name] = per_job.get(name, 0.0) + self_s
        metrics = {}
        for layer in LAYERS:
            a = acc.get(layer.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in ("s", "self_s", "calls", *layer.counters):
                metrics[f"{layer.name}.{key}"] = a.get(key, 0)
            for suffix, num, den in layer.derived:
                metrics[f"{layer.name}.{suffix}"] = (
                    a.get(num, 0) / a[den] if a.get(den) else 0.0)
        shares = {}
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            if name.startswith("job."):
                jname = name[len("job."):]
                dur = t1 - t0
                shares[jname] = {
                    layer: round(s / dur, 4) if dur > 0 else 0.0
                    for layer, s in sorted(job_self.get(jname, {}).items(),
                                           key=lambda kv: -kv[1])}
        return metrics, shares
