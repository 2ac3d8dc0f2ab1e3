#!/usr/bin/env python3
"""pvsieve benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload cubic-exact --seed 1 --seconds 10 --trace 0

Each pass of a workload runs its fixed job list once, in a fresh Python
process that imports the package from ./src.  Passes repeat until
--seconds have gone by (at least one pass).  --trace 0 reports the
end-to-end metrics; --trace 1 adds one traced pass and reports the
per-layer metrics, with the per-job times of the untraced passes and the
tracing overhead (traced wall_s - untraced wall_s).

The first pass also runs the workload's known-defect probes (see
workloads.PROBES) after its timed jobs; their checks are printed and
recorded, but they are not jobs of the workload and do not count as
failures.

Human-readable lines go to stdout first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A record with every sample,
the environment and the checks is written under .perfbench/records/.
Nothing outside the checkout is read or written: the package cache is
pointed at .perfbench/cache and ft-verify runs with --no-cache.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SRC = os.path.join(ROOT, "src")

sys.dont_write_bytecode = True    # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5         # set-ups measured per run; setup_s is their median
RUN_BUDGET_S = 170        # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the parent runs each pass as `run.py ... --pass-out FILE`
    ap.add_argument("--pass-out", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# one pass, in its own process
# ---------------------------------------------------------------------------

def run_pass(args):
    sys.path.insert(0, SRC)
    import pvsieve.cli  # noqa: F401  (every job's imports, paid in set-up)
    recorder = None
    if args.traced:
        recorder = tracer.Tracer()
        recorder.install()
    inputs = workloads.make_inputs(args.workload, args.seed)
    out = {"ready": time.monotonic()}
    if args.setup_only:
        _write_json(args.pass_out, out)
        return 0

    jobs = workloads.JOBS[args.workload]
    outcomes = []
    first = time.monotonic()
    for job in jobs:
        span = (recorder.job(job.name) if recorder
                else contextlib.nullcontext())
        with span:
            outcomes.append((job, *_attempt(job, inputs)))
    last = time.monotonic()
    out.update(first=first, wall_s=last - first,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024)

    out["jobs"] = [_row(*o, inputs) for o in outcomes]
    if args.probe:     # untimed, after the pass's measurements are taken
        out["probes"] = [_row(job, *_attempt(job, inputs), inputs)
                         for job in workloads.PROBES.get(args.workload, ())]
    if recorder is not None:
        recorder.uninstall()
        out["layers"], out["shares"] = recorder.aggregate()
        out["spans"] = args.pass_out[:-len(".json")] + ".spans.jsonl.gz"
        recorder.write(out["spans"], os.path.basename(args.pass_out),
                     args.workload)
    _write_json(args.pass_out, out)
    return 0


def _attempt(job, inputs):
    """Run one job: (outcome or None, traceback or None, seconds)."""
    t0 = time.perf_counter()
    try:
        outcome, error = job.run(inputs), None
    except Exception:
        outcome, error = None, traceback.format_exc()
    return outcome, error, time.perf_counter() - t0


def _row(job, outcome, error, secs, inputs):
    if error is not None:
        fails, dig = [f"raised:\n{error}"], None
    else:
        fails = workloads.check(job, outcome, inputs)
        dig = workloads.digest(outcome.text)
    return {"job": job.name, "metric": job.metric, "s": secs,
            "digest": dig, "failures": fails}


def _write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the parent: passes, set-ups, metrics, record
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, args, run_id):
        self.args = args
        self.run_id = run_id
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.n = 0
        self.env = dict(os.environ)
        nproc = str(len(os.sched_getaffinity(0)))
        for var in THREAD_VARS:
            self.env.setdefault(var, nproc)
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env["PVSIEVE_CACHE"] = os.path.join(OUT, "cache")

    def spawn(self, traced=False, setup_only=False, probe=False):
        """Run one child process; returns its result with setup_s added."""
        self.n += 1
        path = os.path.join(OUT, "records", f"{self.run_id}-p{self.n}.json")
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--pass-out", path]
        cmd += (["--traced"] * traced + ["--setup-only"] * setup_only
                + ["--probe"] * probe)
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: pass exceeded the {RUN_BUDGET_S} s "
                             "run budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise SystemExit(f"perfbench: pass exited with code {code}")
        with open(path) as fh:
            res = json.load(fh)
        os.remove(path)
        res["setup_s"] = (res.get("first", res["ready"])) - spawned
        return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(samples):
    out = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "n": len(values), "samples": values}
    return out


def environment(env):
    import numpy
    import scipy
    rev = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", rev[5:])
            if os.path.exists(ref):
                with open(ref) as fh:
                    rev = fh.read().strip()
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "pvsieve"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "source_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: env.get(v) for v in THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    if args.pass_out:
        return run_pass(args)
    if not os.path.exists(os.path.join(SRC, "pvsieve", "__init__.py")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    runner = Runner(args, run_id)

    # set-ups are sampled on both sides of the passes, so that their median
    # spans the run rather than a few seconds of host speed
    setups = [runner.spawn(setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    passes, start = [], time.monotonic()
    while True:
        passes.append(runner.spawn(probe=not passes))
        now = time.monotonic()
        left = runner.deadline - now - passes[-1]["wall_s"] * (1 + args.trace)
        if now - start >= args.seconds or left < passes[-1]["setup_s"] + 10:
            break
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    traced = runner.spawn(traced=True) if args.trace else None

    samples = {"wall_s": [p["wall_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               "setup_s": setups}
    for metric in workloads.JOB_METRICS[args.workload]:
        samples[metric] = [sum(r["s"] for r in p["jobs"]
                               if r["metric"] == metric) for p in passes]

    # checks: every job of every pass, plus output identity across passes
    all_passes = passes + ([traced] if traced else [])
    failures, attempted = [], 0
    for i, p in enumerate(all_passes):
        for r, ref in zip(p["jobs"], passes[0]["jobs"]):
            attempted += 1
            fails = list(r["failures"])
            if r["digest"] != ref["digest"]:
                fails.append("output differs from the first pass's")
            if fails:
                where = "traced pass" if p is traced else f"pass {i + 1}"
                failures.append((where, r["job"], fails))
    failed = len(failures)
    # known-defect probes: reported, but not failures of the workload
    probes = [{"job": r["job"], "failures": r["failures"]}
              for r in passes[0].get("probes", [])]

    stats = summarize(samples)
    if traced:
        untraced_wall = stats["wall_s"]["median"]
        per_layer = dict(traced["layers"])
        for metric in workloads.JOB_METRICS[args.workload]:
            per_layer[f"job.{metric}"] = stats[metric]["median"]
        per_layer["trace.wall_s"] = traced["wall_s"]
        per_layer["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        wanted = bench["per_layer"]
    else:
        per_layer = {}
        wanted = bench["end_to_end"]
    values = {k: v["median"] for k, v in stats.items()}
    values.update(per_layer)
    metrics = {}
    for m in wanted:
        # job times of jobs a workload does not run read 0 (not run)
        value = values.get(m["name"], 0 if m["name"].startswith("job.")
                           else None)
        if value is None:
            raise SystemExit(f"perfbench: metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(runner.env), "passes": passes,
              "metrics": stats, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "failures": failures,
              "known_defect_probes": probes}
    if traced:
        record["traced_pass"] = traced
    rec_path = os.path.join(OUT, "records", run_id + ".json")
    _write_json(rec_path, record)

    print(f"pvsieve benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {len(passes)} pass(es), each a fresh "
          f"process; setup_s from {len(setups)} set-ups")
    for name, st in stats.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<16} {st['median']:.6g} {unit}  (q1 {st['q1']:.6g}, "
              f"q3 {st['q3']:.6g}, n {st['n']})")
    print(f"  {'fail_ratio':<16} {failed / attempted:.4f}  "
          f"({failed} of {attempted} jobs failed a check)")
    if traced:
        print(f"  traced wall_s {traced['wall_s']:.6g} s, tracing overhead "
              f"{per_layer['trace.overhead_s']:.6g} s")
        for job, share in traced["shares"].items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(share.items())[:4])
            print(f"  self-time share, {job}: {top}")
        for name in (layer.name for layer in tracer.LAYERS):
            if per_layer.get(f"{name}.calls"):
                print(f"  {name}: " + ", ".join(
                    f"{k.rsplit('.', 1)[1]} {v:.6g}"
                    for k, v in per_layer.items() if k.startswith(name + ".")))
    for where, job, fails in failures:
        print(f"  CHECK FAILED {where}, {job}: {'; '.join(fails)}")
    for pr in probes:
        state = ("KNOWN DEFECT still present: " + "; ".join(pr["failures"])
                 if pr["failures"] else "passes (the defect is fixed; "
                 "remove its entry from workloads.PROBES)")
        print(f"  known-defect probe {pr['job']}, untimed: {state}")
    print(f"  record: {os.path.relpath(rec_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
