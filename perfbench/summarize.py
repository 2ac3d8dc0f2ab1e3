#!/usr/bin/env python3
"""Summarize benchmark run records across runs.

    python3 perfbench/summarize.py [RECORD.json ...] [--json OUT]

With no paths, reads every record under .perfbench/records/.  For each
workload and trace setting it prints each metric's median, quartiles and
spread (q3 - q1 as a share of the median) across runs, the failure counts,
and whether each job's output digest is identical across runs (seeded jobs
are compared per seed).  Runs made with --trace 1 also give the median of
each nonzero per-layer metric and each run's tracing overhead.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True    # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if "run_id" in rec:
            records.append(rec)
    return records


def summarize(records):
    groups = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["median"] for r in recs]
            q1, med, q3 = run.quartiles(values)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "n": len(values), "samples": values}
        digests = {}
        for r in recs:
            passes = r["passes"] + ([r["traced_pass"]]
                                    if "traced_pass" in r else [])
            for p in passes:
                for job in p["jobs"]:
                    key = (f"{job['job']} seed {r['seed']}"
                           if job["job"] in workloads.SEEDED_JOBS
                           else job["job"])
                    digests.setdefault(key, set()).add(job["digest"])
        out[f"{workload} trace {trace}"] = group = {
            "runs": len(recs),
            "seeds": sorted(r["seed"] for r in recs),
            "failed": sorted({r["failed"] for r in recs}),
            "attempted": sorted({r["attempted"] for r in recs}),
            "metrics": metrics,
            "digests_identical": {k: len(v) == 1 for k, v in digests.items()},
            "known_defect_probes": sorted({
                f"{pr['job']}: {'; '.join(pr['failures']) or 'passes'}"
                for r in recs for pr in r.get("known_defect_probes", [])}),
        }
        traced = [r["traced_pass"] for r in recs if "traced_pass" in r]
        if traced:
            group["trace_overhead_s"] = [
                t["wall_s"] - r["metrics"]["wall_s"]["median"]
                for t, r in zip(traced, recs)]
            group["layers"] = {
                name: statistics.median(t["layers"][name] for t in traced)
                for name in traced[0]["layers"]
                if any(t["layers"][name] for t in traced)}
            group["self_time_shares"] = traced[0]["shares"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="*")
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args(argv)
    paths = args.records or sorted(glob.glob(os.path.join(
        os.path.dirname(HERE), ".perfbench", "records", "*.json")))
    summary = summarize(load(paths))
    for group, s in summary.items():
        print(f"{group}: {s['runs']} runs, seeds {s['seeds']}, failed "
              f"{s['failed']} of {s['attempted']}")
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<16} median {m['median']:<12.6g} q1 "
                  f"{m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread}")
        for probe in s["known_defect_probes"]:
            print(f"  known-defect probe {probe}")
        differing = [k for k, same in s["digests_identical"].items()
                     if not same]
        print(f"  output digests identical across runs: "
              f"{'all jobs' if not differing else 'NOT ' + ', '.join(differing)}")
        if "layers" in s:
            print("  tracing overhead (s): "
                  + ", ".join(f"{v:.4g}" for v in s["trace_overhead_s"]))
            for name, v in s["layers"].items():
                print(f"  {name:<54} {v:.6g}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
