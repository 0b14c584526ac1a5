#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes the spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10]
                                 [--trace 0|1] [--out FILE] [--against FILE]

For every (workload, metric) it reports the median and the quartiles of
the per-seed values, and the quartile spread as a share of the median
(statistics.quantiles(values, n=4)). Every run lasts BENCHMARK.json's
run_seconds. The summary carries the host record of the runs. --against
compares medians with an earlier summary, against the bounds in
BENCHMARK.json, and flags every host-record field, and the run length and
trace mode, in which the two differ: such a comparison is not like for
like.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (shares the build and results locations)

# Host-record fields that make two summaries comparable; the commit and
# source digest are what a comparison is meant to differ in.
HOST_FIELDS = ("hardware_threads", "build_type", "compiler", "workers")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("collect: %s seed %d failed" % (workload, seed))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    stem = "%s.seed%d.trace%d.json" % (workload, seed, trace)
    with open(os.path.join(run.build_dir(), "results", stem)) as f:
        host = json.load(f)["host"]
    return result, host


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def compare(summary, baseline, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    for field in HOST_FIELDS:
        a = summary["host"].get(field)
        b = baseline["host"].get(field)
        if a != b:
            print("HOST MISMATCH %s: %r vs baseline %r -- not like for like"
                  % (field, a, b))
    for field in ("seconds", "trace"):
        if summary[field] != baseline.get(field):
            print("RUN MISMATCH %s: %r vs baseline %r -- not like for like"
                  % (field, summary[field], baseline.get(field)))
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            base = baseline["workloads"].get(workload, {}).get(name)
            if not base or not base["median"]:
                continue
            ratio = s["median"] / base["median"]
            verdict = ""
            if name in bounds:
                worse = ratio - 1.0 if better[name] == "lower" else 1.0 - ratio
                verdict = "REGRESSION" if worse > bounds[name] else "ok"
            print("%-20s %-40s %12.6g / %12.6g = %.4f %s"
                  % (workload, name, s["median"], base["median"], ratio,
                     verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    opts = parser.parse_args()

    bench = spec()
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "trace": opts.trace,
               "seeds": parse_seeds(opts.seeds), "host": None,
               "workloads": {}}
    for workload in workloads:
        values = {}
        for seed in summary["seeds"]:
            result, host = run_once(workload, seed, opts.trace, seconds)
            if not result["correct"]:
                print("collect: %s seed %d not correct" % (workload, seed))
            summary["host"] = summary["host"] or host
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary["workloads"][workload] = {
            name: summarize(v) for name, v in values.items()}
        for name, s in summary["workloads"][workload].items():
            flag = ""
            if name in bounds and name != "setup_s":
                flag = " (bound %.3g%s)" % (
                    bounds[name], ", OVER A THIRD" if
                    s["spread"] > bounds[name] / 3 else "")
            print("%-20s %-40s median %12.6g  spread %.4f%s"
                  % (workload, name, s["median"], s["spread"], flag),
                  flush=True)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if opts.against:
        with open(opts.against) as f:
            compare(summary, json.load(f), bench)


if __name__ == "__main__":
    main()
