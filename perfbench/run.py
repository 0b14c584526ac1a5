#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

Run from the repository root. The harness is built from source on first
use (CMake, Release) into .bench_build/perfbench, or under
$CARGO_TARGET_DIR when that is set. A seed names INPUTS_PER_SEED inputs.
Every iteration is a fresh harness process on one input, and a run is made
of whole passes over the inputs: at least two, and more while --seconds
have not passed. So every input is measured equally often, whatever the
speed of the code, and every input runs at least twice. With --trace 0
the result carries the end-to-end metrics. With --trace 1 each input runs
as an untraced and a traced process per pass, and the result carries the
per-layer metrics. Metric names and units come from BENCHMARK.json; a
per-layer metric a workload does not exercise reads 0.

An iteration fails when its process crashes, reports a failure (reference
mismatch, exception, traced self-check), or prints a different output
digest than an earlier iteration on the same input. Seeds with a file in
--refs are checked against it; other seeds only against their repeats.
A stamped copy of the result, with the host record and every iteration,
is written to <build>/results/, and the spans of the last traced
iteration beside it. Exits non-zero without printing a result when the
build fails.

--record writes the reference of --seed (every input, untraced) to
--refs instead of measuring.
"""
import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS_PER_SEED = 4
MIN_PASSES = 2
ITERATION_TIMEOUT_S = 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures and builds the harness under a lock; returns the binary."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(out_dir, "perfbench")


def iterate(binary, args):
    """Runs one harness process; returns its report, or one describing why
    it produced none."""
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run([binary] + args + ["--t0-ns", str(t0)],
                              stdout=subprocess.PIPE, cwd=ROOT, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": ["timed out after %d s" % ITERATION_TIMEOUT_S]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": ["harness exited with %d" % proc.returncode]}
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median_of(iterations, key):
    values = [it[key] for it in iterations if key in it]
    return statistics.median(values) if values else None


def metrics_of(iterations, trace, specs):
    """Returns the reported metrics and the errors found assembling them."""
    untraced = [it for it in iterations if not it["trace"]]
    if not trace:
        values = {
            "run_s": median_of(untraced, "run_s"),
            "setup_s": median_of(iterations, "setup_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "pass_share": 1.0 - sum(bool(it["failures"]) for it in iterations)
                          / len(iterations),
        }
    else:
        traced = [it for it in iterations if it["trace"] and "layer" in it]
        names = {name for it in traced for name in it["layer"]}
        values = {name: statistics.median(it["layer"].get(name, 0.0)
                                          for it in traced)
                  for name in names}
        run_s = median_of(untraced, "run_s")
        traced_wall = median_of(traced, "traced_wall_s")
        if run_s and traced_wall:
            values["trace.overhead"] = traced_wall / run_s - 1.0
    listed = {spec["name"] for spec in specs}
    errors = ["metric %s is not listed in BENCHMARK.json" % name
              for name in sorted(set(values) - listed)]
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None and trace and not spec["name"].startswith("trace."):
            value = 0.0  # a layer this workload does not exercise
        if value is None:
            errors.append("metric %s not measured" % spec["name"])
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics, errors


def unchecked_inputs(iterations):
    """Inputs whose output was compared with neither a reference nor a
    repeat; the pass structure of a run should leave none."""
    runs = {}
    for it in iterations:
        if it.get("digest"):
            runs.setdefault(it["input"], []).append(it)
    return [k for k in range(INPUTS_PER_SEED)
            if k in runs and len(runs[k]) < 2
            and not any(it.get("reference") for it in runs[k])]


def record(binary, opts):
    path = os.path.join(opts.refs, "%s%s.seed%d.ref" % (
        opts.workload, ".toy" if opts.toy else "", opts.seed))
    cmd = [binary, "--workload", opts.workload, "--seed", str(opts.seed),
           "--record", path, "--inputs", str(INPUTS_PER_SEED)]
    if subprocess.run(cmd + (["--toy"] if opts.toy else []),
                      cwd=ROOT).returncode != 0:
        sys.exit("perfbench: recording %s failed" % path)
    print(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for perfbench/selftest.py")
    parser.add_argument("--refs", default=os.path.join(HERE, "refs"),
                        help="directory of reference outputs")
    parser.add_argument("--record", action="store_true",
                        help="write the reference of --seed instead")
    opts = parser.parse_args()
    if not opts.record and (opts.seconds is None or opts.trace is None):
        parser.error("--seconds and --trace are required unless --record")

    out_dir = build_dir()
    binary = build(out_dir)
    if opts.record:
        record(binary, opts)
        return
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s%s.seed%d.trace%d" % (opts.workload, ".toy" if opts.toy else "",
                                   opts.seed, opts.trace)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--refs", opts.refs] + (["--toy"] if opts.toy else [])
    spans = ["--spans", os.path.join(results, stem + ".spans.json")]

    iterations = []
    digests = {}
    host = {}
    start = time.monotonic()
    passes = 0
    while passes < MIN_PASSES or time.monotonic() - start < opts.seconds:
        for k in range(INPUTS_PER_SEED):
            for traced in (False, True) if opts.trace else (False,):
                args = common + ["--input", str(k),
                                 "--trace", str(int(traced))]
                it = iterate(binary, args + (spans if traced else []))
                it.update(input=k, trace=traced)
                digest = it.get("digest")
                if digest and digests.setdefault(k, digest) != digest:
                    it["failures"].append(
                        "output digest differs from an earlier iteration "
                        "on input %d" % k)
                host = it.pop("host", host)
                iterations.append(it)
        passes += 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if opts.trace else "end_to_end"]
    metrics, errors = metrics_of(iterations, opts.trace, specs)
    errors += sorted({f for it in iterations for f in it["failures"]})
    errors += ["input %d checked against neither a reference nor a repeat"
               % k for k in unchecked_inputs(iterations)]
    for error in errors:
        sys.stderr.write("perfbench: %s\n" % error)

    failed = sum(bool(it["failures"]) for it in iterations)
    result = {"correct": not errors, "attempted": len(iterations),
              "failed": failed, "metrics": metrics}
    host = dict(host, commit=commit(), source_digest=source_digest())
    stamped = dict(result, workload=opts.workload, seed=opts.seed,
                   trace=opts.trace, toy=opts.toy, seconds=opts.seconds,
                   passes=passes,
                   host=host, errors=errors, iterations=iterations)
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(stamped, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
