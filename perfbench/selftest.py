#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

For every workload, at toy size (1000-node cities with a 300-slot leg,
one Table II row, a 40-stage tournament), it records a reference, then
checks through perfbench/run.py that:
  * the untraced and the traced run both pass against that reference and
    emit every metric BENCHMARK.json names, with its unit;
  * a seed without a reference passes on the determinism check alone;
  * a corrupted reference is reported as a failure.
Scratch files go under the build directory. Exits non-zero on the first
failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (shares the build)


def fail(what):
    sys.exit("selftest: FAIL: " + what)


def bench(workload, seed, trace, refs):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--toy",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--refs", refs]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd[1:]), out.returncode,
                                   out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def check_metrics(result, specs, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % label)
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("%s: metric %s missing" % (label, spec["name"]))
        if got["unit"] != spec["unit"]:
            fail("%s: metric %s unit %s, expected %s"
                 % (label, spec["name"], got["unit"], spec["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail("%s: metric %s is not a number" % (label, spec["name"]))
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        fail("%s: unlisted metrics %s" % (label, sorted(extra)))


def corrupt(path):
    """Changes the last digit of one value per input in a reference."""
    with open(path) as f:
        lines = f.read().splitlines()
    seen = set()
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        input_index = line.split("\t")[0]
        if input_index not in seen and line[-1].isdigit():
            seen.add(input_index)
            lines[i] = line[:-1] + ("1" if line[-1] != "1" else "2")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = run.build_dir()
    run.build(out_dir)
    refs = os.path.join(out_dir, "selftest", "refs")
    shutil.rmtree(os.path.dirname(refs), ignore_errors=True)
    os.makedirs(refs)
    seed = 1
    for w in spec["workloads"]:
        name = w["name"]
        ref = os.path.join(refs, "%s.toy.seed%d.ref" % (name, seed))
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--toy",
                        "--workload", name, "--seed", str(seed), "--record",
                        "--refs", refs], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)

        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace %d" % (name, trace)
            result, err = bench(name, seed, trace, refs)
            check_metrics(result, specs, label)
            if not result["correct"] or result["failed"]:
                fail("%s: not correct against its reference: %s"
                     % (label, err[-2000:]))

        result, err = bench(name, seed + 1, 0, refs)
        if not result["correct"]:
            fail("%s: unrecorded seed not correct: %s" % (name, err[-2000:]))

        corrupt(ref)
        result, err = bench(name, seed, 0, refs)
        if result["correct"] or result["failed"] != result["attempted"]:
            fail("%s: corrupted reference not reported" % name)
        if "reference mismatch" not in err:
            fail("%s: corrupted reference without a mismatch message" % name)
        print("selftest: %s ok" % name, flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
