#!/usr/bin/env python3
"""The benchmark's own test: every workload at the tiny --smoke size.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload, untraced and traced, it
checks that run.py exits 0 and that the last stdout line is the result
object: exactly the keys correct/attempted/failed/metrics, every answer
matching the oracle, and exactly the metrics BENCHMARK.json lists for that
mode, each a finite number with its unit. It also checks that the
ces-bench-v1 report was written. Takes about a minute after the build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s" % (label, done.returncode, done.stderr[-2000:])]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (label, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%s" % (label, result.get("attempted")))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        errors.append("%s: metrics %s, expected %s" %
                      (label, sorted(metrics), sorted(wanted)))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s = %r" % (label, name, value))
        if metric.get("unit") != wanted.get(name):
            errors.append("%s: %s unit %r" % (label, name, metric.get("unit")))
    report = os.path.join(ROOT, ".bench_run", "results",
                          "%s-s3-t%d.json" % (workload, trace))
    with open(report) as handle:
        if json.load(handle).get("schema") != "ces-bench-v1":
            errors.append("%s: %s is not ces-bench-v1" % (label, report))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print("%-12s trace %d: %s" % (workload, trace,
                                          "FAIL" if found else "ok"))
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
