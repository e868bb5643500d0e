#!/usr/bin/env python3
"""Smoke self-test of the benchmark at R-MAT scale 10.

    python3 hipads_bench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced for a couple of
seconds each and asserts that the run succeeds with correct outputs, and
that every metric BENCHMARK.json names is emitted, finite, and carries its
declared unit. Exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ["0", "1"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "7", "--seconds", "2", "--trace",
                   trace, "--scale", "10"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=300)
            lines = proc.stdout.decode().strip().splitlines()
            where = "%s trace=%s" % (workload, trace)
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (where, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: outputs not correct" % where)
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                failures.append("%s: metric set differs: missing %s, extra %s"
                                % (where, sorted(set(expected[trace]) -
                                                 set(metrics)),
                                   sorted(set(metrics) -
                                          set(expected[trace]))))
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    continue
                value = m.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    failures.append("%s: %s = %r" % (where, name, value))
                if m.get("unit") != unit:
                    failures.append("%s: %s unit %r, want %r"
                                    % (where, name, m.get("unit"), unit))
            print("smoke: %s ok (%d metrics)" % (where, len(metrics)))
    for f in failures:
        print("smoke FAIL: " + f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
