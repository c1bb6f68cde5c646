#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that:
  * every workload runs at tiny size, untraced and traced, exits 0 and
    prints correct=true with every metric BENCHMARK.json names, each with
    its unit (end-to-end metrics must also be non-zero);
  * the correctness gate fires: with one deliberately corrupted answer
    every workload exits non-zero and reports correct=false, failed >= 1;
  * in a directory holding only BENCHMARK.json and the benchmark's files
    (no program sources) the command exits non-zero without a result.
Exit status 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 900  # the first call builds the program


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cwd, workload, trace, *extra):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def main():
    spec = load_spec()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            proc, result = run(ROOT, workload, trace)
            check(proc.returncode == 0 and result is not None
                  and result.get("correct") is True
                  and result.get("attempted", 0) >= 1
                  and result.get("failed") == 0,
                  label + ": exit 0, correct, attempted >= 1, failed 0")
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            metrics = result.get("metrics", {})
            check(set(metrics) == {m["name"] for m in names},
                  label + ": prints exactly the metrics BENCHMARK.json names")
            for m in names:
                got = metrics.get(m["name"], {})
                ok = got.get("unit") == m["unit"] and isinstance(
                    got.get("value"), (int, float))
                if trace == 0:
                    ok = ok and got.get("value", 0) > 0
                check(ok, "%s: %s printed in %s" % (label, m["name"], m["unit"]))

        proc, result = run(ROOT, workload, 0, "--corrupt")
        check(proc.returncode != 0 and result is not None
              and result.get("correct") is False
              and result.get("failed", 0) >= 1,
              workload + " --corrupt: the correctness gate fires")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc, result = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          "without program sources: non-zero exit and no result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
