#!/usr/bin/env python3
"""Self-tests of the benchmark on a tiny configuration of every workload.

    python3 perfbench/selftest.py

Run from the repository root (about a minute after the build). Checks that:
  * --trace 0 and --trace 1 runs of each workload pass and print exactly the
    end-to-end / per-layer metrics BENCHMARK.json names, each with its unit;
  * a corrupted expected tip or fingerprint fails the run (exit 1, correct
    false);
  * run.py exits non-zero without printing a result in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    r = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                       capture_output=True, text=True)
    lines = [line for line in r.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return r.returncode, result, r.stderr


def check(ok, what, stderr=""):
    if not ok:
        print("FAIL: " + what)
        if stderr:
            print(stderr[-3000:])
        sys.exit(1)
    print("ok: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    base = ["--seed", "3", "--seconds", "1", "--tiny"]
    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            code, res, err = run("--workload", name, "--trace", trace, *base)
            check(code == 0 and res is not None and res["correct"],
                  "%s --trace %s passes" % (name, trace), err)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["attempted"] >= 1 and res["failed"] == 0,
                  "%s --trace %s result keys, attempted and failed" % (name, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units[trace],
                  "%s --trace %s prints every named metric with its unit" % (name, trace),
                  "got %s\nwant %s" % (got, units[trace]))
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  "%s --trace %s values are numbers" % (name, trace))
        for what in ("tip", "fingerprint"):
            code, res, err = run("--workload", name, "--trace", "0", "--corrupt", what, *base)
            check(code == 1 and res is not None and res["correct"] is False,
                  "%s with a corrupted expected %s fails" % (name, what), err)

    iso = os.path.join(ROOT, ".bench_build", "selftest-iso")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, err = run("--workload", spec["workloads"][0]["name"], "--trace", "0",
                         "--seed", "1", "--seconds", "1", cwd=iso)
    shutil.rmtree(iso, ignore_errors=True)
    check(code != 0 and res is None, "without the repository sources: non-zero exit, no result",
          err)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
