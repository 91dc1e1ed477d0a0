#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fig5-200|payments-1m|restart-join \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources plus the
benchmark program in main.cpp) into .bench_build/, runs one workload in one child
process, and prints two JSON lines: the machine and inputs, then the result
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run; the span
file of a traced run is kept in .bench_build/spans/. README.md explains the
workloads and metrics. Exits non-zero, without a result, if the repository
sources are missing or the build fails, and with correct=false if any output
check fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

WORKLOADS = ("fig5-200", "payments-1m", "restart-join")
BUILD_TYPE = "RelWithDebInfo"
# Worker-pool overrides the program reads from the environment; cleared so
# every run uses the program's defaults.
CLEARED_ENV = ("ALGORAND_VERIFY_WORKERS", "ALGORAND_EXEC_WORKERS")
# A run must end within 180 s; stop a stuck child before that.
CHILD_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-" + BUILD_TYPE)
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD_ROOT, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return os.path.isfile(BINARY)


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def machine_info(args, cleared):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = r.stdout.splitlines()[0] if r.returncode == 0 and r.stdout else ""
    return {
        "machine": {"nproc": os.cpu_count(), "compiler": version or compiler,
                    "build_type": cache_value("CMAKE_BUILD_TYPE")},
        "inputs": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "git_commit": git_commit(), "source_sha256": source_digest(),
                   "cleared_env": cleared},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="scaled-down workload (self-tests only)")
    p.add_argument("--corrupt", choices=("tip", "fingerprint"),
                   help="corrupt the expected tip or fingerprint (self-tests only)")
    args = p.parse_args()

    if not build():
        return 2

    env = dict(os.environ)
    cleared = {name: env.pop(name) for name in CLEARED_ENV if name in env}
    cleared = {name: cleared.get(name) for name in CLEARED_ENV}
    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]

    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read().decode()
        # wait4 gives this child's own peak RSS (not the build's compilers).
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    finally:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        if os.path.isdir(scratch):
            for name in os.listdir(scratch):
                if name.startswith("spans-"):
                    os.makedirs(spans_dir, exist_ok=True)
                    os.replace(os.path.join(scratch, name), os.path.join(spans_dir, name))
                    log("spans written to " + os.path.join(spans_dir, name))
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    try:
        child = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit %d)" % proc.returncode)
        return 1

    metrics = child["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    info = machine_info(args, cleared)
    info["identity"] = child.get("identity", {})
    print(json.dumps(info), flush=True)
    correct = bool(child["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
