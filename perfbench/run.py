#!/usr/bin/env python3
"""Entry point of the ppk benchmark (see perfbench/README.md).

Builds the library, the ppkd daemon and the benchmark binary (perfbench)
from the enclosing source tree, then runs one workload and prints the
result from its report.  The last line of standard output is the result
JSON, the line before it the machine record:

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 30 --trace 0

Everything it writes goes under the build directory: $CARGO_TARGET_DIR when
that is set, else .bench_build (relative to the checkout root).  Each run
gets a fresh run directory there (ppkd state, checkpoints, report.json);
only report.json is kept afterwards.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "large_n", "exact_ceiling", "ppkd_mix")
# The workloads BENCHMARK.json gates on.  large_n and ppkd_mix still run
# here, for side-by-side comparisons, but their run-to-run spread on a
# shared host exceeds any bound the benchmark may set (README.md,
# "Steadiness"); their layers are measured in every traced run.
GATED = ("paper_sweep", "exact_ceiling")
# A run must finish within 180 s; perfbench's own runs are far shorter.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """The build directory, relative to ROOT when it lies inside it."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    full = os.path.abspath(os.path.join(ROOT, base))
    if os.path.commonpath([full, ROOT]) != ROOT:
        full = os.path.join(ROOT, ".bench_build")
    return os.path.relpath(full, ROOT)


def local_env(out_dir):
    """The environment for every child: temporary files (the compiler's
    included) go under the build directory, not the system's."""
    tmp = os.path.join(ROOT, out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures (once) and builds perfbench and ppkd; returns both
    paths, relative to ROOT."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no ppk source tree next to perfbench/")
    env = local_env(out_dir)
    cmake_dir = os.path.join(out_dir, "perfbench-cmake")
    if not os.path.isfile(os.path.join(ROOT, cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                    "perfbench", "ppkd"], cwd=ROOT, env=env, check=True,
                   stdout=sys.stderr)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "ppkd"))


def git_rev():
    """HEAD of the checkout when it is a git repository, else "unknown"
    (never a repository above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        bench, daemon = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    # Short: the daemon's AF_UNIX socket path lives under it (108 bytes).
    run_dir = os.path.join(
        out_dir, "runs",
        f"{args.workload}-{os.getpid()}-{int(time.time() * 1000)}")
    os.makedirs(os.path.join(ROOT, run_dir))
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--ppkd", daemon, "--git-rev", git_rev()]
    # Its own process group, so a daemon it spawned can never outlive it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=local_env(out_dir),
                            stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for entry in os.listdir(os.path.join(ROOT, run_dir)):
            if entry != "report.json":
                path = os.path.join(ROOT, run_dir, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)

    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    try:
        with open(os.path.join(ROOT, run_dir, "report.json")) as f:
            report = json.load(f)
        result = {key: report[key]
                  for key in ("correct", "attempted", "failed", "metrics")}
        machine = report["machine"]
    except (OSError, ValueError, KeyError):
        log("perfbench wrote no report")
        return 1
    print(json.dumps({"machine": machine}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
