#!/usr/bin/env python3
"""End-to-end benchmark driver for asim (see e2ebench/README.md).

Builds the simulator and the measuring program from the checkout's
sources (CMake, Release, into $CARGO_TARGET_DIR or .bench_build), then
runs one workload and relays its report. The last line of standard
output is the result object {"correct", "attempted", "failed",
"metrics"}; build output goes to standard error.

Usage, from the checkout root:
    python3 e2ebench/run.py --workload large-vm --seed 1 --seconds 14 \\
        --trace 0
    python3 e2ebench/run.py --selftest

Workloads: large-vm, large-lanes4, serve-mixed, native-step.

--selftest checks the benchmark itself: the same seed must produce
byte-identical inputs (spec text and operation streams) and another
seed different ones, and on every workload a corrupted recorded reply
must surface as failed operations.

Exit status: 0 with a result line; 3 when the workload is skipped
(native-step without a host C++ compiler); anything else is an error
and prints no result line.
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
WORKLOADS = ["large-vm", "large-lanes4", "serve-mixed", "native-step"]
# Whole-invocation budget; the first run in a checkout also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")


def build():
    """Configure (once) and build; returns the two program paths."""
    for need in ("CMakeLists.txt", "src", "specs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no simulator sources to build: {need} is missing "
                 f"from {ROOT}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build_dir = os.path.join(target_dir(), "e2ebench")
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "asim-e2ebench", "asim-serve"], deadline)
    return (os.path.join(build_dir, "asim-e2ebench"),
            os.path.join(build_dir, "asim", "asim-serve"))


def run_build(cmd, deadline):
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(1, deadline - time.monotonic()))
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_group(cmd, timeout):
    """Run `cmd` in its own process group (the daemon and simulator
    children join it); on timeout kill the whole group and reap it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # Nothing the measuring program started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def harness_args(bench, serve, workload, seed, seconds, trace):
    work = os.path.relpath(os.path.join(target_dir(), "e2ebench-run"),
                           ROOT)
    if len(work) > 70:
        fail(f"work directory path too long for a Unix socket: {work}")
    return [bench, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--serve-bin", serve, "--specs-dir",
            os.path.join(ROOT, "specs"), "--work-dir", work,
            "--commit", commit()]


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def bench_main(args):
    start = time.monotonic()
    bench, serve = build()
    budget = RUN_BUDGET_S - min(RUN_BUDGET_S - 30,
                                time.monotonic() - start)
    try:
        code, out = run_group(
            harness_args(bench, serve, args.workload, args.seed,
                         args.seconds, args.trace), budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget:.0f} s", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 3:
        sys.exit(3)
    if code != 0 or last_json(out) is None:
        fail(f"measuring program exited {code} without a result", 1)
    return 0


def selftest():
    bench, serve = build()
    work = os.path.join(target_dir(), "e2ebench-selftest")
    os.makedirs(work, exist_ok=True)
    ok = True

    def dump(workload, seed):
        path = os.path.join(work, f"{workload}-{seed}.txt")
        subprocess.run([bench, "--dump-inputs", path, "--workload",
                        workload, "--seed", str(seed), "--specs-dir",
                        os.path.join(ROOT, "specs")], cwd=ROOT,
                       check=True, timeout=120)
        with open(path, "rb") as f:
            return f.read()

    for w in WORKLOADS:
        a, b, c = dump(w, 11), dump(w, 11), dump(w, 12)
        same, differ = a == b, a != c
        ok = ok and same and differ
        print(f"determinism {w}: same seed identical={same}, "
              f"other seed differs={differ} ({len(a)} bytes)")

    for w in WORKLOADS:
        cmd = harness_args(bench, serve, w, 5, 1, 0) + ["--corrupt-reply"]
        code, out = run_group(cmd, RUN_BUDGET_S)
        if code == 3:
            print(f"corruption {w}: skipped (no host compiler)")
            continue
        res = last_json(out) or {}
        caught = (code == 0 and res.get("failed", 0) > 0
                  and res.get("correct") is False)
        ok = ok and caught
        print(f"corruption {w}: failed={res.get('failed')} of "
              f"{res.get('attempted')}, correct={res.get('correct')} "
              f"-> {'caught' if caught else 'MISSED'}")
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
