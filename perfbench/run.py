#!/usr/bin/env python3
"""Builds and runs the FalVolt end-to-end figure benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload mnist_fig5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check --seed 1          # determinism probe
    python3 perfbench/run.py --record-reference 0-63        # rewrite reference.txt

The benchmark binary is built from source with cargo (offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. Worker threads are
pinned to min(nproc, 2) through RAYON_NUM_THREADS. The last line of standard
output of a measuring run is the JSON result object.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["mnist_fig5", "mnist_fig7", "dvs_fig5b"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 1800
MAX_THREADS = 2


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(REPO, "crates", "core", "Cargo.toml")):
        fail("the FalVolt crates are not next to perfbench/; run from a full checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(REPO, ".bench_build"))
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "release", "falvolt-perfbench")


def run_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env["RAYON_NUM_THREADS"] = str(max(1, min(nproc or 1, MAX_THREADS)))
    env["FALVOLT_COMMIT"] = commit()
    return env


def run(binary, args, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; on a timeout or a termination signal the
    child is killed and waited for before this script exits."""
    child = subprocess.Popen(
        [binary] + args, env=run_env(),
        stdout=subprocess.PIPE if capture else None, text=True,
    )

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"benchmark did not finish within {timeout} s", 3)
    return subprocess.CompletedProcess(child.args, child.returncode, stdout)


def record_reference(binary, seeds):
    first, _, last = seeds.partition("-")
    lines = []
    for workload in WORKLOADS:
        done = run(binary, ["--record-reference", "--workload", workload,
                            "--seed", first, "--last-seed", last or first],
                   capture=True, timeout=RECORD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stdout.write(done.stdout)
            fail(f"{workload}: a recorded repetition fails the gate; nothing written")
        lines += [l for l in done.stdout.splitlines() if l.startswith(workload + " ")]
        print(f"recorded {workload}", flush=True)
    with open(os.path.join(HERE, "reference.txt"), "w") as fh:
        fh.write("# workload seed, then the cell accuracies of figure repetition 0 in plan\n")
        fh.write("# order. Written by `python3 perfbench/run.py --record-reference "
                 f"{seeds}`.\n")
        fh.write("\n".join(lines) + "\n")


def main():
    args = sys.argv[1:]
    binary = build()
    if args[:1] == ["--record-reference"] and len(args) == 2:
        record_reference(binary, args[1])
        return 0
    return run(binary, args).returncode


if __name__ == "__main__":
    sys.exit(main())
