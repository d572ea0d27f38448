#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Each call configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the benchmark binary in
perfbench/src) into .bench_build/: in full the first time, incrementally
after that. The
benchmark binary's standard output is passed through, so its last line is the result
object {"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. The exit status is the binary's: 0 when every output check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("prequential-rbmim", "serve-keyed", "ingest-checkpoint")
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; exits 1 when either step fails."""
    tree = os.path.join(BUILD, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", tree, "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            log("perfbench: cannot run %s: %s" % (cmd[0], e))
            sys.exit(1)
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(1)


def source_id():
    """The git commit, or a digest of the sources when not in a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_bench(args, timeout=RUN_TIMEOUT_S, capture=False):
    """Runs the benchmark binary; returns (exit status, stdout text or None)."""
    proc = subprocess.Popen([BINARY] + args,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: benchmark binary exceeded %d s" % timeout)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def workload_args(workload, seed, seconds, trace, digests):
    out = os.path.join(BUILD, "out", workload)
    shutil.rmtree(out, ignore_errors=True)
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out, "--digests", digests,
            "--git-commit", source_id()]


def self_test():
    """The binary's own logic checks, then a tiny prequential run twice: with
    the pinned digests it must pass, with a tampered copy it must fail."""
    status, _ = run_bench(["--self-test"])
    if status != 0:
        log("self-test: logic checks failed")
        return 1
    tampered = os.path.join(BUILD, "selftest-digests.json")
    with open(DIGESTS) as f:
        pinned = json.load(f)
    # Flip the last hex digit of every pinned digest.
    flipped = {key: value[:-1] + ("1" if value.endswith("0") else "0")
               for key, value in pinned.items()}
    with open(tampered, "w") as f:
        json.dump(flipped, f, indent=2)
    checks = [(DIGESTS, 0, "pinned digests"), (tampered, 1, "tampered digests")]
    for digests, want, what in checks:
        status, out = run_bench(workload_args("prequential-rbmim", 1, 1, 0, digests),
                                 capture=True)
        last = out.strip().splitlines()[-1] if out and out.strip() else ""
        if status != want or ('"correct": true' in last) != (want == 0):
            log("self-test: run with %s exited %d (want %d): %s" % (what, status, want, last))
            return 1
        log("self-test: run with %s exited %d as expected" % (what, status))
    log("self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    status, _ = run_bench(workload_args(args.workload, args.seed, args.seconds, args.trace,
                                         DIGESTS))
    return status


if __name__ == "__main__":
    sys.exit(main())
