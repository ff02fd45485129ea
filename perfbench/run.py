#!/usr/bin/env python3
"""Build and run the Daric end-to-end benchmark.

    python3 perfbench/run.py --workload update_hub --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the library from this checkout's src/ plus the benchmark program in perfbench/
(RelWithDebInfo, under $CARGO_TARGET_DIR or .bench_build), prints a
provenance line, then runs the program with the given arguments. Its
last stdout line is the JSON result, and its exit status is passed on
(0 = every output check passed).
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
# Seed never used while the benchmark or a change was tuned: a claimed gain
# must also hold on it.
HELD_OUT_SEED = 7919


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", build_dir, "--parallel", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "daric_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main(argv):
    binary = build()
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv[:-1] else "1"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    provenance = {"nproc": nproc, "cpu_model": cpu_model(), "source_sha256": source_digest(),
                  "git_commit": git_commit(), "seed": seed, "held_out_seed": HELD_OUT_SEED}
    print("provenance " + json.dumps(provenance), flush=True)
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
