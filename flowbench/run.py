#!/usr/bin/env python3
"""Builds and runs the OpenVM1 flow benchmark.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
OpenVM1 library, vm1_worker and the flowbench driver (Release) into
$CARGO_TARGET_DIR/flowbench (default .bench_build/flowbench); later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit status is the driver's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "flowbench"))


def build(out, env):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "flowbench",
                  "vm1_worker", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(out, "flowbench")


def main():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("flowbench: the OpenVM1 sources (src/) are not next to "
              "flowbench/; run from a full checkout", file=sys.stderr)
        return 2
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(out, env)
    if exe is None:
        print("flowbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--workdir", os.path.join(out, "work")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
