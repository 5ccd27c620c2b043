#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-reg --seed 1 --seconds 25 --trace 0

The build goes to .bench_build/dune (release profile).  Everything after
the script name is passed to perfbench.exe, whose last line of standard
output is the JSON result.  Exits non-zero, printing no result, when the
repository sources are missing or the build fails.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
TARGET = "./perfbench/perfbench.exe"


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "perfbench.ml")):
        if not os.path.exists(needed):
            sys.stderr.write("perfbench: %s not found; run from the repository root\n" % needed)
            return 2
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
