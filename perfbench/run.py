#!/usr/bin/env python3
"""Build the ARC engine and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to _build/ (release profile,
dune cache off, so nothing is written outside the tree); its output goes to
standard error. The benchmark's own last line of standard output is the
JSON result. Exits non-zero, without a result, when the build fails --
for instance when the engine's sources are not next to the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--cache", "disabled", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    # exec, so the benchmark replaces this process instead of running as
    # a child that could outlive it
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
