#!/usr/bin/env python3
"""Build the core bench suite and run one of its workloads.

Run from the repository root:

    python3 corebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built from source with dune (build output goes to
stderr), then replaces this process, so the last line of standard output
is the JSON result of corebench/main.exe.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "corebench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("corebench: run from the repository root; "
                         "dune-project or lib/ is missing\n")
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("corebench: dune is not on PATH\n")
        return 2
    # The shared dune cache lives outside the checkout; keep the build in it.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./corebench/main.exe"],
        stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.stderr.write("corebench: build failed\n")
        return 1
    sys.stdout.flush()
    os.execv(EXE, [EXE, "run"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
