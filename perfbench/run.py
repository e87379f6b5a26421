#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a dprle source tree:

    python3 perfbench/run.py --workload scan|wire|secure --seed N \\
        --seconds S --trace 0|1

The build goes to _build/ in the tree, with dune's shared cache off so
nothing is written outside it. The last line of standard output is
the result object; the build output and the run log go to standard
error. Exits non-zero, printing no result, when the tree, the build or
the run fails.
"""

import os
import shutil
import subprocess
import sys


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: %s holds no dprle source tree "
              "(dune-project and lib/ are missing)" % root, file=sys.stderr)
        return 2
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", root, "--display", "quiet",
                "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + argv, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
