#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--self-test]

Run from the root of a checkout.  The benchmark executable is built
with dune (release profile, build cache off, so nothing is written
outside the checkout) and then run with the same arguments; its last
line of standard output is the JSON result.  Exits 2 without a result
when the checkout lacks the library sources the benchmark builds
against.

The benchmark process runs with glibc's malloc told to keep what it
frees: no trimming of the heap top, and no mmap below 32 MiB, the most
glibc accepts.  The OCaml runtime allocates every array above 128 words
with malloc, and one transient-record job allocates about 75 MB of
them.  Without these settings each job hands that memory back to the
kernel and faults it in again, zero-filled, in the next job (about
20 000 page faults per job); on a virtual machine the cost of those
faults follows the host's load, not the program.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# glibc malloc: keep freed memory mapped between jobs (see above)
MALLOC_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}


def main():
    missing = [p for p in ("dune-project", "lib") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              env=dict(env, **MALLOC_ENV),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
