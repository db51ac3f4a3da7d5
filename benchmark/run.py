#!/usr/bin/env python3
"""Build the Treasury benchmark from source and run it.

    python3 benchmark/run.py [zofs_bench options...]

Run from the root of a source checkout.  Builds benchmark/zofs_bench.exe
with dune (the shared dune cache off, so the build writes nothing outside
the checkout), then runs it with the given options and passes its output
and exit code through.  The benchmark's last line of standard output is
one JSON result object; see benchmark/README.md.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; a first build in a fresh checkout
RUN_TIMEOUT = 170  # seconds


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("benchmark", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"no {need} here: run from the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "benchmark/zofs_bench.exe"],
        BUILD_TIMEOUT, env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")
    exe = os.path.join(root, "_build", "default", "benchmark", "zofs_bench.exe")
    sys.exit(run([exe] + sys.argv[1:], RUN_TIMEOUT, env))


if __name__ == "__main__":
    main()
