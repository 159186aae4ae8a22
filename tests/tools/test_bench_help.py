#!/usr/bin/env python3
"""Every bench answers --help.

Runs each bench binary given on the command line with --help under a
per-binary timeout and requires exit status 0 and usage text on stdout:
--help must print usage and stop, never run (or reject) the bench.

Usage: test_bench_help.py BENCH_BINARY...

Exit status: 0 when every binary passes, 1 otherwise (each failure printed).
Stdlib only.
"""

import subprocess
import sys

TIMEOUT_S = 10


def check(binary):
    try:
        done = subprocess.run([binary, "--help"], capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"{binary}: --help still running after {TIMEOUT_S} s"
    if done.returncode != 0:
        return f"{binary}: --help exited {done.returncode}"
    if not done.stdout.strip():
        return f"{binary}: --help printed nothing on stdout"
    return None


def main(binaries):
    if not binaries:
        print("usage: test_bench_help.py BENCH_BINARY...", file=sys.stderr)
        return 2
    failures = [f for f in map(check, binaries) if f]
    for failure in failures:
        print(failure)
    print(f"{len(binaries) - len(failures)}/{len(binaries)} benches answer --help")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
