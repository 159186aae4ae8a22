#!/usr/bin/env python3
"""Build and run the netcons repository benchmark: one workload, one seed.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1 | --traced]
       python3 perfbench/run.py --help

Run it from the repository root. S defaults to BENCHMARK.json's
run_seconds, N to 1. The first run configures and builds
libnetcons and the driver into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. Build output
goes to stderr. Stdout carries the driver's table and, as its last line,
the JSON result {"correct", "attempted", "failed", "metrics"}. Traced runs
also write their spans to <build dir>/traces/<workload>-seed<N>.json.

workloads:
  large-n       census Cycle-Cover + Global-Star at n = 2^14
  paper-sweep   5 protocols x {uniform, proximity} x n in {128, 256, 512}
                on census, plus a naive leg at n = 64; records, merge, report
  serve-mixed   the in-process HTTP serving stack: cache hits beside cold
                submits

Exit status: the driver's (0 = every check passed, 1 = a check failed),
2 on bad arguments, 3 when the build fails. --help never builds or runs.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("large-n", "paper-sweep", "serve-mixed")
FLAGS_WITH_VALUE = ("--workload", "--seed", "--seconds", "--trace")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build(targets=("perfbench_driver",)):
    """Configure (once) and build `targets`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    return out


def run_seconds():
    """BENCHMARK.json's run_seconds, the default length of a run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return str(json.load(handle)["run_seconds"])


def parse(argv):
    """Returns (options dict, error message or None)."""
    options = {"--seed": "1", "--trace": "0"}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--help", "-h"):
            options["help"] = True
        elif arg == "--traced":
            options["--trace"] = "1"
        elif arg in FLAGS_WITH_VALUE:
            if i + 1 >= len(argv):
                return options, f"{arg} needs a value"
            options[arg] = argv[i + 1]
            i += 1
        else:
            return options, f"unknown argument '{arg}'"
        i += 1
    return options, None


def main(argv):
    options, error = parse(argv)
    if options.get("help"):
        print(__doc__.strip())
        return 0
    if error:
        print(f"run.py: {error} (see --help)", file=sys.stderr)
        return 2
    workload = options.get("--workload")
    if workload not in WORKLOADS:
        what = f"unknown workload '{workload}'" if workload else "--workload is required"
        print(f"run.py: {what}; valid workloads: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    options.setdefault("--seconds", run_seconds())
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as failure:
        print(f"run.py: the benchmark did not build ({failure})", file=sys.stderr)
        return 3
    command = [os.path.join(out, "perfbench_driver")]
    for flag in FLAGS_WITH_VALUE:
        command += [flag, options[flag]]
    command += ["--work", os.path.join(out, f"run-{os.getpid()}"),
                "--trace-out",
                os.path.join(out, "traces", f"{workload}-seed{options['--seed']}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
