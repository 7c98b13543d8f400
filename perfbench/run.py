#!/usr/bin/env python3
"""Builds and runs the cachedse benchmark.

    python3 perfbench/run.py --workload big_synth|paper_suite|daemon_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. The first call builds perfbench/ (the
library sources under src/ plus cachedse-server and the cesbench program)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only rebuild what changed. Build output goes
to stderr. The stdout of cesbench is passed through, so the last line is
the JSON result. Inputs, the daemon's socket and spill files live under
.bench_run/ while a run lasts; results (ces-bench-v1) and span logs stay in
.bench_run/results/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    sources = [os.path.join(ROOT, "src"),
               os.path.join(ROOT, "tools", "cachedse_server.cpp")]
    missing = [path for path in sources if not os.path.exists(path)]
    if missing:
        sys.exit("run.py: missing repository sources: " + ", ".join(missing))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["big_synth", "paper_suite", "daemon_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)

    command = [os.path.join(out_dir, "cesbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(out_dir, "cachedse-server")]
    if args.smoke:
        command.append("--smoke")
    # cesbench works under .bench_run/ of its working directory; relative
    # paths keep the daemon's unix socket path short.
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
