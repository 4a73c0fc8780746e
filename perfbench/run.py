#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload overload_burst|churn_1m|app_reconfig \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the FlowValve libraries
from src/) into .bench_build/perfbench with an optimized build, then runs
fvbench with the same arguments. Build output goes to stderr; the last line
of stdout is fvbench's JSON result. With --trace 1 the raw spans of the
first traced run are written to .bench_build/traces/. The exit code is
fvbench's, or 2 if the build fails.
"""
import os
import subprocess
import sys

BUILD_TYPE = "Release"


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no FlowValve sources under %s/src" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build, "--target", "fvbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2

    args = list(argv)

    def value(flag, default):
        i = args.index(flag) if flag in args else -1
        return args[i + 1] if 0 <= i < len(args) - 1 else default

    if value("--trace", "0") == "1":
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s_seed%s.csv" % (value("--workload", "run"), value("--seed", "1"))
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "fvbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
