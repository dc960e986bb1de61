#!/usr/bin/env python3
"""Build the benchmark client from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The client is built with cargo (offline, release) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset. Its standard output is passed
through; the last line is the JSON result. A traced run also writes its
spans to `<target dir>/perfbench-trace/<workload>.tsv`. The exit code is
the client's, or 2 when the build fails and 3 when the client times out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the client's own budget is the run length
# plus setup and checks, far below this.
CLIENT_TIMEOUT_S = 170


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2
    client = os.path.join(target, "release", "domus-perfbench")
    args = list(argv)
    workload = arg_value(argv, "--workload")
    if arg_value(argv, "--trace") == "1" and workload:
        args += ["--trace-out", os.path.join(target, "perfbench-trace", workload + ".tsv")]
    try:
        return subprocess.run([client] + args, cwd=ROOT, timeout=CLIENT_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark client timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
