#!/usr/bin/env python3
"""Builds the CEDR benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt-output]

Workloads: pattern_suite, relational_mix, supervised_net (see
perfbench/README.md). The engine library and the benchmark binary
(cedrbench) are compiled with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; later runs only rebuild what
changed. The binary's standard output is passed through: its last line
is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is
the binary's (0 only when every output check passed); a missing source
tree or a failed build exits nonzero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pattern_suite", "relational_mix", "supervised_net")
# A run must end within 180 s; keep headroom for process start-up.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds cedrbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "cedrbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    binary = os.path.join(out_dir, "cedrbench")
    if not os.path.isfile(binary):
        fail("build produced no cedrbench binary", 3)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="damage one output to prove the gate fails")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_output:
        cmd.append("--corrupt-output")
    sys.stdout.flush()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("cedrbench exceeded %d s" % RUN_TIMEOUT_S, 4)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    print("run.py: cedrbench finished in %.1f s with code %d"
          % (time.monotonic() - start, code), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
