#!/usr/bin/env python3
"""Pipeline benchmark of latency-shears: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (perfbench/CMakeLists.txt,
Release) into .bench_build/; later calls only re-check the build. Build output
goes to .bench_build/build.log, never to stdout. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ledger with --trace 1. A
traced run first repeats the same seed untraced, so it can print the tracing
overhead (traced minus untraced end-to-end figures); spans are written under
.bench_build/tmp/.

--selftest runs perfbench_selftest, which feeds every output check a genuine
and a corrupted output and exits non-zero if a check accepts a corruption.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("reproduce_270d", "serve_loopback", "plan_whatif", "ingest_recover")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "tmp")
# Beyond --seconds, a run sets up three times and finishes its last whole
# round: at most about 40 s on a 4-core machine.
TIMEOUT_MARGIN_S = 150


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    steps = [] if os.path.exists(cache) else [configure]
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                if step is configure and os.path.exists(cache):
                    os.remove(cache)  # a failed configure is retried whole
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed; see {log_path}")
    return BUILD_DIR


def run_binary(binary, args, timeout):
    """Runs the benchmark binary; returns (stdout lines, parsed result)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {timeout:g} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{' '.join(args)} exited with code {proc.returncode}", 1)
    return lines, json.loads(lines[-1])


def traced_e2e(lines):
    for line in lines:
        if line.startswith("traced-e2e "):
            return json.loads(line[len("traced-e2e "):])
    fail("traced run printed no traced-e2e line", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = build()
    if args.selftest:
        binary = os.path.join(build_dir, "perfbench_selftest")
        sys.exit(subprocess.run([binary, os.path.join(WORK_DIR, "selftest")],
                                timeout=TIMEOUT_MARGIN_S).returncode)

    binary = os.path.join(build_dir, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work-dir", WORK_DIR]
    timeout = args.seconds + TIMEOUT_MARGIN_S
    if args.trace == 0:
        lines, _ = run_binary(binary, common + ["--trace", "0"], timeout)
        print("\n".join(lines))
        return

    # The tracing overhead: the same seed untraced, then traced.
    _, plain = run_binary(binary, common + ["--trace", "0"], timeout)
    lines, traced = run_binary(binary, common + ["--trace", "1"], timeout)
    print("\n".join(lines[:-1]))
    print("tracing overhead (traced vs untraced end-to-end, same seed):")
    for name, metric in traced_e2e(lines).items():
        base = plain["metrics"][name]["value"]
        value = metric["value"]
        share = (value - base) / base * 100.0 if base else 0.0
        print(f"  {name}: {value:.6g} vs {base:.6g} {metric['unit']} "
              f"({share:+.1f}%)")
    result = dict(traced)
    result["correct"] = plain["correct"] and traced["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
