#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload read-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/CMakeLists.txt (against the
library headers in src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed. The benchmark's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is non-zero when any op
failed or a check did not hold.

--smoke runs every workload, untraced and traced, on shrunken inputs and
checks that each metric named in BENCHMARK.json appears with its unit and
that no op failed. It is the benchmark's own test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["read-large", "update-small", "scan-sharded"]
RUN_TIMEOUT_S = 170
# End-to-end metrics printed (by name, with unit) only where a workload
# defines them; the JSON result carries the ones every workload defines.
DEFINED_ONLY_WHERE = {
    "read-large": ["find_p50_ns", "find_p99_ns", "error_rate"],
    "update-small": ["error_rate"],
    "scan-sharded": ["find_p50_ns", "find_p99_ns", "scan_p50_ns",
                     "scan_p99_ns", "multi_get_p50_ns", "multi_get_p99_ns",
                     "error_rate"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Returns the binary path, or None when the build is impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "efrb_tree.hpp")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return None
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if subprocess.run(["cmake", "--build", out, "--parallel", "2"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, echo=True):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 124, []
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def printed_metrics(lines):
    """name -> (value, unit), from the 'metric <name> <value> <unit>' lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = (float(parts[2]), parts[3])
    return found


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"], echo=False)
            where = "%s --trace %d" % (workload, trace)
            res = result_of(lines)
            if code != 0 or res is None:
                problems.append("%s: exit %d, result %r" % (where, code, res))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: %d failed ops" % (where, res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, expected %s" %
                                (where, sorted(got.items()),
                                 sorted(want.items())))
            printed = printed_metrics(lines)
            for name, unit in want.items():
                if printed.get(name, (0, None))[1] != unit:
                    problems.append("%s: %s not printed with unit %s" %
                                    (where, name, unit))
            if trace == 0:
                for name in DEFINED_ONLY_WHERE[workload]:
                    if name not in printed:
                        problems.append("%s: %s not printed" % (where, name))
                if printed.get("error_rate", (1, ""))[0] != 0:
                    problems.append("%s: error_rate is not 0" % where)
            log("smoke %-28s %s" % (where, "ok" if not problems else "..."))
    for p in problems:
        log("smoke FAIL " + p)
    print("smoke: %s (%d runs)" % ("ok" if not problems else "FAILED",
                                   2 * len(WORKLOADS)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t0))
    if args.smoke:
        return smoke(binary)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        cmd = ["--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            cmd += ["--trace-out", os.path.join(
                build_dir(), "spans-%s-seed%d.json" % (name, args.seed))]
        code, lines = run_binary(binary, cmd)
        res = result_of(lines)
        if code != 0 or res is None:
            worst = worst or code or 1
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    if len(names) > 1:
        print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
