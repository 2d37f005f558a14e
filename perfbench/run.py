#!/usr/bin/env python3
"""One command for the FCM benchmark: builds the harness, runs workloads,
checks their outputs and prints every metric by name with unit and sample count.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--selftest]

Run it from anywhere inside a checkout; it builds into .bench_build/ at the
checkout root and writes nothing outside the checkout. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where "metrics" holds the metrics BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1). Every measured
metric, the workload parameters and the provenance go to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

Exit status: 0 when every correctness gate passed, 1 when one failed (the
result line is still printed), 2 when the harness could not be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["dispersed_keys", "capture_bytes", "network_epochs"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
WORK = os.path.join(BUILD_ROOT, "work")
RESULTS = os.path.join(BUILD_ROOT, "results")
HOOK = os.path.join(ROOT, "perfbench", "perfbench.cmake")
RUN_TIMEOUT_S = 170
# Compiler and harness temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))


class HarnessError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise HarnessError("timed out: %s" % " ".join(command)) from error
    if done.returncode != 0:
        raise HarnessError("failed (%d): %s" % (done.returncode, " ".join(command)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise HarnessError("no CMakeLists.txt at %s: not a source checkout" % ROOT)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as text:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % ROOT not in text.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_INCLUDE=" + HOOK], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", "fcm_perfbench",
                "perfbench_selftest"], timeout=840)


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable"


def source_digest():
    """sha256 over every file of src/, the top-level build file and perfbench/."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths.extend(os.path.join(directory, name) for name in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as data:
            digest.update(data.read())
    return digest.hexdigest()


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as text:
        spec = json.load(text)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, args, provenance):
    command = [os.path.join(BUILD, "fcm_perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", os.path.join(WORK, workload)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=ENV, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise HarnessError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S)) from error
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise HarnessError("%s exited %d without a result" % (workload, done.returncode))
    result = json.loads(lines[-1])
    result["provenance"].update(provenance)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (workload, args.seed, args.trace))
    if result.get("spans_file"):
        shutil.move(result["spans_file"], stem + "-spans.jsonl")
        result["spans_file"] = os.path.relpath(stem + "-spans.jsonl", ROOT)
    shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1)
    return result


def print_summary(result):
    print("== %s  seed %d  %g s  trace %d: %s, %d of %d operations failed "
          "(ops_failed_ratio %.6g)" % (
              result["workload"], result["seed"], result["seconds"], result["trace"],
              "correct" if result["correct"] else "INCORRECT", result["failed"],
              result["attempted"], result["ops_failed_ratio"]))
    for failure in result["failures"]:
        print("   failed: %s" % failure)
    for name, metric in result["metrics"].items():
        print("   %-30s %14.6g %-6s  samples %-10d %s" % (
            name, metric["value"], metric["unit"], metric["samples"], metric["source"]))


def contract_metrics(result, declared, prefix=""):
    """The declared metrics of `result`; a missing one counts as a failure."""
    metrics = {}
    missing = 0
    for name, unit in declared:
        if name in result["metrics"]:
            metrics[prefix + name] = {"value": result["metrics"][name]["value"], "unit": unit}
        else:
            log("perfbench: %s did not report declared metric %s" % (result["workload"], name))
            missing += 1
    return metrics, missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests only")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        if args.selftest:
            return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], env=ENV).returncode
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        declared = declared_metrics(args.trace == 1)
        provenance = {"git_rev": git_rev(), "source_sha256": source_digest(),
                      "nproc": os.cpu_count()}
        os.makedirs(RESULTS, exist_ok=True)
        results = [run_workload(workload, args, provenance) for workload in workloads]
    except (HarnessError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 2

    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        print_summary(result)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        metrics, missing = contract_metrics(result, declared, prefix)
        line["metrics"].update(metrics)
        line["attempted"] += result["attempted"] + missing
        line["failed"] += result["failed"] + missing
        line["correct"] = line["correct"] and result["correct"] and missing == 0
    print("provenance: %s" % json.dumps(results[0]["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
