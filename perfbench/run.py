#!/usr/bin/env python3
"""Run one workload of the Erms benchmark and print its result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the benchmark package (perfbench/CMakeLists.txt, which
compiles the program from src/) into .bench_build, runs the harness once
for the named workload, checks its outputs, and prints:

  * a table of every metric with its unit and sample count,
  * one provenance line (git sha and dirty flag, nproc, compiler, build
    type, runner workers, shard count, seed and arguments),
  * as the last line, one JSON object with exactly the keys
    correct, attempted, failed and metrics.

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Any failed check makes the script
exit nonzero. Full results, spans and fingerprints are written under
.bench_results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_quiet(cmd, timeout):
    """Run a command with its output sent to stderr; True on exit 0."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/ is missing: the benchmark builds the program from source")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], 600):
            return False
    return run_quiet(["cmake", "--build", BUILD, "-j", str(nproc()),
                      "--target", "erms_perfbench", "perfbench_tests"], 850)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if lines else ""


def provenance(args, facts):
    sha = first_line(["git", "rev-parse", "HEAD"]) if shutil.which("git") else None
    dirty = None
    if sha:
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        dirty = bool(status.stdout.strip())
    compiler = cache_value("CMAKE_CXX_COMPILER")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": dirty,
        "nproc": nproc(),
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"]) or "unknown",
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "runner_workers": int(facts.get("workers", 1)),
        "shards": int(facts.get("shards", 1)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_fingerprint(key, fingerprint):
    """Untraced runs of one seed by one binary must reproduce the recorded
    fingerprint. The key names the binary's hash, so a rebuilt program
    that legitimately changes the simulation starts a record of its own."""
    path = os.path.join(RESULTS, "fingerprints.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = fingerprint
        with open(path, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        return True
    return previous == fingerprint


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose one of {names}")
        return 2
    if args.seed < 0 or not args.seconds > 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    if not build():
        log("build failed")
        return 1
    binary = os.path.join(BUILD, "erms_perfbench")
    os.makedirs(RESULTS, exist_ok=True)

    checks = [("benchmark self-tests pass",
               run_quiet([os.path.join(BUILD, "perfbench_tests"),
                          "--gtest_brief=1"], 120))]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, tag + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"erms_perfbench exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    checks += [(c["name"], c["ok"]) for c in raw["checks"]]
    if not args.trace:
        key = f"{args.workload}/{args.seed}/{file_sha256(binary)[:16]}"
        checks.append(("fingerprint matches earlier untraced runs of this "
                       "seed and binary",
                       check_fingerprint(key, raw["facts"]["fingerprint"])))

    wanted = spec["end_to_end"] if not args.trace else spec["per_layer"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            # The workload does not exercise this layer.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        value = got["value"]
        ok = value is not None and math.isfinite(value) and got["unit"] == m["unit"]
        if not args.trace:
            ok = ok and value != 0
        if not ok:
            checks.append((f"metric {m['name']} is finite, nonzero and in {m['unit']}",
                           False))
        metrics[m["name"]] = {"value": value, "unit": m["unit"],
                              "samples": got["samples"]}

    prov = provenance(args, raw["facts"])
    correct = all(ok for _, ok in checks)
    record = {"provenance": prov, "checks": [{"name": n, "ok": ok} for n, ok in checks],
              "facts": raw["facts"], "metrics": raw["metrics"]}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"{'metric':34} {'value':>16} {'unit':>7} {'samples':>8}")
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:16.6g} {m['unit']:>7} {m['samples']:8d}")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
