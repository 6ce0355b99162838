#!/usr/bin/env python3
"""LEAD benchmark: builds leadbench from source and runs one workload.

Run from the root of a checkout:

  python3 leadbench/run.py --workload detect_mixed --seed 1 --seconds 10 --trace 0
  python3 leadbench/run.py --self-test

The build goes to .bench_build/cmake: the repository's root CMakeLists.txt
configured with leadbench/hook.cmake, which adds the leadbench target, in
Release mode. Each run appends a provenance record (commit, dirty flag,
source hash, nproc, CPU model, compiler, build type, threads, seed and an
input summary) to .bench_build/leadbench/records.jsonl, prints it as a
"record" line, and prints the result JSON object as the last line. The
exit code is non-zero when the build fails, an operation fails or an
output check fails.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "leadbench")
# Lanes every library call gets. One: on the reference host, a shared
# 4-core virtual machine, calls with 2 or 4 lanes wait on cores the host
# has lent elsewhere (steal time), which moved p99 by up to 70 % between
# runs of the same inputs; with one lane it moved by under 10 %.
THREADS = 1
# Lanes of the traced run's thread-pool measurement: the reference host's
# core count, capped at nproc.
POOL_LANES = 4
# One run must end within 180 s; the build has its own, longer limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"{needed} not found in {ROOT}: the benchmark "
                               "builds the library from this checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(BENCH_DIR, "hook.cmake")],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(POOL_LANES, nproc())),
         "--target", *targets],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, targets[0])


def git(*args):
    """Runs git in the checkout; None outside a git checkout (git would
    otherwise search the parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, *args], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_hash():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "leadbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_hash(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
    }


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one leadbench process; returns (exit code, metric lines,
    record, result)."""
    scratch = os.path.join(OUT_DIR, workload)
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--threads", str(min(THREADS, nproc())),
               "--pool-lanes", str(min(POOL_LANES, nproc())),
               "--scratch-dir", scratch] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"leadbench {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None, None
    lines = []
    record = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            lines.append(line)
        elif line.startswith("record "):
            record = json.loads(line[len("record "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, lines, record, result


def main_run(args):
    binary = build(["leadbench"])
    code, lines, record, result = run_workload(binary, args.workload,
                                               args.seed, args.seconds,
                                               args.trace)
    if record is None or result is None:
        log("leadbench printed no result")
        return code or 1
    record.update(provenance())
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("\n".join(lines))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return code


# ---- Self-test ------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(spec, failures):
    """The structural rules BENCHMARK.json must meet."""
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        failures.append(f"BENCHMARK.json keys {sorted(spec)}")
        return
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            failures.append(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            failures.append(f"end_to_end entry {m}")
        elif not 0 < m["bound"] <= 0.25:
            failures.append(f"bound of {m['name']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            failures.append(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m.get("unit", "")) or m.get("better") not in (
                "higher", "lower"):
            failures.append(f"unit or better of {m['name']}")
    for name in names:
        if not NAME.match(name) or names.count(name) > 1:
            failures.append(f"name {name!r} is malformed or repeated")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        failures.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        failures.append("setup_s does not have the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        failures.append("workload count or run_seconds out of range")


def self_test():
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec, failures)
    with open(os.path.join(BENCH_DIR, "README.md")) as f:
        readme = f.read()
    for m in spec["end_to_end"] + spec["per_layer"]:
        if f"`{m['name']}`" not in readme:
            failures.append(f"README.md does not explain {m['name']}")

    # The benchmark's sources pass the repository's linter.
    build(["lead_lint", "leadbench"])
    lint = subprocess.run([os.path.join(BUILD_DIR, "tools", "lead_lint"),
                           "--report-allows", BENCH_DIR],
                          capture_output=True, text=True)
    if lint.returncode != 0:
        failures.append("lead_lint: " + lint.stdout.strip())

    # Every workload once untraced and once traced, on tiny inputs: every
    # metric printed, with BENCHMARK.json's unit.
    binary = os.path.join(BUILD_DIR, "leadbench")
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, _, record, result = run_workload(binary, w["name"], 1, 1,
                                                   trace, smoke=True)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or result is None or record is None:
                failures.append(f"{where}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(want.items()) ^ set(got.items()))}")
            if not all(math.isfinite(v["value"])
                       for v in result["metrics"].values()):
                failures.append(f"{where}: non-finite metric")

    # Without the repository around it the benchmark must fail cleanly.
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "leadbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "leadbench/run.py", "--workload", "train", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run in a directory without the repository did not "
                        "fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        log("self-test: " + failure)
    print("self-test " + ("passed" if not failures else
                          f"failed ({len(failures)} problems)"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("detect_mixed", "detect_dense", "train"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return main_run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"leadbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
