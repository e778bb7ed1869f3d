#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (and the lotus library it links) under .bench_build/,
runs one workload for S seconds of wall clock, validates its outputs and
prints one "name value unit" line per metric followed, as the last line of
stdout, by one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics. Exits 0 only when every output check
passed; exits non-zero without a result when the build or the run fails.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["perfbench", "perfbench_traced", "perfbench_selftest"]
RUN_DEADLINE_S = 170.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build of the benchmark targets."""
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "check_trace_json.py")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no lotus source tree around the benchmark (missing %s)" % need)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target"] + TARGETS + ["-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def library_hash():
    """Identity of the library under test, keying the digest cache."""
    libs = glob.glob(os.path.join(BUILD, "lotus", "liblotus.a"))
    if not libs:
        return None
    h = hashlib.sha256()
    with open(libs[0], "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_telemetry(out_dir):
    """Validate health.json / rollup.json with the repository's checker."""
    files = sorted(glob.glob(os.path.join(out_dir, "telemetry", "**", "health.json"), recursive=True)
                   + glob.glob(os.path.join(out_dir, "telemetry", "**", "rollup.json"), recursive=True))
    if not files:
        return ["no health.json/rollup.json written"]
    checker = os.path.join(ROOT, "tools", "check_trace_json.py")
    proc = subprocess.run([sys.executable, checker] + files, capture_output=True, text=True)
    if proc.returncode != 0:
        return ["check_trace_json.py: " + (proc.stdout + proc.stderr).strip()[-400:]]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the traced run's governor decorator is transparent")
    args = ap.parse_args()

    for var in ("LOTUS_BENCH_FAST", "LOTUS_BENCH_JOBS"):
        if var in os.environ:
            fail("%s is set; the benchmark fixes workload sizes and the job count "
                 "itself, so the run would measure a different program. Unset it." % var,
                 code=2)
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None or args.seconds <= 0):
        ap.error("--workload, --seed and a positive --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not args.self_test and args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)

    started = time.monotonic()
    out_dir = os.path.join(BUILD, "out-%s-%d" % (args.workload, os.getpid()))
    binary = os.path.join(BUILD, "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out_dir] + (["--trace"] if args.trace else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out_dir, ignore_errors=True)
        fail("run exceeded %.0f s" % RUN_DEADLINE_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        shutil.rmtree(out_dir, ignore_errors=True)
        fail("run produced no result (exit %d)" % proc.returncode)

    problems = list(result["problems"])
    failed = result["failed"]
    if args.workload == "fleet_telemetry" and not problems:
        more = check_telemetry(out_dir)
        problems += more
        failed += len(more)
    shutil.rmtree(out_dir, ignore_errors=True)

    # Untraced and traced runs at one seed, against one library build, must
    # render the same scenario document.
    lib = library_hash()
    if lib and not problems:
        cache = os.path.join(BUILD, "digests", "%s-%s-%d" % (lib, args.workload, args.seed))
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        if os.path.exists(cache):
            with open(cache) as f:
                seen = f.read().strip()
            if seen != result["digest"]:
                problems.append("scenario_json digest %s differs from %s of an earlier run "
                                "at this seed" % (result["digest"], seen))
                failed = result["attempted"]
        else:
            with open(cache, "w") as f:
                f.write(result["digest"] + "\n")

    metrics = {}
    prof_compiled = result["stamp"]["prof_compiled"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if args.trace and not prof_compiled:
                continue  # prof-derived: absent, never zero, without the profiler
            problems.append("metric %s missing" % m["name"])
            failed = result["attempted"]
            continue
        if got["unit"] != m["unit"]:
            problems.append("metric %s in %s, expected %s" % (m["name"], got["unit"], m["unit"]))
            failed = result["attempted"]
        metrics[m["name"]] = got

    for line in lines[:-1]:
        print(line)
    for p in problems[len(result["problems"]):]:
        print("problem: " + p)
    print("digest %s, %.1f s" % (result["digest"], time.monotonic() - started))
    correct = failed == 0 and not problems and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
