#!/usr/bin/env python3
"""Behaviour fingerprint of the simulator CLIs and the paper driver.

Runs a fixed list of lotus_run / lotus_serve / lotus_sweep / lotus_trace
invocations, plus bench_paper (every figure and table of the paper), in
fast mode (LOTUS_BENCH_FAST=1) inside one scratch directory, and digests,
per invocation, its exit code, stdout, stderr and every file it wrote.
The digests are pinned in PINNED below, so a front-end refactor that
changes any output byte, exit code or error message fails this gate and
names the invocation.

The fingerprint is host-independent:
  * every invocation whose status line prints a job count passes --jobs;
  * the build stamp is stripped: JSON "build" fields, and the `build:`
    line of `lotus_trace info`;
  * .ltrc files are compared through `lotus_trace cat`, because their
    header embeds the build id;
  * --profile is left out (its stderr differs when profiling is compiled
    out).

Usage:
    cli_fingerprint_gate.py --bin-dir DIR [--workdir DIR]

Exit 0 when every digest matches, 1 on a mismatch (the actual table is
printed, ready to paste), 2 on setup failure.
"""

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

FAST = {"LOTUS_BENCH_FAST": "1"}

# name -> (tool, argv, written paths). Invocations run in order in one
# directory, so later ones read what earlier ones wrote (synth.ltrc,
# rec/...). Paths are relative, so printed paths are host-independent.
RUNS = [
    # --- lotus_run, single-run mode
    ("run_single_table", "lotus_run",
     ["--governor", "fixed:5,3", "--iterations", "100", "--pretrain", "0", "--jobs", "1"], []),
    ("run_single_json", "lotus_run",
     ["--governor", "ondemand", "--iterations", "100", "--pretrain", "0",
      "--format", "json", "--jobs", "1"], []),
    ("run_single_chart", "lotus_run",
     ["--device", "mi11", "--detector", "yolo", "--dataset", "visdrone",
      "--governor", "conservative", "--iterations", "80", "--constraint", "300",
      "--chart", "--jobs", "1"], []),
    ("run_single_csv", "lotus_run",
     ["--governor", "random", "--iterations", "60", "--seed", "9",
      "--csv", "run.csv", "--jobs", "1"], ["run.csv"]),
    ("run_single_telemetry", "lotus_run",
     ["--governor", "powersave", "--iterations", "60", "--telemetry", "run_tel",
      "--telemetry-ring", "4", "--format", "json", "--jobs", "1"], ["run_tel"]),
    ("run_list_scenarios", "lotus_run", ["--list-scenarios"], []),
    # --- lotus_run, scenario mode
    ("run_scenario_serve_light", "lotus_run",
     ["--scenario", "serve_light", "--jobs", "2", "--format", "json"], []),
    # --- lotus_serve
    ("serve_adhoc", "lotus_serve",
     ["--streams", "2", "--requests", "10", "--governor", "performance",
      "--pretrain", "0", "--jobs", "1"], []),
    ("serve_adhoc_fleet", "lotus_serve",
     ["--streams", "3", "--requests", "8", "--arrival", "burst", "--burst", "2",
      "--rate", "0.5", "--slo", "700", "--scheduler", "fifo", "--governor", "ondemand",
      "--devices", "2", "--router", "least_queue", "--csv", "serve_csv",
      "--telemetry", "serve_tel", "--jobs", "1"], ["serve_csv", "serve_tel"]),
    ("serve_scenario_fleet_resized", "lotus_serve",
     ["--scenario", "serve_fleet_saturation", "--devices", "2", "--jobs", "4"], []),
    ("serve_list_scenarios", "lotus_serve", ["--list-scenarios"], []),
    # --- lotus_trace
    ("trace_synth", "lotus_trace",
     ["synth", "synth.ltrc", "--requests", "10", "--streams", "2", "--arrival", "burst",
      "--burst", "3", "--rate", "0.5", "--slo", "700", "--seed", "3"], ["synth.ltrc"]),
    ("trace_synth_many_streams", "lotus_trace",
     ["synth", "synth9.ltrc", "--streams", "9", "--arrival", "attack", "--requests", "12"],
     ["synth9.ltrc"]),
    ("trace_info", "lotus_trace", ["info", "synth.ltrc"], []),
    ("trace_cat", "lotus_trace", ["cat", "synth.ltrc", "--limit", "5"], []),
    ("trace_slice_ids", "lotus_trace",
     ["slice", "synth.ltrc", "head.ltrc", "--ids", "0:8"], ["head.ltrc"]),
    ("trace_slice_tail", "lotus_trace",
     ["slice", "synth.ltrc", "tail.ltrc", "--ids", "8:20"], ["tail.ltrc"]),
    ("trace_slice_time", "lotus_trace",
     ["slice", "synth.ltrc", "window.ltrc", "--time", "0.5:12"], ["window.ltrc"]),
    ("trace_merge", "lotus_trace",
     ["merge", "merged.ltrc", "head.ltrc", "tail.ltrc"], ["merged.ltrc"]),
    ("trace_record", "lotus_trace",
     ["record", "--scenario", "serve_light", "--out", "rec", "--seed", "7", "--jobs", "2"],
     ["rec"]),
    # --- lotus_sweep
    ("sweep_rate_grid", "lotus_sweep",
     ["--out", "sweep_rate", "--devices", "1,2", "--governor", "performance,powersave",
      "--rate", "0.25,0.5", "--streams", "2", "--requests", "8", "--pretrain", "0",
      "--jobs", "2"], ["sweep_rate"]),
    ("sweep_trace_axis", "lotus_sweep",
     ["--out", "sweep_trace", "--devices", "1,2", "--router", "round_robin,least_queue",
      "--trace", "synth.ltrc,merged.ltrc", "--pretrain", "0", "--jobs", "2"],
     ["sweep_trace"]),
    # --- usage errors (exit 2) and runtime errors (exit 1)
    ("err_run_unknown_flag", "lotus_run", ["--bogus"], []),
    ("err_run_missing_value", "lotus_run", ["--device"], []),
    ("err_run_bad_seed", "lotus_run", ["--seed", "-1"], []),
    ("err_run_seed_twice", "lotus_run", ["--seed", "1", "--seed", "2"], []),
    ("err_run_jobs_zero", "lotus_run", ["--jobs", "0"], []),
    ("err_run_unknown_device", "lotus_run", ["--device", "pixel", "--jobs", "1"], []),
    ("err_run_unknown_governor", "lotus_run", ["--governor", "warp", "--jobs", "1"], []),
    ("err_run_fixed_off_ladder", "lotus_run", ["--governor", "fixed:99,0", "--jobs", "1"], []),
    ("err_run_chart_with_json", "lotus_run", ["--chart", "--format", "json", "--jobs", "1"], []),
    ("err_run_ring_without_telemetry", "lotus_run", ["--telemetry-ring", "4"], []),
    ("err_run_single_flag_in_scenario_mode", "lotus_run",
     ["--scenario", "serve_light", "--device", "mi11", "--jobs", "1"], []),
    ("err_run_unknown_scenario", "lotus_run", ["--scenario", "nope", "--jobs", "1"], []),
    ("err_serve_adhoc_flag_in_scenario_mode", "lotus_serve",
     ["--scenario", "serve_light", "--streams", "4", "--jobs", "1"], []),
    ("err_serve_router_without_devices", "lotus_serve", ["--router", "thermal_aware"], []),
    ("err_serve_devices_on_non_fleet", "lotus_serve",
     ["--scenario", "serve_light", "--devices", "2", "--jobs", "1"], []),
    ("err_serve_classic_scenario", "lotus_serve", ["--scenario", "fig4_kitti", "--jobs", "1"], []),
    ("err_serve_unknown_arrival", "lotus_serve", ["--arrival", "zipf", "--jobs", "1"], []),
    ("err_serve_unknown_scheduler", "lotus_serve", ["--scheduler", "lifo", "--jobs", "1"], []),
    ("err_serve_record_is_replay_dir", "lotus_serve",
     ["--record-trace", "rec", "--replay-trace", "rec"], []),
    ("err_serve_missing_replay_trace", "lotus_serve",
     ["--scenario", "serve_light", "--replay-trace", "no_such_dir", "--jobs", "1"], []),
    ("err_sweep_missing_out", "lotus_sweep", ["--jobs", "1"], []),
    ("err_sweep_rate_and_trace", "lotus_sweep",
     ["--out", "x", "--rate", "1", "--trace", "synth.ltrc", "--jobs", "1"], []),
    ("err_sweep_bad_shard", "lotus_sweep", ["--out", "x", "--shard", "3/2"], []),
    ("err_sweep_empty_list_element", "lotus_sweep", ["--out", "x", "--devices", "1,,2"], []),
    ("err_sweep_format_is_unknown", "lotus_sweep", ["--out", "x", "--format", "json"], []),
    ("err_trace_missing_verb", "lotus_trace", [], []),
    ("err_trace_unknown_verb", "lotus_trace", ["frobnicate"], []),
    ("err_trace_seed_on_info", "lotus_trace", ["info", "synth.ltrc", "--seed", "3"], []),
    ("err_trace_record_classic", "lotus_trace",
     ["record", "--scenario", "fig4_kitti", "--out", "r", "--jobs", "1"], []),
    ("err_trace_synth_without_requests", "lotus_trace", ["synth", "s.ltrc"], []),
    ("err_trace_slice_both_ranges", "lotus_trace",
     ["slice", "synth.ltrc", "o.ltrc", "--ids", "0:2", "--time", "1:2"], []),
    ("err_trace_missing_file", "lotus_trace", ["info", "no_such.ltrc"], []),
    ("err_sweep_stream_flags_with_trace", "lotus_sweep",
     ["--out", "x", "--trace", "synth.ltrc", "--streams", "9", "--requests", "3", "--slo", "10",
      "--arrival", "burst", "--burst", "2", "--jobs", "1"], []),
    ("err_trace_flags_the_verb_ignores", "lotus_trace",
     ["info", "synth.ltrc", "--limit", "3", "--streams", "7", "--rate", "9"], []),
    ("err_trace_slice_onto_input", "lotus_trace",
     ["slice", "synth.ltrc", "./synth.ltrc", "--ids", "0:5"], ["synth.ltrc"]),
    ("err_trace_merge_onto_input", "lotus_trace",
     ["merge", "head.ltrc", "head.ltrc", "tail.ltrc"], ["head.ltrc"]),
    # --- the paper's figures and tables, byte-identical to the ten
    # per-figure binaries it replaced, run in order and concatenated
    ("bench_paper", "bench_paper", [], []),
]

PINNED = {
    "run_single_table": "fe72003fbb618ce4",
    "run_single_json": "0ea47327ea6ae64a",
    "run_single_chart": "54301b5bdebfa259",
    "run_single_csv": "628c2a67738133cc",
    "run_single_telemetry": "ae5982cb96326129",
    "run_list_scenarios": "3d1516257775511c",
    "run_scenario_serve_light": "b067b3d900ec0751",
    "serve_adhoc": "fc10875a9b4c94dc",
    "serve_adhoc_fleet": "3b779d4d2301a111",
    "serve_scenario_fleet_resized": "356248cd19a0ad39",
    "serve_list_scenarios": "3128fcceb7133a41",
    "trace_synth": "96d131f2c1d2d379",
    "trace_synth_many_streams": "f6e8ebfbff42bc39",
    "trace_info": "fd2655ec21394e3b",
    "trace_cat": "9e764054d3cf7cbb",
    "trace_slice_ids": "d18d225f5dc90eb6",
    "trace_slice_tail": "d82ec34381b40bb6",
    "trace_slice_time": "6b656581db4a870e",
    "trace_merge": "767d4df55a8d8fd8",
    "trace_record": "c6bbf5430e041955",
    "sweep_rate_grid": "608ad28c6f9b9859",
    "sweep_trace_axis": "110d0f786aa464fa",
    "err_run_unknown_flag": "caf5c87be25ada73",
    "err_run_missing_value": "17ee40ce7f1341b1",
    "err_run_bad_seed": "08bb033b96bd5353",
    "err_run_seed_twice": "393ccb0f15abcd6f",
    "err_run_jobs_zero": "765e985bc0928209",
    "err_run_unknown_device": "78b4953faa6224a7",
    "err_run_unknown_governor": "2dd56de87b5b972a",
    "err_run_fixed_off_ladder": "c438fbda8c2bf7fc",
    "err_run_chart_with_json": "d6dfff0ef22d7ee5",
    "err_run_ring_without_telemetry": "3c387495b82f7c75",
    "err_run_single_flag_in_scenario_mode": "34996dd8ef7b3780",
    "err_run_unknown_scenario": "589dd948a48446da",
    "err_serve_adhoc_flag_in_scenario_mode": "dea33a04a4a611d2",
    "err_serve_router_without_devices": "25bd8f61bfab90be",
    "err_serve_devices_on_non_fleet": "51a8e591c8dd04ce",
    "err_serve_classic_scenario": "7a62439f837982cf",
    "err_serve_unknown_arrival": "a24a2c089b548481",
    "err_serve_unknown_scheduler": "5b573f6a2c66d41b",
    "err_serve_record_is_replay_dir": "0057e8a0093d1020",
    "err_serve_missing_replay_trace": "b27c7337596cc485",
    "err_sweep_missing_out": "ce0c3b0974ceade8",
    "err_sweep_rate_and_trace": "c3b0943be0f59ef4",
    "err_sweep_bad_shard": "1ec095e44dfdf2db",
    "err_sweep_empty_list_element": "b41dede7c1f70e4b",
    "err_sweep_format_is_unknown": "a622f91ee965170d",
    "err_trace_missing_verb": "8b5bf7b46f4b3081",
    "err_trace_unknown_verb": "c97a23971c811d8e",
    "err_trace_seed_on_info": "a40729b531da4cdb",
    "err_trace_record_classic": "448661cd94e3254c",
    "err_trace_synth_without_requests": "6ba121d4427fde4e",
    "err_trace_slice_both_ranges": "fc407f5a038a8cfb",
    "err_trace_missing_file": "012de683a77b5e22",
    "err_sweep_stream_flags_with_trace": "8c2b1bc9053445a8",
    "err_trace_flags_the_verb_ignores": "37200569f43b5b3a",
    "err_trace_slice_onto_input": "939f8da82474e3d0",
    "err_trace_merge_onto_input": "fea265fbd7e8219f",
    "bench_paper": "b4c8992db98e8e84",
}

BUILD_JSON = re.compile(rb'"build":"[^"]*"')
BUILD_LINE = re.compile(rb"^build:[^\n]*$", re.MULTILINE)


def normalise(data):
    data = BUILD_JSON.sub(b'"build":"-"', data)
    return BUILD_LINE.sub(b"build: -", data)


def file_bytes(bin_dir, path):
    if path.endswith(".ltrc"):
        proc = subprocess.run([os.path.join(bin_dir, "lotus_trace"), "cat", path],
                              capture_output=True, env={**os.environ, **FAST})
        return b"cat exit %d\n" % proc.returncode + proc.stdout + proc.stderr
    with open(path, "rb") as fh:
        return normalise(fh.read())


def written_files(path):
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        return []
    out = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        out += [os.path.join(root, f) for f in sorted(files)]
    return out


def digest(bin_dir, tool, argv, outputs):
    proc = subprocess.run([os.path.join(bin_dir, tool)] + argv, capture_output=True,
                          env={**os.environ, **FAST})
    h = hashlib.sha256()
    h.update(b"exit %d\n" % proc.returncode)
    for blob in (normalise(proc.stdout), normalise(proc.stderr)):
        h.update(b"%d\n" % len(blob) + blob)
    for out in outputs:
        files = written_files(out)
        h.update(b"%s: %d files\n" % (out.encode(), len(files)))
        for f in files:
            blob = file_bytes(bin_dir, f)
            h.update(f.encode() + b"\n%d\n" % len(blob) + blob)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--workdir")
    args = ap.parse_args()
    bin_dir = os.path.abspath(args.bin_dir)
    for tool in sorted({tool for _, tool, _, _ in RUNS}):
        if not os.access(os.path.join(bin_dir, tool), os.X_OK):
            print(f"cli_fingerprint_gate: no {tool} in {bin_dir}", file=sys.stderr)
            return 2

    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(prefix="cli_fingerprint_"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    actual = {name: digest(bin_dir, tool, argv, outputs)
              for name, tool, argv, outputs in RUNS}

    mismatched = [name for name, _, _, _ in RUNS if PINNED.get(name) != actual[name]]
    stale = sorted(set(PINNED) - set(actual))
    if mismatched or stale:
        for name in mismatched:
            print(f"MISMATCH {name}: pinned {PINNED.get(name)}, actual {actual[name]}",
                  file=sys.stderr)
        for name in stale:
            print(f"STALE {name}: pinned but no longer run", file=sys.stderr)
        print("actual table:\nPINNED = {")
        for name, _, _, _ in RUNS:
            print(f'    "{name}": "{actual[name]}",')
        print("}")
        print(f"(outputs kept in {workdir})")
        return 1
    os.chdir("/")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"cli_fingerprint_gate: {len(RUNS)} invocations match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
