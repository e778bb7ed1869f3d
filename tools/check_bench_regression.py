#!/usr/bin/env python3
"""Fail CI when bench_overhead's perf trajectory regresses vs the baseline.

Usage:
    check_bench_regression.py CURRENT BASELINE [--threshold 0.10] [--absolute]

CURRENT is the BENCH_overhead.json a fresh bench_overhead run wrote;
BASELINE is the committed bench/BENCH_overhead.baseline.json.

Raw requests/sec depend on the host CPU, so by default the check compares
the hardware-normalized throughput ratio

    batched requests_per_sec / scalar requests_per_sec

of the serve_saturation cell (the end-to-end speedup the batched RL math
bought), failing when the current ratio falls more than --threshold (10%)
below the baseline's. It also re-asserts the correctness flags the bench
already gated on (bit-identical losses / summaries / JSON, telemetry
non-perturbation), so a stale or hand-edited trajectory file cannot slip
through.

Even on a pass, every numeric metric of every cell present in both files
is printed as a current-vs-baseline delta so CI logs show the trend, not
just the verdict.

The fleet_kernel cell's work counters (requests, advance_calls,
thermal_segments, governor_ticks) are deterministic: when both files were
written in the same fast_mode with the profiler compiled in, each must
equal the baseline's exactly. A change that moves one re-baselines it.

--absolute additionally compares raw requests_per_sec per variant, for
same-machine trend tracking; do not enable it on shared CI runners.

Stdlib only; exit 0 on pass, 1 on regression, 2 on malformed input.
"""

import argparse
import json
import sys


def malformed(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """Read a trajectory file; exit 2 unless it is an object whose cells are too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        malformed(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        malformed(f"{path} is not a JSON object")
    if not isinstance(doc.get("cells"), dict):
        malformed(f"{path} has no cells object")
    return doc


def is_number(node):
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def requests_per_sec(doc, path, variant):
    try:
        value = doc["cells"]["serve_saturation"][variant]["requests_per_sec"]
    except (KeyError, TypeError):
        malformed(f"{path} has no serve_saturation.{variant}.requests_per_sec")
    if not is_number(value):
        malformed(f"{path} serve_saturation.{variant}.requests_per_sec is not a number")
    return float(value)


def throughput_ratio(doc, path):
    scalar = requests_per_sec(doc, path, "scalar")
    if scalar <= 0.0:
        malformed(f"{path} has non-positive scalar requests/sec")
    return requests_per_sec(doc, path, "batched") / scalar


# fleet_kernel's deterministic work counters, gated for exact equality.
FLEET_COUNTERS = ("requests", "advance_calls", "thermal_segments", "governor_ticks")


def fleet_counter_failures(cur, base, cur_path, base_path):
    """fleet_kernel counters that differ from the baseline's."""
    if cur.get("profiling_compiled") is not True or base.get("profiling_compiled") is not True:
        print("fleet_kernel counters not compared: profiler compiled out")
        return []
    cells = []
    for doc, path in ((cur, cur_path), (base, base_path)):
        cell = doc["cells"].get("fleet_kernel")
        if not isinstance(cell, dict):
            malformed(f"{path} has no fleet_kernel cell")
        for key in FLEET_COUNTERS:
            value = cell.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                malformed(f"{path} fleet_kernel.{key} is not an integer")
        cells.append(cell)
    return [f"fleet_kernel.{key} is {cells[0][key]}, baseline {cells[1][key]} "
            "(deterministic counter; re-baseline if the change is meant)"
            for key in FLEET_COUNTERS if cells[0][key] != cells[1][key]]


def numeric_leaves(node, prefix=""):
    """Flatten a cell into sorted (dotted.path, float) pairs, skipping bools."""
    out = []
    if isinstance(node, dict):
        for key in sorted(node):
            out.extend(numeric_leaves(node[key], f"{prefix}.{key}" if prefix else key))
    elif is_number(node):
        out.append((prefix, float(node)))
    return out


def print_cell_deltas(cur, base):
    """Print current-vs-baseline deltas for every shared numeric metric.

    Informational only (never fails the check): raw wall-clock and
    requests/sec depend on the host, but the per-cell trend is what a CI
    log reader wants when deciding whether a pass was comfortable or
    marginal.
    """
    for cell in sorted(set(cur["cells"]) & set(base["cells"])):
        cur_leaves = dict(numeric_leaves(cur["cells"][cell]))
        base_leaves = dict(numeric_leaves(base["cells"][cell]))
        shared = sorted(set(cur_leaves) & set(base_leaves))
        if not shared:
            continue
        print(f"cell {cell}:")
        for path in shared:
            c, b = cur_leaves[path], base_leaves[path]
            if b != 0.0:
                delta = f"{100.0 * (c - b) / abs(b):+.1f}%"
            else:
                delta = "n/a" if c == 0.0 else "new"
            print(f"  {path}: current {c:g}, baseline {b:g} ({delta})")


def main():
    parser = argparse.ArgumentParser(
        description="compare BENCH_overhead.json against the committed baseline")
    parser.add_argument("current", help="freshly produced BENCH_overhead.json")
    parser.add_argument("baseline", help="committed BENCH_overhead.baseline.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare raw requests_per_sec (same-machine only)")
    args = parser.parse_args()

    cur = load(args.current)
    base = load(args.baseline)
    failures = []

    if cur.get("schema_version") != base.get("schema_version"):
        failures.append(f"schema_version mismatch: current {cur.get('schema_version')} "
                        f"vs baseline {base.get('schema_version')}")
    if cur.get("fast_mode") != base.get("fast_mode"):
        failures.append(f"mode mismatch: current fast_mode={cur.get('fast_mode')} vs "
                        f"baseline fast_mode={base.get('fast_mode')} "
                        "(compare like with like)")

    # Correctness flags: the bench exits non-zero when these fail, but a
    # stale artifact would still carry false here.
    flags = [
        ("train_step", "loss_bit_identical"),
        ("serve_saturation", "summaries_bit_identical"),
        ("summary_only_ledgers", "json_bit_identical"),
        ("telemetry_overhead", "json_bit_identical"),
        ("trace_replay", "json_bit_identical"),
    ]
    for cell, flag in flags:
        node = cur["cells"].get(cell)
        if not isinstance(node, dict) or node.get(flag) is not True:
            failures.append(f"current {cell}.{flag} is not true")

    print_cell_deltas(cur, base)

    if cur.get("fast_mode") == base.get("fast_mode"):
        failures.extend(fleet_counter_failures(cur, base, args.current, args.baseline))

    if not failures:
        r_cur = throughput_ratio(cur, args.current)
        r_base = throughput_ratio(base, args.baseline)
        floor = r_base * (1.0 - args.threshold)
        print(f"serve_saturation batched/scalar requests/sec ratio: "
              f"current {r_cur:.3f}, baseline {r_base:.3f}, floor {floor:.3f}")
        if r_cur < floor:
            failures.append(
                f"throughput ratio regressed {100.0 * (1.0 - r_cur / r_base):.1f}% "
                f"(> {100.0 * args.threshold:.0f}%): {r_cur:.3f} < {floor:.3f}")

        if args.absolute:
            for variant in ("scalar", "batched"):
                c = requests_per_sec(cur, args.current, variant)
                b = requests_per_sec(base, args.baseline, variant)
                print(f"serve_saturation {variant} requests/sec: "
                      f"current {c:.1f}, baseline {b:.1f}")
                if c < b * (1.0 - args.threshold):
                    failures.append(
                        f"{variant} requests/sec regressed "
                        f"{100.0 * (1.0 - c / b):.1f}%: {c:.1f} < "
                        f"{b * (1.0 - args.threshold):.1f}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
