#!/usr/bin/env python3
"""The two CI gates over per-bench JSON reports (MDP_JSON_OUT; see
src/harness/report.hh): `reports DIR...` checks their structure and
shape verdicts, `micro BASE_DIR HEAD_DIR` gates micro_* kernel
slowdowns.  Any failure exits 1 and names the file, bench or kernel.
End-to-end host time is measured by bench/perf/run.py, not here.
"""

import argparse
import json
import sys
from pathlib import Path

# Shorter baselines (zero included) are timer noise: printed, never gated.
MICRO_FLOOR_SECONDS = 1e-3

# Kernels deleted with what they measured (tick loop, frontier on/off,
# sharded ARB, AoS/SoA and sweep pairs, indexed MDST): the only ones
# HEAD_DIR may lack.
RETIRED_MICRO_KERNELS = frozenset({
    "micro_ooo_skip_ff", "micro_ooo_skip_reference", "micro_ms_skip_ff",
    "micro_ms_skip_reference", "micro_chain_wake_frontier_1024",
    "micro_chain_wake_scan_1024", "micro_arb_probe_8shard",
    "micro_arb_probe_256shard", "micro_arb_probe_1024shard",
    "micro_scan_aos", "micro_scan_soa", "micro_wakeup_aos",
    "micro_wakeup_soa", "micro_probe_aos", "micro_probe_soa",
    "micro_sweep_sequential", "micro_sweep_lockstep",
    "micro_mdst_alloc_free", "micro_mdst_forced_evict_1024",
    "micro_mdst_full_scavenge", "micro_mdst_waiting_for",
})


def require(ok, message):
    if not ok:
        raise RuntimeError(message)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(path, doc):
    """Reject a structurally broken bench report loudly."""
    require(isinstance(doc, dict), f"{path}: top level is not a JSON object")
    require(doc.get("bench"), f"{path}: missing 'bench' field")
    require(isinstance(doc.get("all_checks_ok"), bool),
            f"{path}: missing/ill-typed 'all_checks_ok'")
    checks = doc.get("shape_checks", [])
    require(isinstance(checks, list), f"{path}: 'shape_checks' is not a list")
    for check in checks:
        require(isinstance(check, dict) and "ok" in check and "what" in check,
                f"{path}: malformed shape_checks entry: {check!r}")
    phases = doc.get("phase_seconds", {})
    require(isinstance(phases, dict), f"{path}: 'phase_seconds' is not a map")
    for phase, seconds in phases.items():
        require(is_number(seconds),
                f"{path}: phase_seconds[{phase!r}] is not a number")
    if "cycle_stats" in doc:
        stats = doc["cycle_stats"]
        require(isinstance(stats, dict), f"{path}: 'cycle_stats' is not a map")
        for key in ("cycles_simulated", "cycles_skipped"):
            require(is_number(stats.get(key)),
                    f"{path}: cycle_stats[{key!r}] is not a number")


def load_dir(directory):
    """Read every *.json bench report in a directory, keyed by bench."""
    require(Path(directory).is_dir(),
            f"result directory {directory} is missing")
    paths = sorted(Path(directory).glob("*.json"))
    require(paths, f"no bench reports in {directory}")
    reports = {}
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise RuntimeError(f"unreadable bench report {path}: {err}")
        validate_report(path, doc)
        require(doc["bench"] not in reports,
                f"{path}: duplicate report for bench '{doc['bench']}'")
        reports[doc["bench"]] = doc
    return reports


def gate_reports(dirs):
    failed = []
    for directory in dirs:
        reports = load_dir(directory)
        print(f"{directory}: {len(reports)} reports")
        for bench, doc in sorted(reports.items()):
            if not doc["all_checks_ok"]:
                bad = [c["what"] for c in doc.get("shape_checks", [])
                       if not c["ok"]]
                failed.append(f"{directory}/{bench}: {bad}")
    if failed:
        print("FAILED shape checks in:\n  " + "\n  ".join(failed),
              file=sys.stderr)
    return 1 if failed else 0


def micro_seconds(directory):
    """Sum each micro_* phase over a directory's reports."""
    total = {}
    for doc in load_dir(directory).values():
        for phase, seconds in doc.get("phase_seconds", {}).items():
            if phase.startswith("micro_"):
                total[phase] = total.get(phase, 0.0) + seconds
    return total


def gate_micro(base_dir, head_dir, threshold):
    base = micro_seconds(base_dir)
    require(base, f"baseline {base_dir} has no micro_* phases")
    head = micro_seconds(head_dir)
    ratios, regressions = [], []
    for phase, base_secs in sorted(base.items()):
        if phase not in head:
            if phase not in RETIRED_MICRO_KERNELS:
                regressions.append(
                    f"{phase}: present in baseline but not in this run")
            continue
        ratio = head[phase] / base_secs if base_secs else float("inf")
        ratios.append(f"{phase.removeprefix('micro_')}={ratio:.2f}x")
        if base_secs >= MICRO_FLOOR_SECONDS and ratio > threshold:
            regressions.append(
                f"{phase}: {base_secs:.4f}s -> {head[phase]:.4f}s "
                f"({ratio:.2f}x > {threshold:.2f}x)")
    print("micro head/base: " + ", ".join(ratios))
    if regressions:
        print(f"MICRO REGRESSIONS (vs {base_dir}):\n  "
              + "\n  ".join(regressions), file=sys.stderr)
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("reports").add_argument("dirs", nargs="+", metavar="DIR")
    micro = sub.add_parser("micro")
    micro.add_argument("base_dir", metavar="BASE_DIR")
    micro.add_argument("head_dir", metavar="HEAD_DIR")
    micro.add_argument("--threshold", type=float, default=2.0,
                       help="largest tolerated HEAD/BASE time ratio")
    args = parser.parse_args()
    if args.cmd == "reports":
        return gate_reports(args.dirs)
    return gate_micro(args.base_dir, args.head_dir, args.threshold)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:
        sys.exit(f"bench_gate: {err}")
