#!/usr/bin/env python3
"""Merge per-bench JSON reports into one timing/verdict summary.

Each bench binary writes one JSON document when MDP_JSON_OUT is set
(see src/harness/report.hh): tables, shape-check verdicts, and the
accumulated wall-clock seconds of each internal phase
(trace_cache_load, trace_generate, oracle_build, task_set_build,
simulate, and the per-kernel micro_* phases of bench/micro/)
under "phase_seconds".

This script merges one or more labeled result directories -- typically
cold (empty trace cache) and warm (prebuilt trace cache) runs of the
same bench set -- into a single document for CI artifacts:

    bench_summary.py --out BENCH_pr.json cold=results-cold warm=results-warm

The summary carries, per bench and per label, the shape verdicts and
phase timings, plus aggregate phase totals and the cold/warm trace
acquisition speedup (generation seconds versus cache-load seconds),
which is the number the trace cache exists to improve.

Microbenchmark reports are merged through their own labeled group:

    bench_summary.py --out ... --micro pr=results-micro [runs...]

The micro group's bench set must agree across its own labels but is
independent of the main labels (the table/figure benches and the
micro kernels are disjoint sets by design).  With --compare, the
micro_* per-kernel phase totals are gated against a previous summary:

    bench_summary.py --out ... --micro pr=... \
        --compare BENCH_base.json --threshold 2.0

fails when any kernel present in the baseline got more than
--threshold times slower (or disappeared), and records the per-kernel
current/baseline ratios under "micro_compare" either way.  Kernels
deleted on purpose are listed in RETIRED_MICRO_KERNELS; only those may
be missing from the current run.

Reports that carry a "cycle_stats" section (cycles simulated vs.
skipped by the event-driven fast-forward; see EXPERIMENTS.md) have it
copied into each run entry, aggregated into a top-level
"cycle_totals", and printed as an overall skip rate.

A second mode, --trend, reads summaries *written by this script* (the
BENCH_*.json CI artifacts) and prints one longitudinal wall-clock
table across them, oldest first, with per-label total seconds and the
aggregate fast-forward skip rate of each summary:

    bench_summary.py --trend BENCH_old.json BENCH_new.json \
        [--out trend.json]

Batch-server reports written by mdp_served --batch-report (documents
carrying a "serve_batch" section) mix into --trend alongside
summaries: each contributes a "serve" wall-clock column plus server
throughput (requests/sec), trace passes versus configs evaluated, and
the amortization factor of the one-pass multi-config sweep.

Exits nonzero when a result file is unreadable, malformed (wrong
top-level shape, missing/ill-typed fields), when the labeled
directories disagree about which benches exist (a bench that crashed
before writing its artifact must not vanish silently), when any bench
reported a failed shape check, or when --compare finds a kernel
regression -- so the timing job gates on correctness and cannot
green-wash a broken bench.
"""

import argparse
import json
import sys
from pathlib import Path

# Phases that constitute "getting a trace into memory".
ACQUIRE_PHASES = ("trace_cache_load", "trace_generate")

# Baselines shorter than this are timer noise, not kernels; --compare
# does not gate on them (their ratios are still recorded).
MICRO_COMPARE_FLOOR_SECONDS = 1e-3

# Kernels deleted together with the mechanism they measured.  A
# baseline that still has one is not a regression when it is missing
# now; every other vanished kernel is.
RETIRED_MICRO_KERNELS = frozenset({
    # micro_cycle_skip: tick loop vs fast-forward (the tick loop is gone).
    "micro_ooo_skip_ff",
    "micro_ooo_skip_reference",
    "micro_ms_skip_ff",
    "micro_ms_skip_reference",
    # micro_frontier: the 1024-PE model with the frontier on and off.
    "micro_chain_wake_frontier_1024",
    "micro_chain_wake_scan_1024",
    # micro_frontier: the sharded ARB (one Arb per model now).
    "micro_arb_probe_8shard",
    "micro_arb_probe_256shard",
    "micro_arb_probe_1024shard",
    # micro_model_cycle: the AoS/SoA pairs (the SIMD kernels are gone).
    "micro_scan_aos",
    "micro_scan_soa",
    "micro_wakeup_aos",
    "micro_wakeup_soa",
    "micro_probe_aos",
    "micro_probe_soa",
})

# The lint suppression marker, composed so mdp_lint's own scanner
# never mistakes this file for a suppression site.
SUPPRESSION_MARKER = "mdp-lint" + ": allow("

REPO_ROOT = Path(__file__).resolve().parent.parent


def count_suppressions(root):
    """Count lint-suppression markers across the C++ tree: the repo's
    accepted debt.  Mirrors mdp_lint's file discovery (src/, bench/,
    tools/, tests/, examples/) minus the fixture corpus, which exists
    to contain violations."""
    root = Path(root)
    total = 0
    for sub in ("src", "bench", "tools", "tests", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cc", ".hh"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith("tests/lint_fixtures/"):
                continue
            if any(part in ("build", "build-asan", "build-tsan")
                   for part in path.parts):
                continue
            try:
                text = path.read_text(errors="replace")
            except OSError:
                continue
            total += text.count(SUPPRESSION_MARKER)
    return total


def validate_report(path, doc):
    """Reject a structurally broken bench report loudly."""
    if not isinstance(doc, dict):
        raise RuntimeError(f"{path}: top level is not a JSON object")
    if not doc.get("bench"):
        raise RuntimeError(f"{path}: missing 'bench' field")
    if "all_checks_ok" not in doc or \
            not isinstance(doc["all_checks_ok"], bool):
        raise RuntimeError(
            f"{path}: missing/ill-typed 'all_checks_ok'")
    checks = doc.get("shape_checks", [])
    if not isinstance(checks, list):
        raise RuntimeError(f"{path}: 'shape_checks' is not a list")
    for check in checks:
        if not isinstance(check, dict) or "ok" not in check \
                or "what" not in check:
            raise RuntimeError(
                f"{path}: malformed shape_checks entry: {check!r}")
    phases = doc.get("phase_seconds", {})
    if not isinstance(phases, dict):
        raise RuntimeError(f"{path}: 'phase_seconds' is not a map")
    for phase, seconds in phases.items():
        if not isinstance(seconds, (int, float)) \
                or isinstance(seconds, bool):
            raise RuntimeError(
                f"{path}: phase_seconds[{phase!r}] is not a number")
    stats = doc.get("cycle_stats")
    if stats is not None:
        if not isinstance(stats, dict):
            raise RuntimeError(f"{path}: 'cycle_stats' is not a map")
        for key in ("cycles_simulated", "cycles_skipped"):
            value = stats.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise RuntimeError(
                    f"{path}: cycle_stats[{key!r}] is not a number")


def load_dir(directory):
    """Read every *.json bench report in a directory, keyed by bench."""
    reports = {}
    if not Path(directory).is_dir():
        raise RuntimeError(f"result directory {directory} is missing")
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise RuntimeError(f"no bench reports in {directory}")
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise RuntimeError(f"unreadable bench report {path}: {err}")
        validate_report(path, doc)
        bench = doc["bench"]
        if bench in reports:
            raise RuntimeError(
                f"{path}: duplicate report for bench '{bench}'")
        reports[bench] = doc
    return reports


def parse_labeled(specs, parser, taken=()):
    """Parse LABEL=DIR args into {label: reports}."""
    labeled = {}
    for spec in specs:
        label, sep, directory = spec.partition("=")
        if not sep or not label or not directory:
            parser.error(f"expected LABEL=DIR, got '{spec}'")
        if label in labeled or label in taken:
            parser.error(f"duplicate label '{label}'")
        labeled[label] = load_dir(directory)
    return labeled


def check_same_bench_set(labeled):
    """Every label must cover the same bench set: a bench that crashed
    before writing its artifact in one run must fail the merge, not
    silently drop out of the comparison."""
    bench_sets = {label: set(reports) for label, reports
                  in labeled.items()}
    union = set().union(*bench_sets.values())
    for label, present in sorted(bench_sets.items()):
        missing = sorted(union - present)
        if missing:
            raise RuntimeError(
                f"label '{label}' is missing bench reports: "
                + ", ".join(missing))


def zoo_policy_rows(doc):
    """Parse the per-policy rows out of an ablation_zoo report's main
    table.  Returns a list of row dicts, or None when the table is
    absent or does not carry the expected columns (an older report)."""
    table = doc.get("tables", {}).get("main")
    if not isinstance(table, dict):
        return None
    header = table.get("header", [])
    try:
        cols = {name: header.index(name)
                for name in ("policy", "lineage", "IPC (gm)",
                             "vs ALWAYS")}
    except ValueError:
        return None
    rows = []
    for raw in table.get("rows", []):
        if len(raw) < len(header):
            return None
        try:
            rows.append({
                "policy": raw[cols["policy"]],
                "lineage": raw[cols["lineage"]],
                "ipc_geomean": float(raw[cols["IPC (gm)"]]),
                "vs_always_pct":
                    float(raw[cols["vs ALWAYS"]].rstrip("%")),
            })
        except ValueError:
            return None
    return rows or None


def manycore_1024pe_stats(doc):
    """Sim-seconds per million simulated cycles across the 1024-PE
    sweep groups of bench_manycore_scaling: the scale-out cost number
    the per-PE event frontier exists to hold down.  Simulated cycles
    come from the table's sim_cycles column (1024-PE rows only); wall
    seconds from the sim_1024pe_* phases.  Returns None when the table
    or the phases are absent (an older report)."""
    table = doc.get("tables", {}).get("main")
    if not isinstance(table, dict):
        return None
    header = table.get("header", [])
    try:
        pes_col = header.index("pes")
        cyc_col = header.index("sim_cycles")
    except ValueError:
        return None
    cycles = 0
    for raw in table.get("rows", []):
        if len(raw) <= max(pes_col, cyc_col):
            return None
        if raw[pes_col] != "1024":
            continue
        try:
            cycles += int(raw[cyc_col])
        except ValueError:
            return None
    secs = sum(s for p, s in doc.get("phase_seconds", {}).items()
               if p.startswith("sim_1024pe"))
    if cycles <= 0 or secs <= 0:
        return None
    return {
        "sim_seconds": round(secs, 6),
        "sim_cycles": cycles,
        "seconds_per_mcycle": round(secs / (cycles / 1e6), 6),
    }


def merge_labeled(labeled, failed):
    """Fold {label: reports} into per-bench summary entries; append
    'label/bench' to failed for every failed shape check."""
    benches = {}
    for label, reports in labeled.items():
        for bench, doc in reports.items():
            entry = benches.setdefault(bench, {
                "reproduces": doc.get("reproduces", ""),
                "scale": doc.get("scale"),
                "num_checks": len(doc.get("shape_checks", [])),
                "all_checks_ok": True,
                "failed_checks": [],
                "runs": {},
            })
            entry["runs"][label] = {
                "phase_seconds": doc.get("phase_seconds", {}),
            }
            if isinstance(doc.get("cycle_stats"), dict):
                entry["runs"][label]["cycle_stats"] = \
                    doc["cycle_stats"]
            # The policy-zoo table rides along in the summary so
            # --trend can report the policy race longitudinally.
            # Labels of one summary run the same binary, so the first
            # parsed table wins (cold and warm rows are identical).
            if bench == "ablation_zoo" and "zoo_policies" not in entry:
                rows = zoo_policy_rows(doc)
                if rows is not None:
                    entry["zoo_policies"] = rows
            # Manycore scale-out cost: the fastest label wins (labels
            # run the same binary, so the minimum is the measurement
            # least disturbed by the runner).
            if bench == "manycore_scaling":
                stats = manycore_1024pe_stats(doc)
                prev = entry.get("manycore_1024pe")
                if stats is not None and (
                        prev is None or stats["seconds_per_mcycle"]
                        < prev["seconds_per_mcycle"]):
                    entry["manycore_1024pe"] = stats
            if not doc.get("all_checks_ok", False):
                entry["all_checks_ok"] = False
                bad = [c["what"] for c in doc.get("shape_checks", [])
                       if not c.get("ok")]
                entry["failed_checks"] = sorted(
                    set(entry["failed_checks"]) | set(bad))
                failed.append(f"{label}/{bench}")
    return dict(sorted(benches.items()))


def phase_totals(reports):
    """Sum phase_seconds across one label's reports."""
    totals = {}
    for doc in reports.values():
        for phase, seconds in doc.get("phase_seconds", {}).items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return {k: round(v, 6) for k, v in sorted(totals.items())}


def aggregate_micro_phases(totals_by_label):
    """Sum the micro_* phases of a {label: {phase: seconds}} map."""
    agg = {}
    for phases in totals_by_label.values():
        for phase, seconds in phases.items():
            if phase.startswith("micro_"):
                agg[phase] = agg.get(phase, 0.0) + seconds
    return agg


def compare_micro(baseline_path, micro_totals, threshold):
    """Gate current micro kernel times against a previous summary.

    Returns (compare_doc, regression_messages).  A kernel present in
    the baseline but absent now is a regression (a renamed or dropped
    kernel must update the baseline explicitly, not pass silently),
    unless it is listed in RETIRED_MICRO_KERNELS.
    """
    try:
        base = json.loads(Path(baseline_path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise RuntimeError(f"unreadable baseline {baseline_path}: {err}")
    if not isinstance(base, dict) or "micro" not in base:
        raise RuntimeError(
            f"baseline {baseline_path} has no 'micro' section")
    base_agg = aggregate_micro_phases(
        base["micro"].get("phase_totals", {}))
    if not base_agg:
        raise RuntimeError(
            f"baseline {baseline_path} has no micro_* phases")
    cur_agg = aggregate_micro_phases(micro_totals)

    ratios = {}
    retired = []
    regressions = []
    for phase, base_secs in sorted(base_agg.items()):
        if phase not in cur_agg and phase in RETIRED_MICRO_KERNELS:
            retired.append(phase)
            continue
        if phase not in cur_agg:
            regressions.append(
                f"{phase}: present in baseline but not in this run")
            continue
        cur_secs = cur_agg[phase]
        if base_secs > 0:
            ratio = cur_secs / base_secs
        else:
            ratio = 1.0 if cur_secs == 0 else float("inf")
        ratios[phase] = round(ratio, 3)
        if base_secs >= MICRO_COMPARE_FLOOR_SECONDS \
                and ratio > threshold:
            regressions.append(
                f"{phase}: {base_secs:.4f}s -> {cur_secs:.4f}s "
                f"({ratio:.2f}x > {threshold:.2f}x)")
    return {
        "baseline": str(baseline_path),
        "threshold": threshold,
        "ratios": ratios,
        "retired": retired,
        "regressions": regressions,
    }, regressions


def cycle_totals(summary):
    """Aggregate cycle_stats across every bench run in a summary.

    Returns {"cycles_simulated", "cycles_skipped", "skip_rate"} or
    None when no run carries skip accounting (e.g. a baseline written
    before fast-forward existed) -- callers must tolerate absence.
    """
    sim = skipped = 0
    found = False
    groups = [summary.get("benches", {}),
              summary.get("micro", {}).get("benches", {})]
    for benches in groups:
        for entry in benches.values():
            for run in entry.get("runs", {}).values():
                stats = run.get("cycle_stats")
                if isinstance(stats, dict):
                    sim += int(stats.get("cycles_simulated", 0))
                    skipped += int(stats.get("cycles_skipped", 0))
                    found = True
    if not found:
        return None
    total = sim + skipped
    return {
        "cycles_simulated": sim,
        "cycles_skipped": skipped,
        "skip_rate": round(skipped / total, 4) if total else 0.0,
    }


# serve_batch fields --trend consumes; all must be numbers.
SERVE_TREND_FIELDS = ("wall_seconds", "requests_per_sec",
                      "trace_passes", "configs_evaluated",
                      "amortization_factor")


def validate_batch_report(path, doc):
    """Reject a structurally broken mdp_served batch report loudly."""
    serve = doc.get("serve_batch")
    if not isinstance(serve, dict):
        raise RuntimeError(f"{path}: 'serve_batch' is not a map")
    for key in SERVE_TREND_FIELDS:
        value = serve.get(key)
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            raise RuntimeError(
                f"{path}: serve_batch[{key!r}] is not a number")


def load_summary(path):
    """Read a summary previously written by this script, or an
    mdp_served batch report (recognized by its serve_batch section)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise RuntimeError(f"unreadable summary {path}: {err}")
    if isinstance(doc, dict) and "serve_batch" in doc:
        validate_batch_report(path, doc)
        return doc
    if not isinstance(doc, dict) or not (
            doc.get("phase_totals") or doc.get("micro")):
        raise RuntimeError(
            f"{path}: not a bench_summary.py summary (no "
            "'phase_totals', 'micro', or 'serve_batch' section)")
    return doc


def trend_entries(paths):
    """One longitudinal entry per summary file, in argument order."""
    entries = []
    for path in paths:
        doc = load_summary(path)
        if "serve_batch" in doc:
            serve = doc["serve_batch"]
            entry = {
                "summary": str(path),
                "wall_seconds": {
                    "serve": round(serve["wall_seconds"], 6),
                },
                "serve_batch": {
                    "requests_per_sec":
                        round(serve["requests_per_sec"], 3),
                    "trace_passes": int(serve["trace_passes"]),
                    "configs_evaluated":
                        int(serve["configs_evaluated"]),
                    "amortization_factor":
                        round(serve["amortization_factor"], 3),
                },
            }
            stats = doc.get("cycle_stats")
            if isinstance(stats, dict):
                sim = int(stats.get("cycles_simulated", 0))
                skipped = int(stats.get("cycles_skipped", 0))
                total = sim + skipped
                entry["cycle_totals"] = {
                    "cycles_simulated": sim,
                    "cycles_skipped": skipped,
                    "skip_rate":
                        round(skipped / total, 4) if total else 0.0,
                }
            entries.append(entry)
            continue
        wall = {}
        for label, phases in doc.get("phase_totals", {}).items():
            wall[label] = round(sum(phases.values()), 6)
        for label, phases in doc.get("micro", {}) \
                .get("phase_totals", {}).items():
            wall[label] = round(
                wall.get(label, 0.0) + sum(phases.values()), 6)
        entry = {"summary": str(path), "wall_seconds": wall}
        totals = doc.get("cycle_totals") or cycle_totals(doc)
        if totals:
            entry["cycle_totals"] = totals
        zoo = doc.get("benches", {}).get("ablation_zoo", {}) \
            .get("zoo_policies")
        if zoo:
            entry["zoo"] = zoo_headline(zoo)
        manycore = doc.get("benches", {}) \
            .get("manycore_scaling", {}).get("manycore_1024pe")
        if manycore:
            entry["manycore_1024pe"] = manycore
        if isinstance(doc.get("lint_suppressions"), int):
            entry["lint_suppressions"] = doc["lint_suppressions"]
        entries.append(entry)
    return entries


def zoo_headline(rows):
    """Condense the zoo policy table into the trend columns: policy
    count, the best policy overall, and the best descendant."""
    def fmt(row):
        return f"{row['policy']} {row['vs_always_pct']:+.1f}%"
    best = max(rows, key=lambda r: r["vs_always_pct"])
    descendants = [r for r in rows if r["lineage"] == "descendant"]
    headline = {"policies": len(rows), "best": fmt(best)}
    if descendants:
        headline["best_descendant"] = fmt(
            max(descendants, key=lambda r: r["vs_always_pct"]))
    return headline


def print_trend(entries):
    """Render the longitudinal table: one row per summary, one column
    per label, plus the aggregate fast-forward skip rate.

    Label columns appear in first-appearance order across the entries
    (argument order, oldest summary first), NOT sorted: a label newly
    introduced by a later summary (e.g. an e2e_intra4 run added to the
    perf job) must append on the right instead of alphabetically
    reshuffling every column that longitudinal readers -- and CI log
    diffs -- already rely on.  Old summaries predating a column simply
    render '-' in it.
    """
    labels = []
    seen = set()
    for e in entries:
        for label in e["wall_seconds"]:
            if label not in seen:
                seen.add(label)
                labels.append(label)
    has_skip = any("cycle_totals" in e for e in entries)
    has_serve = any("serve_batch" in e for e in entries)
    has_zoo = any("zoo" in e for e in entries)
    has_manycore = any("manycore_1024pe" in e for e in entries)
    has_debt = any("lint_suppressions" in e for e in entries)
    header = ["summary"] + labels + \
        (["req/s", "passes/configs", "amortization"]
         if has_serve else []) + \
        (["zoo best", "zoo best descendant"] if has_zoo else []) + \
        (["1024pe s/Mcyc"] if has_manycore else []) + \
        (["skip_rate"] if has_skip else []) + \
        (["lint allows"] if has_debt else [])
    rows = [header]
    for e in entries:
        row = [Path(e["summary"]).name]
        for label in labels:
            secs = e["wall_seconds"].get(label)
            row.append("-" if secs is None else f"{secs:.3f}s")
        if has_serve:
            serve = e.get("serve_batch")
            if serve is None:
                row += ["-", "-", "-"]
            else:
                row += [
                    f"{serve['requests_per_sec']:.1f}",
                    f"{serve['trace_passes']}/"
                    f"{serve['configs_evaluated']}",
                    f"{serve['amortization_factor']:.2f}x",
                ]
        if has_zoo:
            zoo = e.get("zoo")
            if zoo is None:
                row += ["-", "-"]
            else:
                row += [zoo["best"],
                        zoo.get("best_descendant", "-")]
        if has_manycore:
            mc = e.get("manycore_1024pe")
            row.append("-" if mc is None
                       else f"{mc['seconds_per_mcycle']:.3f}")
        if has_skip:
            totals = e.get("cycle_totals")
            row.append("-" if totals is None
                       else f"{100.0 * totals['skip_rate']:.1f}%")
        if has_debt:
            debt = e.get("lint_suppressions")
            row.append("-" if debt is None else str(debt))
        # Every row must line up with the header exactly; a mismatch
        # means a column group above forgot its '-' placeholders for
        # summaries predating that column.
        assert len(row) == len(header), (
            f"trend row for {e['summary']} has {len(row)} cells, "
            f"header has {len(header)}")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(header))]
    for row in rows:
        print(("  " + "  ".join(
            cell.ljust(w) for cell, w in zip(row, widths))).rstrip())


def run_trend(args, parser):
    if args.micro or args.compare:
        parser.error("--trend takes previously written summary files "
                     "only (no --micro/--compare)")
    if not args.runs:
        parser.error("--trend needs at least one summary file")
    entries = trend_entries(args.runs)
    print(f"wall-clock trend across {len(entries)} summaries "
          "(argument order, oldest first):")
    print_trend(entries)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"generated_by": "tools/bench_summary.py",
             "trend": entries}, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="merge labeled bench-report directories")
    parser.add_argument("--out",
                        help="path of the merged JSON summary "
                             "(required unless --trend)")
    parser.add_argument("--trend", action="store_true",
                        help="positional args are summaries written "
                             "by this script; print a longitudinal "
                             "wall-clock table across them")
    parser.add_argument("--micro", action="append", default=[],
                        metavar="LABEL=DIR",
                        help="labeled microbenchmark result directory")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="gate micro kernels against a previous "
                             "summary written by this script")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="maximum tolerated micro slowdown ratio "
                             "(default 2.0)")
    parser.add_argument("runs", nargs="*", metavar="LABEL=DIR",
                        help="labeled result directory (e.g. "
                             "cold=...), or summary files with "
                             "--trend")
    args = parser.parse_args()

    if args.trend:
        return run_trend(args, parser)
    if not args.out:
        parser.error("--out is required unless --trend")
    if not args.runs and not args.micro:
        parser.error("need at least one LABEL=DIR (positional or "
                     "--micro)")
    if args.compare and not args.micro:
        parser.error("--compare requires --micro directories to "
                     "compare")

    labeled = parse_labeled(args.runs, parser)
    micro_labeled = parse_labeled(args.micro, parser, taken=labeled)

    # Bench sets must agree within each group; the two groups are
    # disjoint by design (table/figure benches vs. micro kernels), so
    # they are not compared against each other.
    failed = []
    summary = {
        "generated_by": "tools/bench_summary.py",
        "labels": sorted(labeled),
    }
    totals = {}
    if labeled:
        check_same_bench_set(labeled)
        summary["benches"] = merge_labeled(labeled, failed)
        totals = {label: phase_totals(reports)
                  for label, reports in labeled.items()}
        summary["phase_totals"] = totals

    micro_totals = {}
    if micro_labeled:
        check_same_bench_set(micro_labeled)
        micro_totals = {label: phase_totals(reports)
                        for label, reports in micro_labeled.items()}
        summary["micro"] = {
            "labels": sorted(micro_labeled),
            "benches": merge_labeled(micro_labeled, failed),
            "phase_totals": micro_totals,
        }

    # The headline number: how much faster a warm cache acquires traces
    # than cold generation.  Only meaningful when both labels exist.
    if "cold" in totals and "warm" in totals:
        cold = sum(totals["cold"].get(p, 0.0) for p in ACQUIRE_PHASES)
        warm = sum(totals["warm"].get(p, 0.0) for p in ACQUIRE_PHASES)
        summary["trace_acquire_seconds"] = {
            "cold": round(cold, 6),
            "warm": round(warm, 6),
        }
        if warm > 0:
            summary["trace_acquire_speedup"] = round(cold / warm, 2)

    regressions = []
    if args.compare:
        compare_doc, regressions = compare_micro(
            args.compare, micro_totals, args.threshold)
        summary["micro_compare"] = compare_doc

    cycles = cycle_totals(summary)
    if cycles:
        summary["cycle_totals"] = cycles

    # Stamp the tree's current suppression debt so --trend can chart
    # it longitudinally alongside wall-clock.
    if (REPO_ROOT / "src").is_dir():
        summary["lint_suppressions"] = count_suppressions(REPO_ROOT)

    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")

    nbench = len(summary.get("benches", {}))
    nmicro = len(summary.get("micro", {}).get("benches", {}))
    all_labels = sorted(labeled) + sorted(micro_labeled)
    print(f"wrote {args.out}: {nbench} benches, {nmicro} micro, "
          f"labels {', '.join(all_labels)}")
    for label, phases in sorted({**totals, **micro_totals}.items()):
        line = ", ".join(f"{k}={v:.3f}s" for k, v in phases.items())
        print(f"  {label}: {line}")
    if "trace_acquire_speedup" in summary:
        print(f"  trace acquisition speedup (cold/warm): "
              f"{summary['trace_acquire_speedup']}x")
    if cycles:
        print(f"  fast-forward skip rate: "
              f"{cycles['cycles_skipped']}/"
              f"{cycles['cycles_simulated'] + cycles['cycles_skipped']}"
              f" cycles skipped "
              f"({100.0 * cycles['skip_rate']:.1f}%)")
    if args.compare:
        ratios = summary["micro_compare"]["ratios"]
        line = ", ".join(f"{k.removeprefix('micro_')}={v:.2f}x"
                         for k, v in sorted(ratios.items()))
        print(f"  micro vs baseline (current/baseline): {line}")

    status = 0
    if failed:
        print("FAILED shape checks in: " + ", ".join(sorted(failed)),
              file=sys.stderr)
        status = 1
    if regressions:
        print("MICRO REGRESSIONS (vs " + str(args.compare) + "):\n  "
              + "\n  ".join(regressions), file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:
        print(f"bench_summary: {err}", file=sys.stderr)
        sys.exit(1)
