#!/usr/bin/env python3
"""tools/bench_summary.py must fail loudly on broken artifacts.

Each case builds a temporary result-directory layout, invokes the
real script as a subprocess (exactly how CI calls it), and asserts
the exit status and -- for failures -- that the diagnostic names the
offending file or bench.  The merge script is the last line of
defense between a crashed bench and a green CI run, so "garbage in,
nonzero out" is load-bearing.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "bench_summary.py"


def good_report(bench, ok=True):
    return {
        "bench": bench,
        "reproduces": "Table 1",
        "scale": 0.1,
        "all_checks_ok": ok,
        "shape_checks": [
            {"what": f"{bench} rows present", "ok": ok},
        ],
        "phase_seconds": {"trace_generate": 1.5, "simulate": 2.0},
    }


class BenchSummaryTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, doc):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(doc, (dict, list)):
            path.write_text(json.dumps(doc))
        else:
            path.write_text(doc)
        return path

    def run_summary(self, *runs):
        out = self.root / "summary.json"
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--out", str(out), *runs],
            capture_output=True, text=True)

    def test_well_formed_reports_merge_cleanly(self):
        for label in ("cold", "warm"):
            self.write(f"{label}/a.json", good_report("bench_a"))
            self.write(f"{label}/b.json", good_report("bench_b"))
        proc = self.run_summary(f"cold={self.root}/cold",
                                f"warm={self.root}/warm")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertEqual(sorted(summary["benches"]),
                         ["bench_a", "bench_b"])
        self.assertIn("trace_acquire_seconds", summary)

    def test_missing_directory_fails(self):
        proc = self.run_summary(f"cold={self.root}/nonexistent")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("missing", proc.stderr)

    def test_empty_directory_fails(self):
        (self.root / "cold").mkdir()
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("no bench reports", proc.stderr)

    def test_truncated_json_fails(self):
        self.write("cold/a.json", '{"bench": "bench_a", "all_')
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("a.json", proc.stderr)

    def test_non_object_top_level_fails(self):
        self.write("cold/a.json", [1, 2, 3])
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("not a JSON object", proc.stderr)

    def test_missing_bench_field_fails(self):
        doc = good_report("bench_a")
        del doc["bench"]
        self.write("cold/a.json", doc)
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("'bench'", proc.stderr)

    def test_missing_all_checks_ok_fails(self):
        doc = good_report("bench_a")
        del doc["all_checks_ok"]
        self.write("cold/a.json", doc)
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("all_checks_ok", proc.stderr)

    def test_non_numeric_phase_seconds_fails(self):
        doc = good_report("bench_a")
        doc["phase_seconds"]["simulate"] = "fast"
        self.write("cold/a.json", doc)
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("phase_seconds", proc.stderr)

    def test_malformed_shape_check_entry_fails(self):
        doc = good_report("bench_a")
        doc["shape_checks"] = [{"what": "no verdict field"}]
        self.write("cold/a.json", doc)
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("shape_checks", proc.stderr)

    def test_bench_set_mismatch_across_labels_fails(self):
        # bench_b crashed before writing its warm artifact: the merge
        # must refuse rather than silently compare a smaller set.
        self.write("cold/a.json", good_report("bench_a"))
        self.write("cold/b.json", good_report("bench_b"))
        self.write("warm/a.json", good_report("bench_a"))
        proc = self.run_summary(f"cold={self.root}/cold",
                                f"warm={self.root}/warm")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("bench_b", proc.stderr)
        self.assertIn("warm", proc.stderr)

    def test_duplicate_bench_in_one_label_fails(self):
        self.write("cold/a.json", good_report("bench_a"))
        self.write("cold/dup.json", good_report("bench_a"))
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("duplicate", proc.stderr)

    def micro_report(self, bench, kernel, seconds, ok=True):
        doc = good_report(bench, ok=ok)
        doc["phase_seconds"] = {f"micro_{kernel}": seconds,
                                "simulate": 0.5}
        return doc

    def test_micro_group_is_independent_of_main_labels(self):
        # Main labels cover bench_a; the micro group covers a disjoint
        # set.  The cross-label equality check must not compare the
        # two groups against each other.
        self.write("cold/a.json", good_report("bench_a"))
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1))
        proc = self.run_summary(f"cold={self.root}/cold",
                                f"--micro=pr={self.root}/micro")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertEqual(list(summary["benches"]), ["bench_a"])
        self.assertEqual(list(summary["micro"]["benches"]), ["micro_x"])
        self.assertAlmostEqual(
            summary["micro"]["phase_totals"]["pr"]["micro_k"], 0.1)

    def test_micro_set_mismatch_within_group_fails(self):
        self.write("a/m.json", self.micro_report("micro_x", "k", 0.1))
        self.write("b/other.json",
                   self.micro_report("micro_y", "k", 0.1))
        proc = self.run_summary(f"--micro=a={self.root}/a",
                                f"--micro=b={self.root}/b")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("missing bench reports", proc.stderr)

    def test_micro_failed_shape_check_exits_nonzero(self):
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1, ok=False))
        proc = self.run_summary(f"--micro=pr={self.root}/micro")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("micro_x", proc.stderr)

    def run_compare(self, baseline, threshold=None):
        extra = ["--compare", str(baseline)]
        if threshold is not None:
            extra += ["--threshold", str(threshold)]
        return self.run_summary(f"--micro=pr={self.root}/micro", *extra)

    def write_baseline(self, kernel="k", seconds=0.1):
        self.write("base/m.json",
                   self.micro_report("micro_x", kernel, seconds))
        out = self.root / "baseline.json"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--out", str(out),
             f"--micro=base={self.root}/base"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out

    def test_compare_within_threshold_passes(self):
        baseline = self.write_baseline(seconds=0.1)
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.15))
        proc = self.run_compare(baseline)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertAlmostEqual(
            summary["micro_compare"]["ratios"]["micro_k"], 1.5)

    def test_compare_regression_fails(self):
        baseline = self.write_baseline(seconds=0.1)
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.5))
        proc = self.run_compare(baseline, threshold=2.0)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("micro_k", proc.stderr)
        self.assertIn("REGRESSION", proc.stderr)
        # The summary is still written so CI can archive the evidence.
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertTrue(summary["micro_compare"]["regressions"])

    def test_compare_ignores_sub_floor_baselines(self):
        # A 0.1 ms kernel tripling is timer noise, not a regression.
        baseline = self.write_baseline(seconds=0.0001)
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.0003))
        proc = self.run_compare(baseline, threshold=2.0)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_compare_vanished_kernel_fails(self):
        baseline = self.write_baseline(kernel="gone")
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1))
        proc = self.run_compare(baseline)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("micro_gone", proc.stderr)

    def test_compare_skips_only_retired_kernels(self):
        # A kernel on the committed retired list may vanish; the
        # summary records it as retired, not as a ratio.
        baseline = self.write_baseline(kernel="ms_skip_reference")
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1))
        proc = self.run_compare(baseline)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertEqual(summary["micro_compare"]["retired"],
                         ["micro_ms_skip_reference"])
        self.assertEqual(summary["micro_compare"]["regressions"], [])

    def test_compare_skips_retired_soa_pairs(self):
        # micro_model_cycle's AoS/SoA pairs left with the SIMD kernels;
        # a baseline that still has one of them compares clean.
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1))
        for pair in ("scan", "wakeup", "probe"):
            for layout in ("aos", "soa"):
                kernel = f"{pair}_{layout}"
                with self.subTest(kernel=kernel):
                    baseline = self.write_baseline(kernel=kernel)
                    proc = self.run_compare(baseline)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    summary = json.loads(
                        (self.root / "summary.json").read_text())
                    self.assertEqual(
                        summary["micro_compare"]["retired"],
                        [f"micro_{kernel}"])

    def test_compare_gates_retired_name_still_present(self):
        # The list only excuses absence: a listed kernel that still
        # runs is gated like any other.
        baseline = self.write_baseline(kernel="arb_probe_8shard",
                                       seconds=0.1)
        self.write("micro/m.json",
                   self.micro_report("micro_x", "arb_probe_8shard", 0.5))
        proc = self.run_compare(baseline, threshold=2.0)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("micro_arb_probe_8shard", proc.stderr)

    def test_compare_baseline_without_micro_fails(self):
        self.write("cold/a.json", good_report("bench_a"))
        out = self.root / "plain.json"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--out", str(out),
             f"cold={self.root}/cold"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.write("micro/m.json",
                   self.micro_report("micro_x", "k", 0.1))
        proc = self.run_compare(out)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("micro", proc.stderr)

    def test_compare_without_micro_dirs_is_an_error(self):
        self.write("cold/a.json", good_report("bench_a"))
        proc = self.run_summary(f"cold={self.root}/cold",
                                "--compare", "whatever.json")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("--micro", proc.stderr)

    def test_no_directories_at_all_is_an_error(self):
        proc = self.run_summary()
        self.assertNotEqual(proc.returncode, 0)

    # ---- cycle_stats surfacing --------------------------------------

    def report_with_cycles(self, bench, simulated, skipped):
        doc = good_report(bench)
        doc["cycle_stats"] = {
            "cycles_simulated": simulated,
            "cycles_skipped": skipped,
            "skip_rate": skipped / max(1, simulated + skipped),
        }
        return doc

    def test_cycle_stats_are_copied_and_aggregated(self):
        self.write("cold/a.json",
                   self.report_with_cycles("bench_a", 100, 300))
        self.write("cold/b.json",
                   self.report_with_cycles("bench_b", 50, 50))
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        run = summary["benches"]["bench_a"]["runs"]["cold"]
        self.assertEqual(run["cycle_stats"]["cycles_skipped"], 300)
        totals = summary["cycle_totals"]
        self.assertEqual(totals["cycles_simulated"], 150)
        self.assertEqual(totals["cycles_skipped"], 350)
        self.assertAlmostEqual(totals["skip_rate"], 0.7)
        self.assertIn("skip rate", proc.stdout)

    def test_reports_without_cycle_stats_omit_totals(self):
        # Pre-fast-forward artifacts (and the window-model benches,
        # which have no cycle loop) carry no cycle_stats; the summary
        # must omit the aggregate rather than claim a 0% skip rate.
        self.write("cold/a.json", good_report("bench_a"))
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertNotIn("cycle_totals", summary)

    def test_non_numeric_cycle_stats_fails(self):
        doc = good_report("bench_a")
        doc["cycle_stats"] = {"cycles_simulated": "many",
                              "cycles_skipped": 0}
        self.write("cold/a.json", doc)
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("cycle_stats", proc.stderr)

    # ---- --trend ----------------------------------------------------

    def write_summary(self, name, dirs):
        """Run the merge mode over labeled dirs; return the out path."""
        out = self.root / name
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--out", str(out), *dirs],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out

    def run_trend(self, *argv):
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--trend", *argv],
            capture_output=True, text=True)

    def test_trend_prints_longitudinal_table(self):
        self.write("old/cold/a.json",
                   self.report_with_cycles("bench_a", 400, 100))
        self.write("old/warm/a.json",
                   self.report_with_cycles("bench_a", 400, 100))
        old = self.write_summary("BENCH_old.json",
                                 [f"cold={self.root}/old/cold",
                                  f"warm={self.root}/old/warm"])
        self.write("new/cold/a.json",
                   self.report_with_cycles("bench_a", 100, 400))
        new = self.write_summary("BENCH_new.json",
                                 [f"cold={self.root}/new/cold"])
        proc = self.run_trend(str(old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # One row per summary, argument order, with per-label seconds
        # and the aggregate skip rate; labels absent from a summary
        # render as '-'.
        lines = proc.stdout.splitlines()
        old_row = next(l for l in lines if "BENCH_old.json" in l)
        new_row = next(l for l in lines if "BENCH_new.json" in l)
        self.assertLess(lines.index(old_row), lines.index(new_row))
        self.assertIn("20.0%", old_row)
        self.assertIn("80.0%", new_row)
        self.assertIn("-", new_row)  # no warm label in the new summary
        header = next(l for l in lines if "summary" in l)
        self.assertIn("cold", header)
        self.assertIn("warm", header)
        self.assertIn("skip_rate", header)

    def test_trend_header_order_is_first_appearance(self):
        # A label introduced by a LATER summary (here: e2e_intra4,
        # the intra-run parallelism wall-clock) must append on the
        # right of the existing columns, not alphabetically reshuffle
        # them -- longitudinal readers diff these tables across CI
        # runs.  Old summaries predating the column render '-'.
        self.write("old/cold/a.json", good_report("bench_a"))
        old = self.write_summary("BENCH_old.json",
                                 [f"cold={self.root}/old/cold"])
        self.write("new/cold/a.json", good_report("bench_a"))
        self.write("new/aaa_intra4/a.json", good_report("bench_a"))
        new = self.write_summary(
            "BENCH_new.json",
            [f"cold={self.root}/new/cold",
             f"aaa_intra4={self.root}/new/aaa_intra4"])
        proc = self.run_trend(str(old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        header = next(l for l in lines if "summary" in l)
        # 'aaa_intra4' sorts before 'cold' but appeared later, so it
        # must come after it.
        self.assertLess(header.index("cold"), header.index("aaa_intra4"))
        old_row = next(l for l in lines if "BENCH_old.json" in l)
        self.assertIn("-", old_row)

    def test_trend_header_stable_under_argument_reversal(self):
        # The same mixed summaries fed in either order keep each row's
        # cells aligned with the header (the row-length assert in
        # print_trend); reversing only reorders rows and columns
        # consistently, it never misaligns cells.
        self.write("a/cold/a.json", good_report("bench_a"))
        a = self.write_summary("BENCH_a.json",
                               [f"cold={self.root}/a/cold"])
        self.write("b/warm/a.json", good_report("bench_a"))
        b = self.write_summary("BENCH_b.json",
                               [f"warm={self.root}/b/warm"])
        fwd = self.run_trend(str(a), str(b))
        rev = self.run_trend(str(b), str(a))
        self.assertEqual(fwd.returncode, 0, fwd.stderr)
        self.assertEqual(rev.returncode, 0, rev.stderr)
        fwd_header = next(l for l in fwd.stdout.splitlines()
                          if "summary" in l)
        rev_header = next(l for l in rev.stdout.splitlines()
                          if "summary" in l)
        self.assertLess(fwd_header.index("cold"),
                        fwd_header.index("warm"))
        self.assertLess(rev_header.index("warm"),
                        rev_header.index("cold"))

    def test_trend_emits_json_with_out(self):
        self.write("cold/a.json", good_report("bench_a"))
        summary = self.write_summary("BENCH_a.json",
                                     [f"cold={self.root}/cold"])
        out = self.root / "trend.json"
        proc = self.run_trend(str(summary), "--out", str(out))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = json.loads(out.read_text())
        self.assertEqual(len(doc["trend"]), 1)
        entry = doc["trend"][0]
        self.assertEqual(entry["summary"], str(summary))
        # good_report: trace_generate 1.5 + simulate 2.0 per bench.
        self.assertAlmostEqual(entry["wall_seconds"]["cold"], 3.5)
        self.assertNotIn("cycle_totals", entry)

    # ---- manycore scale-out column ----------------------------------

    def manycore_report(self, pes_rows, phases):
        """A manycore_scaling report whose main table has one
        (pes, sim_cycles) row per entry and the given phase map."""
        doc = good_report("manycore_scaling")
        doc["phase_seconds"] = phases
        doc["tables"] = {"main": {
            "header": ["pes", "topo", "policy", "workload", "ipc",
                       "misspec", "fwd_hops", "cycles", "sim_cycles"],
            "rows": [[str(pes), "ring", "always", "bfs", "0.5", "1",
                      "7.7", "400", str(sim)]
                     for pes, sim in pes_rows],
        }}
        return doc

    def test_manycore_headline_lands_in_summary_and_trend(self):
        # 6 sim-seconds over 2M simulated 1024-PE cycles -> 3 s/Mcyc;
        # the 8-PE rows and phases must not contribute.
        self.write("cold/mc.json", self.manycore_report(
            [(8, 999), (1024, 1500000), (1024, 500000)],
            {"sim_8pe_ring": 0.1, "sim_1024pe_ring": 4.0,
             "sim_1024pe_mesh": 2.0}))
        summary = self.write_summary("BENCH_mc.json",
                                     [f"cold={self.root}/cold"])
        doc = json.loads(summary.read_text())
        headline = doc["benches"]["manycore_scaling"]["manycore_1024pe"]
        self.assertEqual(headline["sim_cycles"], 2000000)
        self.assertAlmostEqual(headline["seconds_per_mcycle"], 3.0)
        proc = self.run_trend(str(summary))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        header = next(l for l in lines if "summary" in l)
        self.assertIn("1024pe s/Mcyc", header)
        self.assertIn("3.000", next(l for l in lines
                                    if "BENCH_mc.json" in l))

    def test_manycore_fastest_label_wins(self):
        # Both labels ran the same binary; the less-disturbed (faster)
        # measurement is the one worth trending.
        rows = [(1024, 1000000)]
        self.write("cold/mc.json", self.manycore_report(
            rows, {"sim_1024pe_ring": 4.0}))
        self.write("warm/mc.json", self.manycore_report(
            rows, {"sim_1024pe_ring": 2.0}))
        summary = self.write_summary("BENCH_mc.json",
                                     [f"cold={self.root}/cold",
                                      f"warm={self.root}/warm"])
        doc = json.loads(summary.read_text())
        headline = doc["benches"]["manycore_scaling"]["manycore_1024pe"]
        self.assertAlmostEqual(headline["seconds_per_mcycle"], 2.0)

    def test_manycore_column_renders_dash_for_older_summaries(self):
        # A summary predating the bench (or the table) contributes no
        # headline; its trend row renders '-' in the manycore column,
        # and with no manycore summaries at all the column is absent.
        self.write("old/cold/a.json", good_report("bench_a"))
        old = self.write_summary("BENCH_old.json",
                                 [f"cold={self.root}/old/cold"])
        proc = self.run_trend(str(old))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("1024pe s/Mcyc", proc.stdout)
        self.write("new/cold/mc.json", self.manycore_report(
            [(1024, 1000000)], {"sim_1024pe_ring": 1.0}))
        new = self.write_summary("BENCH_new.json",
                                 [f"cold={self.root}/new/cold"])
        proc = self.run_trend(str(old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertIn("1024pe s/Mcyc",
                      next(l for l in lines if "summary" in l))
        self.assertIn("-", next(l for l in lines
                                if "BENCH_old.json" in l))

    # ---- suppression debt -------------------------------------------

    def test_summary_stamps_suppression_debt(self):
        self.write("cold/a.json", good_report("bench_a"))
        summary = self.write_summary("BENCH_a.json",
                                     [f"cold={self.root}/cold"])
        doc = json.loads(summary.read_text())
        self.assertIsInstance(doc.get("lint_suppressions"), int)
        self.assertGreaterEqual(doc["lint_suppressions"], 0)

    def test_trend_shows_suppression_debt_column(self):
        self.write("cold/a.json", good_report("bench_a"))
        old = self.write_summary("BENCH_old.json",
                                 [f"cold={self.root}/cold"])
        doc = json.loads(old.read_text())
        doc["lint_suppressions"] = 7
        old.write_text(json.dumps(doc))
        new = self.write_summary("BENCH_new.json",
                                 [f"cold={self.root}/cold"])
        doc = json.loads(new.read_text())
        doc.pop("lint_suppressions", None)  # pre-column summary
        new.write_text(json.dumps(doc))

        proc = self.run_trend(str(old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        header = next(l for l in lines if "summary" in l)
        self.assertIn("lint allows", header)
        old_row = next(l for l in lines if "BENCH_old.json" in l)
        new_row = next(l for l in lines if "BENCH_new.json" in l)
        self.assertEqual(old_row.split()[-1], "7")
        self.assertEqual(new_row.split()[-1], "-")

    def test_count_suppressions_counts_cpp_tree_only(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            from bench_summary import count_suppressions
        finally:
            sys.path.pop(0)
        marker = "// mdp-lint" + ": allow(nondet-source): why\n"
        self.write("tree/src/mdp/a.cc", "int x;\n" + marker + marker)
        self.write("tree/tools/t.hh", marker)
        # Not counted: fixtures exist to contain violations, build
        # trees are generated, and non-C++ files are out of scope.
        self.write("tree/tests/lint_fixtures/src/f.cc", marker)
        self.write("tree/build/gen.cc", marker)
        self.write("tree/src/notes.md", marker)
        self.assertEqual(count_suppressions(self.root / "tree"), 3)

    # ---- --trend with mdp_served batch reports ----------------------

    def batch_report(self, completed=8, passes=1, wall=2.0):
        """What mdp_served --batch-report writes (envelope + counters)."""
        return {
            "bench": "mdp_served_batch",
            "reproduces": "mdp_served batch-server run",
            "all_checks_ok": True,
            "shape_checks": [],
            "phase_seconds": {"simulate": wall * 0.9},
            "cycle_stats": {"cycles_simulated": 400,
                            "cycles_skipped": 100,
                            "skip_rate": 0.2},
            "serve_batch": {
                "submitted": completed,
                "accepted": completed,
                "completed": completed,
                "duplicates": 0,
                "rejected_queue_full": 0,
                "rejected_invalid": 0,
                "groups": passes,
                "trace_passes": passes,
                "configs_evaluated": completed,
                "amortization_factor": completed / passes,
                "lockstep_rounds": 30,
                "wall_seconds": wall,
                "requests_per_sec": completed / wall,
            },
        }

    def test_trend_ingests_batch_reports(self):
        self.write("cold/a.json", good_report("bench_a"))
        summary = self.write_summary("BENCH_a.json",
                                     [f"cold={self.root}/cold"])
        batch = self.write("batch.json",
                           self.batch_report(completed=8, passes=1,
                                             wall=2.0))
        out = self.root / "trend.json"
        proc = self.run_trend(str(summary), str(batch),
                              "--out", str(out))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # The table gains server columns; the plain summary renders
        # '-' in them and the batch row carries the numbers.
        lines = proc.stdout.splitlines()
        header = next(l for l in lines if "summary" in l)
        self.assertIn("req/s", header)
        self.assertIn("amortization", header)
        batch_row = next(l for l in lines if "batch.json" in l)
        self.assertIn("4.0", batch_row)    # 8 requests / 2.0 s
        self.assertIn("1/8", batch_row)    # one pass, eight configs
        self.assertIn("8.00x", batch_row)
        plain_row = next(l for l in lines if "BENCH_a.json" in l)
        self.assertIn("-", plain_row)
        # The JSON artifact carries the same numbers plus the batch's
        # own fast-forward skip accounting.
        doc = json.loads(out.read_text())
        entry = doc["trend"][1]
        self.assertAlmostEqual(entry["wall_seconds"]["serve"], 2.0)
        self.assertEqual(entry["serve_batch"]["trace_passes"], 1)
        self.assertAlmostEqual(
            entry["serve_batch"]["amortization_factor"], 8.0)
        self.assertAlmostEqual(
            entry["cycle_totals"]["skip_rate"], 0.2)

    def test_trend_rejects_malformed_batch_report(self):
        doc = self.batch_report()
        del doc["serve_batch"]["amortization_factor"]
        batch = self.write("batch.json", doc)
        proc = self.run_trend(str(batch))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("amortization_factor", proc.stderr)

    def test_trend_rejects_non_numeric_batch_fields(self):
        doc = self.batch_report()
        doc["serve_batch"]["requests_per_sec"] = "many"
        batch = self.write("batch.json", doc)
        proc = self.run_trend(str(batch))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("requests_per_sec", proc.stderr)

    def test_trend_rejects_non_summary_input(self):
        # Feeding a raw bench report (not a summary written by this
        # script) must fail loudly, not render a nonsense row.
        raw = self.write("a.json", good_report("bench_a"))
        proc = self.run_trend(str(raw))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("not a bench_summary.py summary", proc.stderr)

    def test_trend_with_label_dirs_is_an_error(self):
        proc = self.run_trend(f"cold={self.root}/cold",
                              "--micro", f"pr={self.root}/micro")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("--trend", proc.stderr)

    def test_trend_without_files_is_an_error(self):
        proc = self.run_trend()
        self.assertNotEqual(proc.returncode, 0)

    def test_failed_shape_check_exits_nonzero(self):
        self.write("cold/a.json", good_report("bench_a", ok=False))
        proc = self.run_summary(f"cold={self.root}/cold")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("bench_a", proc.stderr)
        # The summary is still written so CI can archive the evidence.
        summary = json.loads((self.root / "summary.json").read_text())
        self.assertFalse(summary["benches"]["bench_a"]["all_checks_ok"])


if __name__ == "__main__":
    unittest.main()
