#!/usr/bin/env python3
"""tools/bench_gate.py must fail loudly on broken artifacts and on
micro-kernel regressions.

Each case builds result directories in a temporary tree, invokes the
real script as a subprocess (exactly how CI calls it), and asserts the
exit status and -- for failures -- that the diagnostic names the
offending file, bench or kernel.  The gate is the last line of defense
between a crashed bench and a green CI run, so "garbage in, nonzero
out" is load-bearing.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_gate.py"


def good_report(bench, ok=True):
    return {
        "bench": bench,
        "reproduces": "Table 1",
        "scale": 0.1,
        "all_checks_ok": ok,
        "shape_checks": [{"what": f"{bench} rows present", "ok": ok}],
        "phase_seconds": {"trace_generate": 1.5, "simulate": 2.0},
    }


def micro_report(kernel, seconds, ok=True):
    doc = good_report("micro_x", ok=ok)
    doc["phase_seconds"] = {f"micro_{kernel}": seconds, "simulate": 0.5}
    return doc


class GateTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, doc):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    def gate(self, *argv):
        return subprocess.run(
            [sys.executable, str(SCRIPT), *[str(a) for a in argv]],
            capture_output=True, text=True)

    def assert_fails(self, proc, *needles):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        for needle in needles:
            self.assertIn(needle, proc.stderr)


class Reports(GateTest):
    def reports(self, *dirs):
        return self.gate("reports", *[self.root / d for d in dirs])

    def test_well_formed_reports_pass(self):
        for d in ("cold", "warm"):
            self.write(f"{d}/a.json", good_report("bench_a"))
            self.write(f"{d}/b.json", good_report("bench_b"))
        proc = self.reports("cold", "warm")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 reports", proc.stdout)

    def test_missing_directory_fails(self):
        self.assert_fails(self.reports("nonexistent"), "missing")

    def test_empty_directory_fails(self):
        (self.root / "cold").mkdir()
        self.assert_fails(self.reports("cold"), "no bench reports")

    def test_truncated_json_fails(self):
        self.write("cold/a.json", '{"bench": "bench_a", "all_')
        self.assert_fails(self.reports("cold"), "a.json")

    def test_non_object_top_level_fails(self):
        self.write("cold/a.json", [1, 2, 3])
        self.assert_fails(self.reports("cold"), "not a JSON object")

    def malformed(self, mutate, needle):
        doc = good_report("bench_a")
        mutate(doc)
        self.write("cold/a.json", doc)
        self.assert_fails(self.reports("cold"), "a.json", needle)

    def test_missing_bench_field_fails(self):
        self.malformed(lambda d: d.pop("bench"), "'bench'")

    def test_missing_all_checks_ok_fails(self):
        self.malformed(lambda d: d.pop("all_checks_ok"), "all_checks_ok")

    def test_non_numeric_phase_seconds_fails(self):
        self.malformed(lambda d: d["phase_seconds"].update(simulate="fast"),
                       "phase_seconds")

    def test_malformed_shape_check_entry_fails(self):
        self.malformed(lambda d: d.update(
            shape_checks=[{"what": "no verdict field"}]), "shape_checks")

    def test_non_numeric_cycle_stats_fails(self):
        self.malformed(lambda d: d.update(cycle_stats={
            "cycles_simulated": "many", "cycles_skipped": 0}),
            "cycle_stats")

    def test_duplicate_bench_in_one_directory_fails(self):
        self.write("cold/a.json", good_report("bench_a"))
        self.write("cold/dup.json", good_report("bench_a"))
        self.assert_fails(self.reports("cold"), "duplicate")

    def test_failed_shape_check_in_any_directory_fails(self):
        self.write("cold/a.json", good_report("bench_a"))
        self.write("micro/m.json", micro_report("k", 0.1, ok=False))
        self.assert_fails(self.reports("cold", "micro"), "micro_x",
                          "micro_x rows present")

    def test_no_directories_is_a_usage_error(self):
        self.assertEqual(self.gate("reports").returncode, 2)


class Micro(GateTest):
    def compare(self, base=("k", 0.1), head=("k", 0.1), threshold=None):
        self.write("base/m.json", micro_report(*base))
        self.write("head/m.json", micro_report(*head))
        extra = [] if threshold is None else ["--threshold", threshold]
        return self.gate("micro", self.root / "base", self.root / "head",
                         *extra)

    def test_within_threshold_passes(self):
        proc = self.compare(head=("k", 0.15))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("k=1.50x", proc.stdout)

    def test_regression_fails(self):
        self.assert_fails(self.compare(head=("k", 0.5), threshold=2.0),
                          "micro_k", "REGRESSION")

    def test_threshold_is_honoured(self):
        proc = self.compare(head=("k", 0.5), threshold=6.0)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_ignores_sub_floor_baselines(self):
        # A 0.1 ms kernel tripling is timer noise, not a regression.
        proc = self.compare(base=("k", 0.0001), head=("k", 0.0003))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_vanished_kernel_fails(self):
        self.assert_fails(self.compare(base=("gone", 0.1)), "micro_gone")

    def test_skips_only_retired_kernels(self):
        # A kernel on the retired list may vanish, the AoS/SoA pairs
        # that left with the SIMD kernels included.
        for kernel in ("ms_skip_reference", "scan_aos", "scan_soa",
                       "wakeup_aos", "wakeup_soa", "probe_aos",
                       "probe_soa"):
            with self.subTest(kernel=kernel):
                proc = self.compare(base=(kernel, 0.1))
                self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_gates_retired_name_still_present(self):
        # The list only excuses absence: a listed kernel that still
        # runs is gated like any other.
        self.assert_fails(
            self.compare(base=("arb_probe_8shard", 0.1),
                         head=("arb_probe_8shard", 0.5), threshold=2.0),
            "micro_arb_probe_8shard")

    def test_baseline_without_micro_phases_fails(self):
        self.write("base/a.json", good_report("bench_a"))
        self.write("head/m.json", micro_report("k", 0.1))
        self.assert_fails(self.gate("micro", self.root / "base",
                                    self.root / "head"), "micro_*")

    def test_malformed_head_directory_fails(self):
        self.write("base/m.json", micro_report("k", 0.1))
        self.write("head/m.json", '{"bench": ')
        self.assert_fails(self.gate("micro", self.root / "base",
                                    self.root / "head"), "m.json")


if __name__ == "__main__":
    unittest.main()
