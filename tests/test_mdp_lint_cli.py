"""mdp_lint CLI contract tests.

The documented exit codes (0 clean, 1 findings, 2 usage/IO error) are
what CI keys off, so they are asserted here through the real binary,
along with --list-rules docs, --help and the file-argument report
filter.  The binary path arrives via the MDP_LINT_BIN
environment variable (set by CMake).
"""

import os
import subprocess
import tempfile
import unittest

LINT = os.environ.get("MDP_LINT_BIN", "")

# One nondet-source finding on line 4.
BAD_CC = """\
#include <cstdlib>

int badEntropy() {
    return std::rand();
}
"""

CLEAN_CC = """\
int answer() {
    return 42;
}
"""

# Table sources (bench/bench_*.cc): the driver finishes every table, so
# a table needs only its ExperimentRunner sweep.
TABLE_OK = """\
namespace mdp {
TextTable okTable(ShapeChecks &sc) {
    ExperimentRunner<SimResult> runner;
    runner.runAll();
    return {};
}
}
"""

TABLE_SERIAL = """\
namespace mdp {
TextTable serialTable(ShapeChecks &sc) {
    cachedContext("gcc", 0.1);
    return {};
}
}
"""


def run(args, cwd=None):
    return subprocess.run(
        [LINT] + args, cwd=cwd, capture_output=True, text=True
    )


class MdpLintCliTest(unittest.TestCase):
    def setUp(self):
        if not LINT or not os.path.exists(LINT):
            self.skipTest("MDP_LINT_BIN not set or missing")
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        os.makedirs(os.path.join(self.root, "src", "mdp"))
        os.makedirs(os.path.join(self.root, "src", "base"))
        self.write("src/mdp/bad.cc", BAD_CC)
        self.write("src/base/ok.cc", CLEAN_CC)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, content):
        with open(os.path.join(self.root, rel), "w") as f:
            f.write(content)

    def lint(self, *extra):
        return run(["--root", self.root] + list(extra))

    # ---- exit codes -------------------------------------------------

    def test_exit_1_on_findings(self):
        r = self.lint()
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("src/mdp/bad.cc:4: [nondet-source]", r.stdout)
        self.assertIn("diagnostic(s)", r.stderr)

    def test_exit_0_on_clean_tree(self):
        os.remove(os.path.join(self.root, "src", "mdp", "bad.cc"))
        r = self.lint()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("clean", r.stdout)

    def test_exit_2_on_unknown_option(self):
        r = run(["--bogus"])
        self.assertEqual(r.returncode, 2)
        self.assertIn("unknown option", r.stderr)

    def test_exit_2_on_missing_option_value(self):
        r = run(["--root"])
        self.assertEqual(r.returncode, 2)

    def test_exit_2_on_missing_named_file(self):
        r = self.lint("src/mdp/missing.cc")
        self.assertEqual(r.returncode, 2)
        self.assertIn("cannot read src/mdp/missing.cc", r.stderr)
        self.assertEqual(r.stdout, "")

    # ---- rule listing and usage -------------------------------------

    def test_list_rules_documents_every_rule(self):
        r = run(["--list-rules"])
        self.assertEqual(r.returncode, 0)
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        ids = [l.split()[0] for l in lines]
        self.assertEqual(ids, [
            "bench-discipline", "header-guard", "include-cycle",
            "layering", "lint-allow", "nondet-source", "ordered-scope",
            "policy-ctx-escape", "policy-static-state", "ptr-order",
            "using-namespace-header",
        ])
        for l in lines:  # every rule has a one-line doc
            self.assertGreater(len(l.split(None, 1)), 1, l)

    def test_help_lists_every_option(self):
        r = run(["--help"])
        self.assertEqual(r.returncode, 0)
        opts = sorted(set(
            w.strip("[]") for w in r.stdout.split()
            if w.strip("[]").startswith("--")))
        self.assertEqual(
            opts, ["--help", "--list-rules", "--root"])

    # ---- bench-discipline over table sources ------------------------

    def test_table_source_needs_a_runner_and_no_finish_bench(self):
        os.makedirs(os.path.join(self.root, "bench"))
        self.write("bench/bench_ok.cc", TABLE_OK)
        self.write("bench/bench_serial.cc", TABLE_SERIAL)
        r = self.lint("bench/bench_ok.cc", "bench/bench_serial.cc")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("bench/bench_serial.cc:1: [bench-discipline]",
                      r.stdout)
        self.assertNotIn("bench_ok.cc", r.stdout)

    # ---- file arguments are a report filter -------------------------

    def test_named_clean_file_reports_nothing(self):
        r = self.lint("src/base/ok.cc")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_named_bad_file_reports_its_findings(self):
        r = self.lint("src/mdp/bad.cc")
        self.assertEqual(r.returncode, 1)
        self.assertIn("src/mdp/bad.cc:4:", r.stdout)


if __name__ == "__main__":
    unittest.main()
