"""Self-tests for the benchmark's own logic.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The composed-ADORE-loop equality test lives with the tracer:

    cargo test --release --manifest-path perfbench/tracer/Cargo.toml
"""

import copy
import json
import os
import re
import unittest

import run

# The benchmark contract's character sets for metric/workload names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(rel):
    with open(os.path.join(ROOT, rel)) as f:
        return json.load(f)


class TailPercentile(unittest.TestCase):
    def test_keeps_at_least_ten_samples_beyond(self):
        for n in range(20, 400):
            p, value, count = run.tail_percentile(list(range(1, n + 1)))
            self.assertEqual(count, n)
            # Nearest rank: p is the value itself when samples are 1..n.
            self.assertGreaterEqual(n - value, 10, n)
            # One percentile higher would leave fewer than ten beyond.
            if p < 99:
                self.assertLess(n - run.math.ceil((p + 1) * n / 100), 10, n)

    def test_known_sizes(self):
        self.assertEqual(run.tail_percentile(range(34))[0], 70)
        self.assertEqual(run.tail_percentile(range(40))[0], 75)
        self.assertEqual(run.tail_percentile(range(1000))[0], 99)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(run.tail_percentile([5, 1, 3]), (50, 3, 3))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        b = load("BENCHMARK.json")
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for n in names:
            self.assertRegex(n, NAME_RE)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        # Every listed workload has a runner (fuzz_campaign has one but is
        # not listed: HISTORY.md).
        self.assertLessEqual(set(names[:len(b["workloads"])]), set(run.WORKLOADS))

    def test_end_to_end_matches_the_runner(self):
        b = load("BENCHMARK.json")
        self.assertEqual({m["name"]: m["unit"] for m in b["end_to_end"]}, run.END_TO_END)
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_charset_rejects_bad_names(self):
        for bad in ("", "-lead", "has space", "slash/name", "x" * 65, "ü"):
            self.assertNotRegex(bad, NAME_RE)


class Fig7Math(unittest.TestCase):
    def test_reference_report_summary(self):
        ref = load("results/fig7.json")
        gm, err = run.fig7_summary(ref["part_a"] + ref["part_b"])
        self.assertEqual(round(gm, 2), 2.09)
        self.assertEqual(round(err, 2), 5.78)

    def test_fixed_rows(self):
        self.assertAlmostEqual(run.speedup_gm_pct([(110, 100), (100, 100)]),
                               (1.1 ** 0.5 - 1) * 100)
        self.assertAlmostEqual(run.paper_err_pp([(1.0, 3.0), (5.0, 2.0)]), 2.5)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.ref = load("results/fig7.json")

    def test_reference_rows_pass(self):
        self.assertEqual(run.check_fig7_rows(copy.deepcopy(self.ref), self.ref), [])

    def test_altered_fig7_row_fails(self):
        got = copy.deepcopy(self.ref)
        got["part_b"][3]["adore_cycles"] += 1
        errors = run.check_fig7_rows(got, self.ref)
        self.assertEqual(len(errors), 1)
        self.assertIn("part_b", errors[0])

    def serve_rows(self):
        rows = []
        for r in self.ref["part_a"]:
            row = {k: v for k, v in r.items() if k != "paper_speedup_pct"}
            rows.append(({"workload": r["bench"], "measure": "comparison"}, row))
        return rows

    def test_serve_rows_match_part_a(self):
        self.assertEqual(run.check_serve_rows(self.serve_rows(), self.ref["part_a"]), [])

    def test_altered_serve_row_fails(self):
        rows = self.serve_rows()
        rows[0][1]["speedup_pct"] += 0.5
        self.assertEqual(len(run.check_serve_rows(rows, self.ref["part_a"])), 1)

    def test_error_row_fails(self):
        rows = self.serve_rows()
        rows.append(({"workload": "gc", "measure": "policy"}, {"bench": "gc", "error": "boom"}))
        self.assertEqual(len(run.check_serve_rows(rows, self.ref["part_a"])), 1)


class Determinism(unittest.TestCase):
    def test_ledger_records_then_pins(self):
        ledger = {}
        self.assertEqual(run.check_ledger(ledger, "w", {"a": 1, "b": 2.5}), [])
        self.assertEqual(run.check_ledger(ledger, "w", {"a": 1, "b": 2.5}), [])
        errors = run.check_ledger(ledger, "w", {"a": 2, "b": 2.5})
        self.assertEqual(len(errors), 1)
        self.assertIn("a", errors[0])
        self.assertEqual(run.check_ledger(ledger, "other", {"a": 2}), [])

    def test_ledger_pins_only_the_same_sources(self):
        ledger = {}
        parent = run.ledger_scope("fig7_quick", "aaaa", 1, 1)
        change = run.ledger_scope("fig7_quick", "bbbb", 1, 1)
        self.assertEqual(run.check_ledger(ledger, parent, {"cov": 90}), [])
        self.assertEqual(run.check_ledger(ledger, change, {"cov": 95}), [])
        self.assertEqual(run.check_ledger(ledger, parent, {"cov": 90}), [])
        self.assertEqual(len(run.check_ledger(ledger, change, {"cov": 96})), 1)
        # fig7 results do not depend on the seed; a fuzz run's do.
        self.assertEqual(parent, run.ledger_scope("fig7_quick", "aaaa", 2, 1))
        self.assertNotEqual(run.ledger_scope("fuzz_campaign", "aaaa", 1, 2),
                            run.ledger_scope("fuzz_campaign", "aaaa", 2, 2))

    def test_repetitions_must_agree(self):
        self.assertEqual(run.same_values("w", [{"x": 1}, {"x": 1}]), [])
        self.assertEqual(len(run.same_values("w", [{"x": 1}, {"x": 1}, {"x": 2}])), 1)


class Requests(unittest.TestCase):
    def test_seeded_shuffle(self):
        a, b = run.serve_requests(7), run.serve_requests(7)
        self.assertEqual(a, b)
        self.assertNotEqual(a, run.serve_requests(8))
        self.assertEqual(len(a), 40)
        self.assertEqual(sum(r["measure"] == "policy" for r in a), 20)


if __name__ == "__main__":
    unittest.main()
