"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. LabelInvariance builds the simulator (the
benchmark's own Release build) on first use.
"""

import collections
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402

F10 = benchlib.FACT10


def sweep_totals(executions, distinct, engine_failures=0, wrong_outputs=0):
    return {"executions": executions, "distinct": distinct,
            "engine_failures": engine_failures, "wrong_outputs": wrong_outputs}


class Verifier(unittest.TestCase):
    def test_accepts_the_expected_totals(self):
        self.assertIsNone(benchlib.verify_round("sweep_exact", 0, sweep_totals(F10, F10)))
        self.assertIsNone(benchlib.verify_round("fleet_hll", 0, sweep_totals(F10, 3_628_868)))
        self.assertIsNone(benchlib.verify_round(
            "memo_grid", 0, sweep_totals(benchlib.FACT12, 13_860)))

    def test_rejects_a_wrong_exact_total(self):
        self.assertIsNotNone(benchlib.verify_round("sweep_exact", 0, sweep_totals(F10 - 1, F10)))
        self.assertIsNotNone(benchlib.verify_round("sweep_exact", 0, sweep_totals(F10, F10 - 1)))
        self.assertIsNotNone(benchlib.verify_round(
            "memo_grid", 0, sweep_totals(benchlib.FACT12, 13_861)))

    def test_rejects_wrong_or_failed_executions(self):
        self.assertIsNotNone(benchlib.verify_round(
            "sweep_exact", 0, sweep_totals(F10, F10, wrong_outputs=1)))
        self.assertIsNotNone(benchlib.verify_round(
            "fleet_hll", 0, sweep_totals(F10, F10, engine_failures=1)))

    def test_rejects_an_hll_estimate_outside_three_sigma(self):
        band = benchlib.hll_band(14, F10)
        self.assertAlmostEqual(band / F10, 0.024375)
        inside, outside = int(F10 + band) - 1, int(F10 + band) + 1
        self.assertIsNone(benchlib.verify_round("fleet_hll", 0, sweep_totals(F10, inside)))
        self.assertIsNotNone(benchlib.verify_round("fleet_hll", 0, sweep_totals(F10, outside)))
        self.assertIsNotNone(benchlib.verify_round(
            "fleet_hll", 0, sweep_totals(F10, F10 - int(band) - 1)))

    def test_rejects_a_nonzero_exit_or_a_missing_result(self):
        self.assertIsNotNone(benchlib.verify_round("sweep_exact", 1, sweep_totals(F10, F10)))
        self.assertIsNotNone(benchlib.verify_round("rmat_bfs", 3, None))
        self.assertIsNotNone(benchlib.verify_round("memo_grid", 0, None))

    def test_rmat_needs_a_valid_bfs_forest(self):
        good = {"status": "success", "correct": 1,
                "verdict": "verdict    BFS forest with 743 roots — valid\n"}
        self.assertIsNone(benchlib.verify_round("rmat_bfs", 0, good))
        self.assertIsNotNone(benchlib.verify_round("rmat_bfs", 0, dict(good, correct=0)))
        self.assertIsNotNone(benchlib.verify_round("rmat_bfs", 0, dict(good, status="deadlock")))


class CrossCheck(unittest.TestCase):
    WBSIM_SWEEP = ("protocol   two-cliques (SIMSYNC[6 bits])\n"
                   "graph      n=10 m=20\n"
                   "adversary  exhaustive(threads=4)\n"
                   "schedules  3628800 executions, 3628800 distinct final boards\n"
                   "verdict    3628800/3628800 executions successful and correct\n"
                   "result     PASS\n")
    WBSIM_RMAT = ("status     success\n"
                  "schedule   rounds=4097 writes=4096 activation-waves=747 mean-latency=688.028\n"
                  "board      bits=315392 max-msg=77 distinct=4096 utilization=1\n"
                  "verdict    BFS forest with 743 roots — valid\n"
                  "result     PASS\n")

    def test_sweep_summary_lines_must_match_byte_for_byte(self):
        summary = ("schedules  3628800 executions, 3628800 distinct final boards\n"
                   "verdict    3628800/3628800 executions successful and correct\n")
        self.assertIsNone(benchlib.crosscheck("sweep_exact", 0, self.WBSIM_SWEEP,
                                              {"summary": summary}))
        self.assertIsNotNone(benchlib.crosscheck(
            "sweep_exact", 0, self.WBSIM_SWEEP, {"summary": summary.replace("3628800 d", "3628799 d")}))
        self.assertIsNotNone(benchlib.crosscheck("sweep_exact", 1, self.WBSIM_SWEEP,
                                                 {"summary": summary}))

    def test_rmat_fields_must_match(self):
        totals = {"engine_rounds": 4097, "writes": 4096, "board_bits": 315392,
                  "verdict": "verdict    BFS forest with 743 roots — valid\n"}
        self.assertIsNone(benchlib.crosscheck("rmat_bfs", 0, self.WBSIM_RMAT, totals))
        self.assertIsNotNone(benchlib.crosscheck("rmat_bfs", 0, self.WBSIM_RMAT,
                                                 dict(totals, board_bits=315391)))


class Relabeling(unittest.TestCase):
    EDGES = "6 6\n1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n"  # twocliques:3

    def test_is_a_seeded_permutation(self):
        for n in (1, 6, 12, 4096):
            for seed in (0, 1, 7):
                perm = benchlib.permutation(n, seed)
                self.assertEqual(sorted(perm), list(range(1, n + 1)))
                self.assertEqual(perm, benchlib.permutation(n, seed))
        self.assertNotEqual(benchlib.permutation(12, 1), benchlib.permutation(12, 2))

    def test_maps_every_edge_through_the_permutation(self):
        seed = 5
        perm = benchlib.permutation(6, seed)
        out = benchlib.relabel_edge_list(self.EDGES, seed).splitlines()
        self.assertEqual(out[0], "6 6")
        got = {tuple(sorted(map(int, line.split()))) for line in out[1:]}
        want = set()
        for line in self.EDGES.splitlines()[1:]:
            u, v = (perm[int(x) - 1] for x in line.split())
            want.add((min(u, v), max(u, v)))
        self.assertEqual(got, want)

    def test_rejects_a_header_that_miscounts_edges(self):
        with self.assertRaises(ValueError):
            benchlib.relabel_edge_list("3 2\n1 2\n", 1)


class LabelInvariance(unittest.TestCase):
    """Seeded relabeling leaves the label-invariant totals unchanged."""

    @classmethod
    def setUpClass(cls):
        cls.root = os.path.dirname(os.path.dirname(HERE))
        os.chdir(cls.root)
        _, cls.wbsim = run.build()
        cls.tmp = os.path.join(run.build_dir(), "test-inputs")
        os.makedirs(cls.tmp, exist_ok=True)

    def report_lines(self, graph, protocol, adversary):
        proc = subprocess.run([self.wbsim, graph, protocol, adversary],
                              capture_output=True, text=True, check=True)
        # The adversary line carries the memo counters of a memoized sweep.
        memo = [line for line in proc.stdout.splitlines() if line.startswith("adversary  ")]
        return memo + benchlib.crosscheck_lines("sweep_exact", proc.stdout)

    def check(self, spec, protocol, adversary):
        text = subprocess.run([self.wbsim, "graph", "gen", spec], capture_output=True,
                              text=True, check=True).stdout
        base = self.report_lines(spec, protocol, adversary)
        self.assertEqual(len(base), 3)
        for seed in (1, 2, 3):
            relabeled = benchlib.relabel_edge_list(text, seed)
            self.assertNotEqual(relabeled, text)
            path = os.path.join(self.tmp, f"{protocol}-{seed}.el")
            with open(path, "w") as f:
                f.write(relabeled)
            self.assertEqual(self.report_lines("file:" + os.path.abspath(path), protocol,
                                               adversary), base)

    def test_two_cliques_exhaustive(self):
        self.check("twocliques:3", "two-cliques", "exhaustive:1")

    def test_anon_degree_memoized(self):
        self.check("grid:2x3", "anon-degree", "exhaustive:1:memoize")


class OrderStatistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [7, 1, 10, 4, 2, 9, 3, 8, 5, 6]
        self.assertEqual(benchlib.median(values), 5.5)
        self.assertEqual(benchlib.quartiles(values), (2.75, 8.25))
        self.assertEqual(benchlib.summarize([3, 1, 2]),
                         {"median": 2, "q1": 1, "q3": 3, "n": 3})

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(benchlib.summarize([0.5]),
                         {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1})


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end}


# round [0, 10] holds a [1, 4] (which holds a1 [2, 3]), b [3, 6] running
# concurrently with a, and c [8, 9].
TREE = [span(0, -1, "round", 0, 10), span(1, 0, "a", 1, 4), span(2, 1, "a1", 2, 3),
        span(3, 0, "b", 3, 6), span(4, 0, "c", 8, 9)]


class SpanTree(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(benchlib.self_times(TREE),
                         {"round": 4, "a": 2, "a1": 1, "b": 3, "c": 1})

    def test_self_time_sums_spans_of_one_name(self):
        tree = TREE + [span(5, 0, "c", 9, 9.5)]
        self.assertEqual(benchlib.self_times(tree)["c"], 1.5)
        self.assertEqual(benchlib.self_times(tree)["round"], 3.5)

    def test_top_level_coverage_against_the_process_wall(self):
        self.assertEqual(benchlib.top_level_coverage(TREE, -1, 11), 6 / 12)
        self.assertEqual(benchlib.top_level_coverage(TREE, 0, 10), 0.6)

    def test_layer_metrics_of_a_fixed_trace(self):
        trace = {"spans": [span(0, -1, "round", 0, 10), span(1, 0, "exhaustive.sweep", 1, 9),
                           span(2, 1, "exhaustive.task", 1, 2), span(3, 1, "exhaustive.task", 1, 5),
                           span(4, 1, "exhaustive.task", 2, 4), span(5, 0, "distinct.merge", 9, 9.5)],
                 "counts": {"distinct.inserts": 8, "distinct.distinct": 2,
                            "memo.memo_hits": 3, "memo.states_explored": 1}}
        m = benchlib.layer_metrics(trace)
        self.assertEqual(m["exhaustive.sweep_s"], 8)
        self.assertEqual(m["exhaustive.task_s.p50"], 2)
        self.assertEqual(m["exhaustive.task_s.max"], 4)
        self.assertEqual(m["distinct.merge_s"], 0.5)
        self.assertEqual(m["distinct.useful_ratio"], 0.25)
        self.assertEqual(m["memo.hit_ratio"], 0.75)
        self.assertEqual(m["fleet.shard_s.max"], 0)
        self.assertEqual(benchlib.serial_work_s(trace), 8.5)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and workloads run.py reports."""

    def setUp(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            self.bench = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(benchlib.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_metrics(self):
        names = list(benchlib.layer_metrics({"spans": [], "counts": {}})) + list(run.TRACE_EXTRAS)
        self.assertEqual(collections.Counter(m["name"] for m in self.bench["per_layer"]),
                         collections.Counter(names))
        for m in self.bench["per_layer"]:
            self.assertEqual(m["unit"], benchlib.unit_of(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
