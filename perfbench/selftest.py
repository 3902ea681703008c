"""Tests for the benchmark's own pieces: `python3 perfbench/selftest.py`.

The file is deliberately not named test_*.py, so the repository's own
test run does not collect it.
"""

from __future__ import annotations

import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from inputs import (  # noqa: E402
    EXAMPLE_ROWS,
    log_uniform_strata,
    pruned_count,
    pruned_sequences,
    random_acyclic,
    reference_apply,
    truncation_rings,
)
from tracing import Tracer, self_times  # noqa: E402
from workloads import Oneshot, Op, GateError, Search, banded_matrix, relabellings  # noqa: E402

LIB = harness.Library(HERE.parent)


class OneWorkload:
    """A fixed pass of ops given by the test."""

    def __init__(self, ops):
        self.ops = ops

    def passes(self):
        while True:
            yield self.ops


def library_ops() -> list[Op]:
    """A few cheap ops that reach every traced module."""
    matrices, seeds, unfolding = LIB.matrices, LIB.seeds, LIB.unfolding
    b = matrices.ExchangeMatrix(EXAMPLE_ROWS)
    small = matrices.ExchangeMatrix(((0, -2), (2, 0)))
    no_check = lambda result: False  # noqa: E731
    return [
        Op("mutate", lambda: seeds.apply_sequence_framed(seeds.extend(b), (1, 2, 3, 4) * 10),
           no_check),
        Op("search", lambda: matrices.check_total_mutability(b, 3), no_check),
        Op("replay", lambda: unfolding.verify_unfolding_commutation(small, (1, 2), 6), no_check),
    ]


class GeneratorTests(unittest.TestCase):
    def test_generators_repeat_for_a_seed(self):
        for seed in (0, 7):
            draws = []
            for _ in range(2):
                rng = random.Random(seed)
                draws.append(([random_acyclic(rng, n) for n in (2, 3, 4, 5)],
                              banded_matrix(rng, 4, 8, (300, 600)),
                              log_uniform_strata(rng, 2000, 3)))
            self.assertEqual(draws[0], draws[1])
        self.assertNotEqual(random_acyclic(random.Random(0), 5),
                            random_acyclic(random.Random(1), 5))

    def test_oneshot_writes_the_same_requests_for_a_seed(self):
        def files(seed: int) -> dict:
            with tempfile.TemporaryDirectory() as tmp:
                Oneshot(LIB, seed, Path(tmp))
                return {p.name: p.read_text() for p in Path(tmp).iterdir()}

        self.assertEqual(files(3), files(3))
        self.assertNotEqual(files(3), files(4))

    def test_pruned_sequences_match_the_formula(self):
        for n in (2, 3, 4, 5):
            seqs = pruned_sequences(n, 3)
            self.assertEqual(len(seqs), pruned_count(n, 3))
            self.assertTrue(all(a != b for s in seqs for a, b in zip(s, s[1:])))

    def test_relabellings_keep_the_truncation_shape(self):
        rows = random_acyclic(random.Random(5), 4, column_cap=4)
        variants = relabellings(rows)
        self.assertEqual(len(variants), 12)
        shapes = {truncation_rings(v, 5) for v, _ in variants}
        self.assertEqual(shapes, {truncation_rings(rows, 5)})


class ReferenceTests(unittest.TestCase):
    def test_truncation_rings_match_the_library(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = random_acyclic(rng, rng.randint(2, 4))
            m = rng.randint(1, 6)
            quiver = LIB.unfolding.build_truncation(LIB.matrices.ExchangeMatrix(rows), m)
            rings, complete = truncation_rings(rows, m)
            got = tuple(quiver.depths.count(d) for d in range(len(rings)))
            self.assertEqual((got, complete), (rings, quiver.is_complete))
            self.assertEqual(sum(rings), quiver.vertex_count)

    def test_reference_mutation_matches_the_library(self):
        seq = (4, 3, 2, 1) * 5 + (1, 3)
        seed = LIB.seeds.apply_sequence_framed(
            LIB.seeds.extend(LIB.matrices.ExchangeMatrix(EXAMPLE_ROWS)), seq)
        b, c = reference_apply(EXAMPLE_ROWS, seq)
        self.assertEqual((tuple(map(tuple, b)), tuple(map(tuple, c))), (seed.b.entries, seed.c))


class StatisticsTests(unittest.TestCase):
    def test_tail_percentile_rule(self):
        samples = [float(x) for x in range(1, 101)]
        random.Random(0).shuffle(samples)
        self.assertEqual(harness.tail_percentile(samples), (90.0, 90.0, 10))
        self.assertEqual(harness.tail_percentile([float(x) for x in range(1, 100)]),
                         (75.0, 75.0, 24))
        self.assertEqual(harness.tail_percentile([float(x) for x in range(1, 1001)]),
                         (99.0, 990.0, 10))
        self.assertEqual(harness.tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0, 1))

    def test_self_time_of_nested_spans(self):
        # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        parents = [-1, 0, 0, 2]
        self.assertEqual(self_times(starts, ends, parents), [3.0, 3.0, 3.0, 1.0])


class TracingTests(unittest.TestCase):
    def bindings(self) -> dict:
        return {(ns.__name__, name): value for ns in LIB.namespaces()
                for name, value in vars(ns).items() if callable(value)}

    def test_rebound_names_are_restored_and_outputs_unchanged(self):
        before = self.bindings()
        plain = harness.execute(OneWorkload(library_ops()), 1, 0.0, None)
        tracer = Tracer()
        with tracer.installed(LIB) as rebound:
            self.assertIsNot(LIB.seeds.mutate, before[("quivermut.seeds", "mutate")])
            self.assertIs(LIB.seeds.mutate, LIB.matrices.mutate)
            traced = harness.execute(OneWorkload(library_ops()), 1, 0.0, tracer)
        after = harness.execute(OneWorkload(library_ops()), 1, 0.0, None)
        self.assertEqual(self.bindings(), before)
        self.assertTrue(any(ns is LIB.package for ns, _, _ in rebound))
        self.assertEqual(plain["digests"], traced["digests"])
        self.assertEqual(plain["digests"], after["digests"])
        metrics = tracer.layer_metrics(traced["kinds"])
        # 40 steps of the first op and one per orbit step of the replay; the
        # depth-3 search on n = 4 mutates 4 + 4*3 + 4*3*3 times on its own.
        self.assertEqual(metrics["seeds.mutate_framed.calls"][0], 40 + 2)
        self.assertEqual(metrics["matrices.mutate.calls"][0], 42 + 4 + 4 * 3 + 4 * 3 * 3)
        self.assertEqual(metrics["unfolding.folding.calls"][0], 3)
        self.assertEqual(metrics["unfolding.orbit_mutate.calls"][0], 2)
        self.assertEqual(metrics["unfolding.check_gamma_conditions.calls"][0], 2)
        self.assertEqual(metrics["unfolding.build_truncation.calls"][0], 1)
        self.assertTrue(all(value >= 0 for name, (value, _) in metrics.items()
                            if name.endswith(".self_s")))


class GateTests(unittest.TestCase):
    def test_gate_fires_on_a_wrong_verdict(self):
        search = Search(LIB, 0, Path("."))
        check = next(op.check for op in search.ops if op.kind == "check_sign_coherence")
        wrong = LIB.seeds.CoherenceReport(ok=False, counterexample=(1, 2))
        with self.assertRaises(GateError):
            check(wrong)
        bad = Op("check_sign_coherence", lambda: wrong, check)
        outcome = harness.execute(OneWorkload([bad]), 2, 0.0, None)
        self.assertEqual((outcome["attempted"], outcome["failed"]), (2, 2))
        self.assertEqual(outcome["expected_failures"], 0)

    def test_gate_counts_the_digit_limit_defect_only_where_predicted(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = Oneshot(LIB, 0, Path(tmp)).pass_ops
        limit_error = (2, "", "error: Exceeds the limit (4300 digits) for integer string\n")
        predicted = []
        for op in (op for op in ops if op.kind == "cli.mutate"):
            try:
                predicted.append(op.check(limit_error))
            except GateError:
                predicted.append(False)
            with self.assertRaises(GateError):
                op.check((0, '{"b": [[0]], "c": [[0]]}', ""))
        # Only the long request passes 4,300 digits; the short ones must succeed.
        self.assertEqual(sorted(predicted), [False, False, False, True])

    def test_gate_fires_on_a_changed_repeat(self):
        outputs = iter([1, 2])
        op = Op("flaky", lambda: next(outputs), lambda result: False)
        outcome = harness.execute(OneWorkload([op]), 2, 0.0, None)
        self.assertEqual(outcome["failed"], 1)
        self.assertIn("different output", outcome["problems"][0])


if __name__ == "__main__":
    unittest.main()
