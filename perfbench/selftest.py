"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check the tracer's bookkeeping, that tracing leaves the package as it
found it, the speed scaling, that workload inputs are a function of the seed, that a perturbed
reference is caught (a negative control), and that the metric names agree
with BENCHMARK.json. They take a few seconds.
"""

from __future__ import annotations

import copy
import json
import sys
import time
import unittest

import run

run.import_package()

import safemean.dual  # noqa: E402
import safemean.montecarlo  # noqa: E402
import safemean.oracle  # noqa: E402
from layers import UNITS  # noqa: E402
from spans import TARGETS, Tracer, _owner, patched, self_times  # noqa: E402
from speed import INTERVAL_S, REFERENCE_S, SpeedTrack  # noqa: E402
from workloads import DEFAULT_SEED, PARETO, WORKLOADS  # noqa: E402

REFS = json.loads(run.REFERENCE.read_text())


def _failures(records) -> list:
    return [r["error"] for r in records if r["error"]]


class SpanTests(unittest.TestCase):
    def assert_self_times_add_up(self, spans):
        own = self_times(spans)
        children = {}
        for i, span in enumerate(spans):
            children.setdefault(span[3], []).append(i)

        def subtree(i):
            return own[i] + sum(subtree(c) for c in children.get(i, ()))

        for i, (_, start, end, _, _, _) in enumerate(spans):
            self.assertGreaterEqual(own[i], 0.0)
            self.assertAlmostEqual(subtree(i), end - start, delta=1e-9)

    def test_self_times_sum_to_the_parent_span(self):
        tracer = Tracer()
        calls = {}
        calls["leaf"] = tracer.wrap("leaf", lambda: time.sleep(0.002))
        calls["middle"] = tracer.wrap("middle", lambda: (calls["leaf"](), time.sleep(0.001), calls["leaf"]()))
        calls["top"] = tracer.wrap("top", lambda: (calls["middle"](), calls["leaf"]()))
        calls["top"]()
        self.assertEqual([span[0] for span in tracer.spans], ["top", "middle", "leaf", "leaf", "leaf"])
        self.assertEqual([span[3] for span in tracer.spans], [-1, 0, 1, 1, 0])
        self.assert_self_times_add_up(tracer.spans)

    def test_self_times_add_up_on_a_traced_certificate(self):
        s, r = WORKLOADS["certify"].instances(DEFAULT_SEED)[0]
        tracer = Tracer()
        with patched(tracer):
            safemean.oracle.verify_certificate(s, r, probes=1000, seed=1)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"oracle.verify_certificate", "dual.solve_kl_dro_dual", "dual.primal_witness",
                         "oracle.random_feasible_probe", "core.weighted_support"} <= names)
        self.assert_self_times_add_up(tracer.spans)

    def test_tracing_restores_every_wrapped_name(self):
        def current(module, attribute):
            owner, name = _owner(module, attribute)
            return owner.__dict__[name]

        before = {(module, attribute): current(module, attribute) for module, attribute, _, _ in TARGETS}
        with self.assertRaises(KeyError):
            with patched(Tracer()):
                self.assertIsNot(safemean.montecarlo.solve_kl_dro_dual_batch, safemean.dual.solve_kl_dro_dual_batch)
                raise KeyError("raised inside the traced block")
        self.assertIs(safemean.montecarlo.solve_kl_dro_dual_batch, safemean.dual.solve_kl_dro_dual_batch)
        self.assertIs(safemean.oracle.solve_kl_dro_dual, safemean.dual.solve_kl_dro_dual)
        for (module, attribute), original in before.items():
            self.assertIs(current(module, attribute), original, f"{module}.{attribute}")


class SpeedTests(unittest.TestCase):
    def test_scale_is_reference_over_the_bracketing_probes(self):
        track = SpeedTrack()
        track.samples = [0.01, 0.03, 0.05]
        self.assertAlmostEqual(track.scale(0), REFERENCE_S / 0.02)
        self.assertAlmostEqual(track.scale(1), REFERENCE_S / 0.04)

    def test_mark_probes_at_most_once_per_interval(self):
        track = SpeedTrack()
        self.assertEqual([track.mark() for _ in range(3)], [0, 0, 0])
        track._last -= INTERVAL_S
        self.assertEqual(track.mark(), 1)
        track.close()
        self.assertEqual(len(track.samples), 3)


class WorkloadTests(unittest.TestCase):
    def test_inputs_are_deterministic_in_the_seed(self):
        for workload in (WORKLOADS["mc_kl"], WORKLOADS["mc_light"]):
            for cell in workload.cells:
                first = safemean.montecarlo.draw_sample(PARETO, cell.n, 11, stream=3).values
                again = safemean.montecarlo.draw_sample(PARETO, cell.n, 11, stream=3).values
                other = safemean.montecarlo.draw_sample(PARETO, cell.n, 12, stream=3).values
                self.assertTrue((first == again).all())
                self.assertFalse((first == other).all())
            names = [op.name for op in workload.pass_ops(11, 0, REFS)]
            self.assertEqual(names, [op.name for op in workload.pass_ops(11, 0, REFS)])
        certify = WORKLOADS["certify"]
        a, b, c = certify.instances(11), certify.instances(11), certify.instances(12)
        self.assertEqual([(s.values.tolist(), r) for s, r in a], [(s.values.tolist(), r) for s, r in b])
        self.assertNotEqual([r for _, r in a], [r for _, r in c])

    def test_references_pass_at_the_default_seed(self):
        workload = WORKLOADS["mc_light"]
        records = run.run_ops(workload.check_ops(DEFAULT_SEED, REFS) + workload.pass_ops(DEFAULT_SEED, 0, REFS))
        self.assertEqual(_failures(records), [])

    def test_a_perturbed_reference_counts_as_failed(self):
        workload = WORKLOADS["mc_light"]
        bad = copy.deepcopy(REFS)
        bad["mc_light"]["varreg_cons_n100"]["prefix_hits"] += 1
        bad["mc_light"]["varreg_cons_n1000"]["hits"] -= 1
        records = run.run_ops(workload.check_ops(DEFAULT_SEED, bad) + workload.pass_ops(DEFAULT_SEED, 0, bad))
        failures = _failures(records)
        self.assertEqual(len(failures), 2, failures)
        self.assertIn("varreg_cons_n100 first", failures[0])
        self.assertIn("varreg_cons_n1000 hits", failures[1])
        self.assertGreater(len(failures) / len(records), 0.0)

        certify = WORKLOADS["certify"]
        bad = copy.deepcopy(REFS)
        bad["certify"]["enumerations"]["n50"] *= 1.0 + 1e-6
        bad["certify"]["certificates"][3][3] += 1e-6
        enumerations = [op for op in certify.pass_ops(DEFAULT_SEED, 0, bad) if op.kind == "enumeration"]
        failures = _failures(run.run_ops(enumerations + certify.check_ops(DEFAULT_SEED, bad)))
        self.assertEqual(len(failures), 2, failures)
        self.assertIn("enum_n50", failures[0])
        self.assertIn("i=3", failures[1])


class ContractTests(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    sys.exit(not unittest.main(exit=False).result.wasSuccessful())
