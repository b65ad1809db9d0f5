"""Per-module metrics from one traced run.

Counts and per-call costs cover every traced call, in the timed passes and
in the correctness checks alike (on mc_kl and mc_light the scalar path is
only reached by the any-seed check). Shares and per-trial cell costs cover
the timed passes only. A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import self_times
from workloads import ENUM_NS

CELL_NS = (100, 1000, 3000)
BATCH_NS = (1000, 3000)
MODULES = ("core", "dual", "estimators", "montecarlo", "oracle", "cli")
HARNESS = ("montecarlo.disappointment_probability", "montecarlo.conservatism_probability")


def _per_n(prefix: str, ns, unit: str) -> dict:
    return {f"{prefix}.n{n}": unit for n in ns}


UNITS = {
    **_per_n("dual.batch_us_per_row", BATCH_NS, "us"),
    "dual.batch_calls": "count",
    "dual.batch_share": "frac",
    "dual.scalar_calls": "count",
    "dual.scalar_us_per_call": "us",
    "dual.scalar_iterations_p50": "count",
    "dual.scalar_iterations_max": "count",
    "dual.scalar_share": "frac",
    "dual.witness_us_per_call": "us",
    "dual.witness_share": "frac",
    **_per_n("montecarlo.self_us_per_trial", CELL_NS, "us"),
    **_per_n("montecarlo.draw_us_per_trial", CELL_NS, "us"),
    **_per_n("montecarlo.minflt_per_trial", CELL_NS, "count"),
    **_per_n("montecarlo.rows_per_batch_call", BATCH_NS, "count"),
    **_per_n("montecarlo.enumerate_self_ms", ENUM_NS, "ms"),
    "montecarlo.self_share": "frac",
    "core.weighted_support_calls_per_solve": "count",
    "core.sample_us_per_call": "us",
    "estimators.estimate_self_us_per_call": "us",
    "estimators.estimate_calls": "count",
    "oracle.probe_us_per_call": "us",
    "oracle.probe_share": "frac",
    "oracle.verify_self_us_per_call": "us",
    "oracle.probe_violations": "count",
    "oracle.verify_ms_p50": "ms",
    "oracle.verify_ms_p99": "ms",
    "oracle.verify_samples": "count",
    **{f"{module}.import_s": "s" for module in MODULES},
    "trace.overhead_frac": "frac",
}


# What each workload was built to exercise, as its traced run should show it.
DESIGN = {
    "mc_kl": ("dual.batch_share >= 0.8", lambda m: m["dual.batch_share"] >= 0.8),
    "mc_light": ("dual.batch_calls == 0 and montecarlo.self_share > 0.5",
                 lambda m: m["dual.batch_calls"] == 0 and m["montecarlo.self_share"] > 0.5),
    "certify": ("oracle.probe_share + dual.scalar_share + dual.witness_share > 0.5",
                lambda m: m["oracle.probe_share"] + m["dual.scalar_share"] + m["dual.witness_share"] > 0.5),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values, q: float) -> float:
    """The q-quantile of values by nearest rank (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, ops, traced_records, plain_records, import_s: dict) -> dict:
    """Per-module metrics of one traced run.

    ``ops[i]`` is the operation during which spans tagged ``i`` ran;
    ``plain_records`` and ``traced_records`` are the per-operation records of
    the same operations run without and with tracing. Latencies and fault
    counts come from the plain runs.
    """
    own = self_times(spans)
    dur = [end - start for _, start, end, _, _, _ in spans]
    named = defaultdict(list)
    for i, span in enumerate(spans):
        named[span[0]].append(i)

    def timed(indices):
        return [i for i in indices if ops[spans[i][4]].phase == "timed"]

    def n_of(i):
        return ops[spans[i][4]].n

    def total(values, indices):
        return sum(values[i] for i in indices)

    roots = timed([i for i, span in enumerate(spans) if span[3] < 0])
    base = total(dur, roots)
    out = {}

    batch = timed(named["dual.solve_kl_dro_dual_batch"])
    out["dual.batch_calls"] = len(batch)
    out["dual.batch_share"] = _ratio(total(dur, batch), base)
    for n in BATCH_NS:
        at_n = [i for i in batch if n_of(i) == n]
        rows = sum(spans[i][5]["rows"] for i in at_n)
        out[f"dual.batch_us_per_row.n{n}"] = 1e6 * _ratio(total(dur, at_n), rows)
        out[f"montecarlo.rows_per_batch_call.n{n}"] = _ratio(rows, len(at_n))

    scalar = named["dual.solve_kl_dro_dual"]
    iterations = [spans[i][5]["iterations"] for i in scalar]
    out["dual.scalar_calls"] = len(scalar)
    out["dual.scalar_us_per_call"] = 1e6 * _ratio(total(dur, scalar), len(scalar))
    out["dual.scalar_iterations_p50"] = statistics.median(iterations) if iterations else 0
    out["dual.scalar_iterations_max"] = max(iterations, default=0)
    out["dual.scalar_share"] = _ratio(total(dur, timed(scalar)), base)

    witness = named["dual.primal_witness"]
    out["dual.witness_us_per_call"] = 1e6 * _ratio(total(dur, witness), len(witness))
    # Witnesses built inside a probe are part of the probe's share.
    direct = [i for i in timed(witness)
              if spans[i][3] >= 0 and spans[spans[i][3]][0] == "oracle.verify_certificate"]
    out["dual.witness_share"] = _ratio(total(dur, direct), base)

    cells = timed([i for name in HARNESS for i in named[name]])
    draws = named["montecarlo.draw_sample"]
    for n in CELL_NS:
        cells_n = [i for i in cells if n_of(i) == n]
        trials = sum(ops[spans[i][4]].work for i in cells_n)
        out[f"montecarlo.self_us_per_trial.n{n}"] = 1e6 * _ratio(total(own, cells_n), trials)
        draws_n = [i for i in draws if n_of(i) == n]
        out[f"montecarlo.draw_us_per_trial.n{n}"] = 1e6 * _ratio(total(own, draws_n), len(draws_n))
        records_n = [r for r in plain_records if r["phase"] == "timed" and r["kind"] == "cell" and r["n"] == n]
        out[f"montecarlo.minflt_per_trial.n{n}"] = _ratio(
            sum(r["minflt"] for r in records_n), sum(r["work"] for r in records_n))

    enums = timed(named["montecarlo.exact_bernoulli_event_probability"])
    for n in ENUM_NS:
        at_n = [i for i in enums if n_of(i) == n]
        out[f"montecarlo.enumerate_self_ms.n{n}"] = 1e3 * _ratio(total(own, at_n), len(at_n))
    mc_spans = timed([i for i, span in enumerate(spans) if span[0].startswith("montecarlo.")])
    out["montecarlo.self_share"] = _ratio(total(own, mc_spans), base)

    out["core.weighted_support_calls_per_solve"] = _ratio(len(named["core.weighted_support"]), len(scalar))
    samples = named["core.Sample"]
    out["core.sample_us_per_call"] = 1e6 * _ratio(total(dur, samples), len(samples))

    estimates = named["estimators.estimate"]
    out["estimators.estimate_calls"] = len(estimates)
    out["estimators.estimate_self_us_per_call"] = 1e6 * _ratio(total(own, estimates), len(estimates))

    probes = named["oracle.random_feasible_probe"]
    out["oracle.probe_us_per_call"] = 1e6 * _ratio(total(dur, probes), len(probes))
    out["oracle.probe_share"] = _ratio(total(dur, timed(probes)), base)
    out["oracle.probe_violations"] = sum(spans[i][5]["violations"] for i in probes)
    verifies = named["oracle.verify_certificate"]
    out["oracle.verify_self_us_per_call"] = 1e6 * _ratio(total(own, verifies), len(verifies))
    latencies = [r["seconds"] for r in plain_records if r["phase"] == "timed" and r["kind"] == "certificate"]
    out["oracle.verify_ms_p50"] = 1e3 * nearest_rank(latencies, 0.5)
    out["oracle.verify_ms_p99"] = 1e3 * nearest_rank(latencies, 0.99)
    out["oracle.verify_samples"] = len(latencies)

    for module in MODULES:
        out[f"{module}.import_s"] = import_s[module]
    out["trace.overhead_frac"] = _ratio(sum(r["seconds"] for r in traced_records),
                                        sum(r["seconds"] for r in plain_records))
    if set(out) != set(UNITS):
        raise RuntimeError(f"per-layer metrics out of step with UNITS: {set(out) ^ set(UNITS)}")
    return out
