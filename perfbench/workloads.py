"""The three benchmark workloads and the operations they are made of.

Every workload is closed-loop: one process, one client, harness thread count
1, each call issued only after the previous one returned. All calls go
through the package's public API, looked up on the module at call time
(``mc.disappointment_probability``, ``oracle.verify_certificate``...), so the
tracer in ``spans.py`` can wrap exactly those names.

Why each workload exists, and which acceptance criterion each cell reduces:

mc_kl
    KL disappointment on Pareto(2.5, 1), the suite's largest cost
    (criterion 3 takes about 278 s of the 724 s acceptance run). The batched
    dual ``solve_kl_dro_dual_batch`` does about 93% of the work, so solver
    and memory-traffic changes show here. Trial counts are exactly one
    full-size harness batch: 4000 rows at n=1000 and 1333 rows at n=3000,
    the shapes criterion 3 runs.
      kl_logn_n1000, kl_logn_n3000      criterion 3's cells (schedule logn),
                                        100000 trials there, one batch here.
      kl_logn025_n1000, kl_logn025_n3000  same cells under logn:0.25, where
                                        the event is common (about 100 and 20
                                        hits per batch), so a wrong estimate
                                        moves the hit count.
mc_light
    Variance-regularized conservatism at b=0.5, schedule logn, on
    Pareto(2.5, 1). The dual solver is never called; per-trial
    ``SeedSequence`` stream setup and drawing are most of the cost. RNG and
    drawing changes show here; solver changes must predict no change.
      varreg_cons_n1000   criterion 6's varreg cell (10^6 trials there).
      varreg_cons_n100    the varreg harness path of criteria 6 and 7 at the
                          size where stream setup dominates.
certify
    The KL dual used as thousands of small scalar solves instead of a few
    large matrices, so a batch-oriented solver rewrite that slows the scalar
    path shows here.
      certificates   criterion 1: ``verify_certificate`` with 10000 probes
                     over ``random_instances(200, seed)``.
      enum_n50/200/800  criterion 8: exact binomial enumeration of the KL
                     estimator's conservatism on ScaledBernoulli(0.5, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import safemean.estimators as est
import safemean.montecarlo as mc
import safemean.oracle as oracle
from safemean import EstimatorConfig, Pareto, RadiusSchedule, ScaledBernoulli, true_mean

DEFAULT_SEED = 7
# Round k of a run's passes draws its inputs from seed + k * PASS_SEED_STRIDE,
# so no two passes of one run repeat an input.
PASS_SEED_STRIDE = 1_000_003

PARETO = Pareto(2.5, 1.0)
BERNOULLI = ScaledBernoulli(0.5, 2.0)
CERT_INSTANCES = 200
CERT_PROBES = 10_000
CERT_REF_SLICE = 20
ENUM_NS = (50, 200, 800)
ENUM_B = 0.5

VALUE_RTOL = 1e-9
GAP_ATOL = 1e-10
PROB_RTOL = 1e-9


def pass_seed(seed: int, round_index: int) -> int:
    return seed + round_index * PASS_SEED_STRIDE


@dataclass
class Op:
    """One benchmark operation: a call into the public API and its check.

    ``check`` gets the call's result and returns None when it is correct,
    otherwise a one-line description of the mismatch.
    """

    name: str
    phase: str  # "timed" or "check"
    n: int
    work: int  # Monte Carlo trials, or certified solves
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    kind: str = ""


@dataclass(frozen=True)
class Cell:
    """One Monte Carlo cell: an estimator, an event and a sample size."""

    name: str
    kind: str
    schedule_c: float
    n: int
    trials: int
    event: str
    b: float = 0.0

    def config(self) -> EstimatorConfig:
        return EstimatorConfig(self.kind, schedule=RadiusSchedule.log_n(self.schedule_c))

    def harness_hits(self, seed: int, trials: Optional[int] = None) -> int:
        trials = self.trials if trials is None else trials
        if self.event == "disappointment":
            rep = mc.disappointment_probability(PARETO, self.config(), self.n, trials, seed, threads=1)
        else:
            rep = mc.conservatism_probability(PARETO, self.config(), self.b, self.n, trials, seed, threads=1)
        return rep.hits

    def scalar_hits(self, seed: int, trials: int) -> int:
        """The same event counted through draw_sample and estimate, trial by trial."""
        cfg = self.config()
        mu = true_mean(PARETO)
        hits = 0
        for i in range(trials):
            value = est.estimate(cfg, mc.draw_sample(PARETO, self.n, seed, stream=i)).value
            hits += value > mu if self.event == "disappointment" else value < mu - self.b
        return hits


def _equal(label: str, expected):
    def check(got):
        return None if got == expected else f"{label}: got {got}, expected {expected}"
    return check


def _consistent(label: str):
    def check(pair):
        harness, scalar = pair
        return None if harness == scalar else f"{label}: harness hits {harness} != scalar-path hits {scalar}"
    return check


@dataclass(frozen=True)
class MonteCarloWorkload:
    """Monte Carlo cells run in passes; pass p runs cell group p mod len(groups)."""

    name: str
    groups: tuple  # tuples of cells with about the same cost per trial
    prefix_trials: int  # trials re-counted through the scalar path at any seed
    trace_passes: int = 2
    unit: str = "trial"

    @property
    def cells(self) -> tuple:
        return tuple(cell for group in self.groups for cell in group)

    @property
    def passes_per_round(self) -> int:
        return len(self.groups)

    def pass_ops(self, seed: int, index: int, refs: dict) -> list:
        s = pass_seed(seed, index // len(self.groups))
        ops = []
        for cell in self.groups[index % len(self.groups)]:
            check = lambda got: None
            if s == refs["seed"]:
                check = _equal(f"{self.name}/{cell.name} hits", refs[self.name][cell.name]["hits"])
            ops.append(Op(f"{self.name}/{cell.name}/pass{index}", "timed", cell.n, cell.trials,
                          lambda cell=cell: cell.harness_hits(s), check, "cell"))
        return ops

    def check_ops(self, seed: int, refs: dict) -> list:
        """Committed references at the default seed, then the any-seed check."""
        k = self.prefix_trials
        ops = []
        for cell in self.cells:
            label = f"{self.name}/{cell.name} first {k} trials at seed {refs['seed']}"
            ops.append(Op(f"{self.name}/{cell.name}/reference", "check", cell.n, k,
                          lambda cell=cell: cell.harness_hits(refs["seed"], k),
                          _equal(label, refs[self.name][cell.name]["prefix_hits"]), "reference"))
        for cell in self.cells:
            ops.append(Op(f"{self.name}/{cell.name}/scalar_path", "check", cell.n, k,
                          lambda cell=cell: (cell.harness_hits(seed, k), cell.scalar_hits(seed, k)),
                          _consistent(f"{self.name}/{cell.name} first {k} trials at seed {seed}"),
                          "scalar_path"))
        return ops

    def first_call(self, seed: int) -> None:
        self.cells[0].harness_hits(seed, 1)

    def reference(self, seed: int) -> dict:
        return {cell.name: {"hits": cell.harness_hits(seed),
                            "prefix_hits": cell.harness_hits(seed, self.prefix_trials)}
                for cell in self.cells}


def _certificate_record(rep) -> list:
    return [bool(rep.passed), float(rep.kl_gap), float(rep.duality_gap), float(rep.value)]


def _check_certificate(label: str, expected: Optional[list]):
    def check(rep):
        if not rep.passed:
            return (f"{label}: certificate failed (kl_gap={rep.kl_gap:.3e} "
                    f"duality_gap={rep.duality_gap:.3e} probe_violations={rep.probe_violations})")
        if expected is None:
            return None
        passed, kl_gap, duality_gap, value = expected
        got = _certificate_record(rep)
        if (got[0] != passed or abs(got[1] - kl_gap) > GAP_ATOL or abs(got[2] - duality_gap) > GAP_ATOL
                or abs(got[3] - value) > VALUE_RTOL * max(1.0, abs(value))):
            return f"{label}: got {got}, reference {expected}"
        return None
    return check


def _check_probability(label: str, expected: float):
    def check(p):
        if abs(p - expected) <= PROB_RTOL * abs(expected):
            return None
        return f"{label}: probability {p!r}, reference {expected!r}"
    return check


def _enumerate(n: int) -> float:
    cfg = EstimatorConfig("kl", schedule=RadiusSchedule.log_n())
    return mc.exact_bernoulli_event_probability(BERNOULLI, cfg, n, "conservatism", b=ENUM_B)


@dataclass(frozen=True)
class CertifyWorkload:
    name: str
    trace_passes: int = 6
    unit: str = "solve"
    passes_per_round: int = 1

    @staticmethod
    def instances(seed: int) -> list:
        return list(oracle.random_instances(CERT_INSTANCES, seed=seed))

    def _cert_ops(self, seed: int, phase: str, count: int, expected: Optional[list], tag: str) -> list:
        ops = []
        for i, (s, r) in enumerate(self.instances(seed)[:count]):
            label = f"{self.name}/certificate seed={seed} i={i}"
            ops.append(Op(f"{self.name}/certificate/{tag}/{i}", phase, s.n, 1,
                          lambda s=s, r=r, i=i: oracle.verify_certificate(s, r, probes=CERT_PROBES, seed=seed + i),
                          _check_certificate(label, None if expected is None else expected[i]), "certificate"))
        return ops

    def pass_ops(self, seed: int, index: int, refs: dict) -> list:
        s = pass_seed(seed, index)
        expected = refs[self.name]["certificates"] if s == refs["seed"] else None
        ops = self._cert_ops(s, "timed", CERT_INSTANCES, expected, f"pass{index}")
        for n in ENUM_NS:
            ops.append(Op(f"{self.name}/enum_n{n}/pass{index}", "timed", n, n + 1,
                          lambda n=n: _enumerate(n),
                          _check_probability(f"{self.name}/enum_n{n}", refs[self.name]["enumerations"][f"n{n}"]),
                          "enumeration"))
        return ops

    def check_ops(self, seed: int, refs: dict) -> list:
        return self._cert_ops(refs["seed"], "check", CERT_REF_SLICE, refs[self.name]["certificates"], "reference")

    def first_call(self, seed: int) -> None:
        s, r = self.instances(seed)[0]
        oracle.verify_certificate(s, r, probes=CERT_PROBES, seed=seed)

    def reference(self, seed: int) -> dict:
        return {
            "certificates": [
                _certificate_record(oracle.verify_certificate(s, r, probes=CERT_PROBES, seed=seed + i))
                for i, (s, r) in enumerate(self.instances(seed))
            ],
            "enumerations": {f"n{n}": _enumerate(n) for n in ENUM_NS},
        }


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarloWorkload(
            "mc_kl",
            (
                (Cell("kl_logn_n1000", "kl", 1.0, 1000, 4000, "disappointment"),
                 Cell("kl_logn_n3000", "kl", 1.0, 3000, 1333, "disappointment")),
                (Cell("kl_logn025_n1000", "kl", 0.25, 1000, 4000, "disappointment"),
                 Cell("kl_logn025_n3000", "kl", 0.25, 3000, 1333, "disappointment")),
            ),
            prefix_trials=200,
        ),
        MonteCarloWorkload(
            "mc_light",
            (
                (Cell("varreg_cons_n100", "varreg", 1.0, 100, 8192, "conservatism", b=0.5),
                 Cell("varreg_cons_n1000", "varreg", 1.0, 1000, 8000, "conservatism", b=0.5)),
            ),
            prefix_trials=2000,
        ),
        CertifyWorkload("certify"),
    )
}
