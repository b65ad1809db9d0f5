"""In-memory span tracing around the package's public functions.

``patched(tracer)`` replaces each name in ``TARGETS`` on the module that looks
it up (``safemean.montecarlo.solve_kl_dro_dual_batch`` is the name the Monte
Carlo harness calls, so that is the one wrapped) and puts every original back
on exit, also when the traced code raises. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, note]``: ``parent`` is the index of
the enclosing span (-1 for a root), ``op`` the index of the benchmark
operation that was running, and ``note`` an optional dict read off the call
(rows of a batch, iterations of a solve, probe violations). Self time is the
span's duration minus the durations of its children; spans come from one
thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


def _batch_note(args, result):
    return {"rows": int(args[0].shape[0])}


def _solve_note(args, result):
    return {"iterations": int(result.iterations)}


def _probe_note(args, result):
    return {"violations": int(result)}


# (module, attribute on it, span name, note). One span name may be wrapped at
# several lookup points: the harness and the benchmark reach ``estimate``
# through different modules.
TARGETS = (
    ("safemean.montecarlo", "disappointment_probability", "montecarlo.disappointment_probability", None),
    ("safemean.montecarlo", "conservatism_probability", "montecarlo.conservatism_probability", None),
    ("safemean.montecarlo", "draw_sample", "montecarlo.draw_sample", None),
    ("safemean.montecarlo", "exact_bernoulli_event_probability", "montecarlo.exact_bernoulli_event_probability", None),
    ("safemean.montecarlo", "solve_kl_dro_dual_batch", "dual.solve_kl_dro_dual_batch", _batch_note),
    ("safemean.montecarlo", "estimate", "estimators.estimate", None),
    ("safemean.montecarlo", "Sample", "core.Sample", None),
    ("safemean.estimators", "estimate", "estimators.estimate", None),
    ("safemean.estimators", "solve_kl_dro_dual", "dual.solve_kl_dro_dual", _solve_note),
    ("safemean.oracle", "verify_certificate", "oracle.verify_certificate", None),
    ("safemean.oracle", "solve_kl_dro_dual", "dual.solve_kl_dro_dual", _solve_note),
    ("safemean.oracle", "primal_witness", "dual.primal_witness", None),
    ("safemean.oracle", "witness_empirical_kl", "dual.witness_empirical_kl", None),
    ("safemean.oracle", "random_feasible_probe", "oracle.random_feasible_probe", _probe_note),
    ("safemean.core", "Sample.weighted_support", "core.weighted_support", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attribute, span_name, note in TARGETS:
            owner, name = _owner(module, attribute)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(span_name, original, note))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
