"""Layer tracing for the benchmark: wraps qmcut's public functions by module attribute.

Every wrapped call is a span.  Spans are folded into per-layer aggregates as
they close (self time, call count), not kept one by one: the audit workload
makes close to a million calls, and a list of them would move the peak memory
the benchmark reports.  A layer's self time is the time its spans ran minus
the time covered by spans nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer).  A function imported into several modules is
# wrapped at each binding the pipeline calls it through.  certify's own
# helpers (alpha_gw, ratio_constant, the minimizer check and the certificate
# glue) make up the "constants" layer.
WRAPPED = (
    ("qmcut.cli", "build_model", "sdp.build_model"),
    ("qmcut.cli", "solve", "sdp.solve"),
    ("qmcut.cli", "extract_vectors", "sdp.extract_vectors"),
    ("qmcut.cli", "exact_opt", "oracle.exact_opt"),
    ("qmcut.cli", "sample_assignment", "rounding.sample_assignment"),
    ("qmcut.cli", "build_circuit", "rounding.build_circuit"),
    ("qmcut.cli", "simulate", "oracle.simulate"),
    ("qmcut.cli", "expectation", "oracle.expectation"),
    ("qmcut.cli", "total_energy", "energy.total_energy"),
    ("qmcut.rounding", "compute_gammas", "rounding.compute_gammas"),
    ("qmcut.energy", "edge_energy_bound", "energy.edge_energy_bound"),
    ("qmcut.certify", "build_certificate", "certify.constants"),
    ("qmcut.certify", "alpha_gw", "certify.constants"),
    ("qmcut.certify", "ratio_constant", "certify.constants"),
    ("qmcut.certify", "minimizer_consistency_audit", "certify.constants"),
    ("qmcut.certify", "monogamy_audit", "certify.monogamy_audit"),
    ("qmcut.certify", "positive_overlap_audit", "certify.positive_overlap_audit"),
    ("qmcut.certify", "cut_probability_audit", "certify.cut_probability_audit"),
    ("qmcut.certify", "per_edge_ratio_audit", "certify.per_edge_ratio_audit"),
    ("qmcut.certify", "sample_assignment", "rounding.sample_assignment"),
    ("qmcut.certify", "simulate", "oracle.simulate"),
    ("qmcut.certify", "edge_energy_bound", "energy.edge_energy_bound"),
)

# The span the benchmark opens around each run_pipeline call; its self time is
# the pipeline's own glue, outside every wrapped layer.
ROOT_LAYER = "cli.unattributed"

LAYERS = tuple(dict.fromkeys([layer for _, _, layer in WRAPPED] + [ROOT_LAYER]))


class Tracer:
    """Per-layer self time, call counts and model-size counters of traced calls."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.gram_d_max = 0
        self.constraints = 0
        self._child_s: list[float] = []   # time of closed child spans, per open span

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.gram_d_max = 0
        self.constraints = 0

    def wrap(self, fn, layer: str, observe=None):
        """fn as a span of layer; observe, if given, sees each result."""
        stack = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def observe_model(self, model) -> None:
        self.gram_d_max = max(self.gram_d_max, model.index.size)
        self.constraints += len(model.constraints)

    def total_calls(self) -> int:
        return sum(self.calls.values())

    @contextmanager
    def installed(self):
        """Replace every WRAPPED attribute by its traced form; restore on exit."""
        originals = []
        try:
            for module_name, attr, layer in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                observe = self.observe_model if attr == "build_model" else None
                setattr(module, attr, self.wrap(fn, layer, observe))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def _noop():
    return None


def per_call_overhead_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a bare call."""
    traced = Tracer().wrap(_noop, "calibration")
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            _noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        samples.append((perf_counter() - t0 - bare) / calls)
    return max(statistics.median(samples), 0.0)
