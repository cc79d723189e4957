"""Spans and counters recorded around calls into each noisysum module.

Only traced measurements import this file.  ``install`` swaps each public
function listed in ``_targets`` for a wrapper in every loaded ``noisysum``
module that holds it, so calls through ``from .x import f`` aliases are
seen as well, and ``uninstall`` swaps the originals back; nothing under
``src/`` changes.  Spans stay in memory and are reduced to per-layer
metrics once, at the end of the run.

Pool workers are forked and inherit the wrappers, but their spans stay in
the worker; only the alias-build count crosses back, through shared memory.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.alias_builds = multiprocessing.Value("q", 0)
        self._stack: list[int] = []
        self._swapped: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        with self.alias_builds.get_lock():
            self.alias_builds.value = 0

    def call(self, name, fn, args, kwargs):
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Swap the wrappers in; ``uninstall`` puts the originals back."""
        from noisysum import model

        for module, attr, name, count in _targets():
            original = getattr(module, attr)
            traced = self.wrap(name, original, count)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("noisysum"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._swapped.append((loaded, key, original))
                            setattr(loaded, key, traced)

        sample = model.Distribution.sample
        builds = self.alias_builds

        # The first sample call on a distribution builds its cached alias table.
        def traced_sample(dist, m, rng):
            if "_alias_table" in dist.__dict__:
                return sample(dist, m, rng)
            with builds.get_lock():
                builds.value += 1
            return self.call("model.alias_build", sample, (dist, m, rng), {})

        self._swapped.append((model.Distribution, "sample", sample))
        model.Distribution.sample = traced_sample

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._swapped):
            setattr(owner, key, original)
        self._swapped.clear()

    def metrics(self, calls: int) -> dict[str, float]:
        """Per-layer metrics; times and counts are per workload call."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        trial_ms = []
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            if name == "estimators.two_stage":
                trial_ms.append((end - start) * 1e3)
        quantiles = statistics.quantiles(trial_ms, n=100) if len(trial_ms) > 1 else [0.0] * 99
        c = self.counts
        per_call = {
            "cli.self_s": own["cli.main"],
            "io.load_population_s": total["io.load_population"],
            "io.load_samples_s": total["io.load_samples"],
            "io.write_s": total["io.write"],
            "io.bytes_written": c["io.bytes"],
            "model.alias_build_s": total["model.alias_build"],
            "model.alias_builds": self.alias_builds.value,
            "model.draw_s": own["model.draw"],
            "model.samples_drawn": c["model.samples"],
            "estimators.count_s": total["estimators.count"],
            "estimators.count_calls": c["estimators.count_calls"],
            "estimators.count_scanned": c["estimators.scanned"],
            "estimators.kernel_s": total["estimators.kernel"],
            "estimators.kernel_calls": c["estimators.kernel_calls"],
            "estimators.kernel_terms": c["estimators.terms"],
            "estimators.estimate_self_s": own["estimators.estimate"],
            "estimators.two_stage_self_s": own["estimators.two_stage"],
            "harness.loop_self_s": own["harness.zero_one"] + own["harness.run_trials"],
            "oracle.enumerate_s": total["oracle.enumerate"],
            "oracle.multisets": c["oracle.multisets"],
            "identities.report_s": total["identities.report"],
            "lowerbound.construct_s": total["lowerbound.construct"],
            "lowerbound.realize_s": total["lowerbound.realize"],
            "lowerbound.instance_s": total["lowerbound.instance"],
        }
        values = {key: value / calls for key, value in per_call.items()}
        values.update({
            "io.rows_per_s": _ratio(c["io.rows"],
                                    total["io.load_population"] + total["io.load_samples"]),
            "estimators.count_useful_ratio": _ratio(c["estimators.distinct"],
                                                    c["estimators.scanned"]),
            "oracle.multisets_per_s": _ratio(c["oracle.multisets"], total["oracle.enumerate"]),
            "harness.trial_ms_p50": quantiles[49],
            "harness.trial_ms_p99": quantiles[98],
        })
        return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _kernel_counts(result, args, kwargs):
    # Indices with Y_i >= h: the terms the order-h kernel evaluates.  The
    # kernel has already cached freq.sampled, so this adds no count pass.
    freq, h = _arg(args, kwargs, 0, "freq"), _arg(args, kwargs, 1, "h")
    terms = int(np.count_nonzero(freq.sampled[1] >= h))
    counts = {"estimators.kernel_calls": 1, "estimators.terms": terms}
    if h == 1:
        counts["estimators.distinct"] = terms
    return counts


def _multisets(result, args, kwargs):
    # Multisets of m draws over N indices, computed: C(N + m - 1, m).
    n, m = _arg(args, kwargs, 0, "pop").size, _arg(args, kwargs, 2, "m")
    return {"oracle.multisets": math.comb(n + m - 1, m)}


def _targets():
    from noisysum import cli, estimators, harness, identities, io, lowerbound, model, oracle

    return [
        (cli, "main", "cli.main", None),
        (io, "load_population", "io.load_population",
         lambda r, a, k: {"io.rows": r.population.size}),
        (io, "load_sample_indices", "io.load_samples", lambda r, a, k: {"io.rows": r.size}),
        (io, "atomic_write_text", "io.write",
         lambda r, a, k: {"io.bytes": len(_arg(a, k, 1, "text").encode())}),
        (model, "draw_samples", "model.draw", lambda r, a, k: {"model.samples": r.m}),
        (estimators, "frequency_vector", "estimators.count",
         lambda r, a, k: {"estimators.count_calls": 1, "estimators.scanned": _arg(a, k, 1, "n")}),
        (estimators, "collision_estimator", "estimators.kernel", _kernel_counts),
        (estimators, "estimate_sum", "estimators.estimate", None),
        (estimators, "improved_estimate_sum", "estimators.two_stage", None),
        (harness, "zero_one_experiment", "harness.zero_one", None),
        (harness, "run_trials", "harness.run_trials", None),
        (oracle, "exact_estimator_moments", "oracle.enumerate", _multisets),
        (identities, "identity_report", "identities.report", None),
        (lowerbound, "construct_matched_pair", "lowerbound.construct", None),
        (lowerbound, "realize_integer_counts", "lowerbound.realize", None),
        (lowerbound, "build_reduction_instance", "lowerbound.instance", None),
    ]
