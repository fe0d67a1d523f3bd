"""Spans and counters recorded from outside the engine.

The traced repetition replaces public engine functions at the module
attributes where the engine looks them up (for example
``torusloc.localization.stage_map``, which ``lambda_flag`` resolves at
call time) with wrappers that time and count each call.  Nothing in the
engine's source changes, and untraced repetitions never load this module.

Spans are aggregated as they close rather than stored: per name, the
total duration, the self time (duration minus the part covered by child
spans) and the call count.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name) for each wrapped engine function.
WRAPPED = (
    ("torusloc.localization", "flag_split", "localization.flag_split"),
    ("torusloc.localization", "linear_substitute", "poly.linear_substitute"),
    ("torusloc.localization", "stage_map", "localization.stage_map"),
    ("torusloc.localization", "weighted_segre", "weighted.weighted_segre"),
    ("torusloc.weighted", "series_invert", "poly.series_invert"),
)


class Tracer:
    """Aggregated spans, per-phase multiplication counts and distinct
    plan-term keys for one repetition."""

    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.mul_calls = Counter()
        self.lambda_calls = 0
        self.lambda_keys = set()
        self.phase = None
        self._children = []  # child time accumulated by each open span

    def _open(self):
        self._children.append(0.0)
        return perf_counter()

    def _close(self, name, start):
        duration = perf_counter() - start
        child = self._children.pop()
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._children:
            self._children[-1] += duration

    @contextmanager
    def region(self, name):
        """A span around one of the benchmark's own calls; it also names the
        phase that multiplication counts are charged to."""
        self.phase = name
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)
            self.phase = None

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return wrapper

    def install(self):
        """Wrap the engine's functions; call after importing the engine."""
        import importlib

        from torusloc.poly import MultiPoly

        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.timed(name, getattr(module, attr)))

        localization = importlib.import_module("torusloc.localization")
        lambda_flag = localization.lambda_flag

        def counted_lambda(model, fp_id, flag, cls):
            # A term's value depends only on these three things.
            weights = tuple(sorted(model.fixed_point(fp_id).weights))
            restriction = frozenset(cls.at(fp_id).terms.items())
            self.lambda_calls += 1
            self.lambda_keys.add((weights, restriction, flag.stages))
            return lambda_flag(model, fp_id, flag, cls)

        localization.lambda_flag = counted_lambda

        for attr in ("__mul__", "__rmul__"):
            setattr(MultiPoly, attr, self._counted_mul(getattr(MultiPoly, attr)))

    def _counted_mul(self, mul):
        counts = self.mul_calls

        def wrapper(a, b):
            counts[self.phase] += 1
            return mul(a, b)

        return wrapper

    def layers(self) -> dict:
        """Per-layer metrics of this repetition, by their benchmark names."""
        out = {
            "model.setup_s": self.total_s["model.setup"],
            "model.class_s": self.total_s["model.class"],
            "poly.mul_calls.class": self.mul_calls["model.class"],
            "plans.plan_s": self.total_s["plans.plan"],
            "localization.evaluate_plan_s": self.total_s["localization.evaluate_plan"],
            "localization.lambda_calls": self.lambda_calls,
            "localization.distinct_keys": len(self.lambda_keys),
            "localization.useful_ratio": len(self.lambda_keys) / max(self.lambda_calls, 1),
            "localization.stage_map_self_s": self.self_s["localization.stage_map"],
            "weighted.segre_miss_ratio": (
                self.calls["poly.series_invert"] / max(self.calls["weighted.weighted_segre"], 1)
            ),
            "poly.mul_calls.eval": self.mul_calls["localization.evaluate_plan"],
        }
        for _, _, name in WRAPPED:
            out[f"{name}_s"] = self.total_s[name]
            out[f"{name}_calls"] = self.calls[name]
        return out
