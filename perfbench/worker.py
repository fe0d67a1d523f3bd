"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

Run from the root of a checkout; the engine is imported from its ``src``.
A fresh process per repetition is what a CLI user pays: the engine's
``lru_cache`` tables start empty.  The spec names the workload, its size
parameter, its input files and whether to trace.

The repetition has four phases: setup (engine import and model), class,
plan and evaluate (plan evaluation and the volume scaling).  It prints one
JSON object: the wall-clock seconds of each phase, the calibration loop's
time before the first phase and after each one, peak resident memory, the
exact value as a string and, when traced, the per-layer metrics.  run.py
turns phases and calibrations into setup_s and solve_s.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter

from workloads import CLASS_EXPR


class _Untraced:
    """Stands in for the tracer: regions cost one no-op context each."""

    def region(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# Calibration: a fixed loop shaped like the engine's inner work (products of
# sparse polynomials held as dicts from exponent tuples to Fractions).  The
# shared host runs at very different speeds from one second to the next, so
# run.py scales each phase's time by how long this loop took around it.
_A = {(i, 9 - i): Fraction(i + 1, 3) for i in range(10)}
_B = {(i, 9 - i): Fraction(2 * i - 9, 5) for i in range(10)}


def calibrate() -> float:
    # With the collector off, the engine's heap cannot slow the loop down.
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(400):
            out = {}
            for (a0, a1), c1 in _A.items():
                for (b0, b1), c2 in _B.items():
                    e = (a0 + b0, a1 + b1)
                    out[e] = out.get(e, 0) + c1 * c2
        return perf_counter() - start
    finally:
        gc.enable()


class Phases:
    """Wall-clock seconds per phase, with the calibration loop run before
    the first phase and after each one, outside the timed intervals."""

    def __init__(self):
        self.seconds = {}
        self.calibration_s = [calibrate()]

    @contextmanager
    def time(self, name):
        start = perf_counter()
        yield
        self.seconds[name] = perf_counter() - start
        self.calibration_s.append(calibrate())


def main(spec: dict) -> dict:
    phases = Phases()
    with phases.time("setup"):
        sys.path.insert(0, str(Path.cwd() / "src"))
        import torusloc.localization as localization
        import torusloc.model as model_mod
        import torusloc.plans as plans
        from torusloc.expr import evaluate_expr, parse_class_expr

        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            tracer = _Untraced()

        workload, param = spec["workload"], spec["param"]
        with tracer.region("model.setup"):
            if workload == "cp2-volume":
                model = model_mod.build_cp_product(3, param)
            elif workload == "spheres-volume":
                model = model_mod.build_sphere_product(param)
            else:
                model = model_mod.load_model(spec["files"]["model"])

    degree = None
    with phases.time("class"), tracer.region("model.class"):
        if workload == "random-rank2":
            cls = evaluate_expr(parse_class_expr(CLASS_EXPR), model)
        else:
            degree = model.weights_per_point - model.rank
            if workload == "cp2-volume":
                degree -= len(model.roots)
            cls = model_mod.class_generator(model, "prequantum") ** degree
            if workload == "cp2-volume":
                cls = localization.weyl_correct(model, cls)
    with phases.time("plan"), tracer.region("plans.plan"):
        if workload == "cp2-volume":
            plan = plans.cp2_plan(param, "swapped")
        elif workload == "spheres-volume":
            plan = plans.rank1_plan(model, 0, 1)
        else:
            plan = localization.load_plan(spec["files"]["plan"])
    with phases.time("evaluate"):
        with tracer.region("localization.evaluate_plan"):
            value = localization.evaluate_plan(model, plan, cls)
        if degree is not None:
            value = value / factorial(degree)

    result = {
        "phases_s": phases.seconds,
        "calibration_s": phases.calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "value": str(value),
    }
    if spec["trace"]:
        layers = tracer.layers()
        layers["model.points"] = len(model.fixed_points)
        layers["model.class_terms"] = sum(len(p.terms) for p in cls.restrictions.values())
        layers["plans.terms"] = len(plan)
        result["layers"] = layers
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
