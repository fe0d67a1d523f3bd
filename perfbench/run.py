"""The torusloc benchmark: cold time to an exact answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src``
(there is nothing to build).  Workloads are defined in workloads.py and
documented in BENCHMARK.md.

The run is a closed loop of one client: a single process that starts one
repetition at a time, each in a fresh interpreter (worker.py), until the
next one would not finish within S seconds; at least MIN_REPS run.  With
--trace 0 it reports the medians of setup_s, solve_s and peak_rss_mb.
With --trace 1 it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones, plus trace.overhead_s, the
difference of their median solve times.

Times are reported at reference speed: each phase's wall-clock seconds
times CAL_REF_S over the mean of the calibration times around it (see
worker.calibrate).  The raw seconds stay in the record line.

Every repetition's exact value is compared with the workload's reference;
one that raises or differs counts as failed.  Before the result the run
prints a record line (environment, inputs, every sample) and a summary
line for people.  The last line is the JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import stats
import workloads

HERE = Path(__file__).resolve().parent
WORKDIR = Path("perfbench") / ".work"  # generated inputs, inside the checkout
MIN_REPS = 3  # untraced runs; a traced run makes at least two of each kind
REP_TIMEOUT_S = 150
BUDGET_S = 160  # no repetition starts after this, whatever --seconds says
# The calibration loop's time at reference speed: about its time in the slower,
# more common state of a shared 2-vCPU Intel Xeon guest under CPython 3.11.
CAL_REF_S = 0.26

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its .git directory only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "seed": seed,
    }


def reference_speed(phases: dict, calibration: list) -> tuple[list, list]:
    """Raw and reference-speed seconds of each phase, in order.

    A phase's factor is CAL_REF_S over the mean of the calibrations just
    before and just after it.
    """
    raw = list(phases.values())
    scaled = [
        seconds * CAL_REF_S / statistics.fmean(calibration[i : i + 2])
        for i, seconds in enumerate(raw)
    ]
    return raw, scaled


def run_rep(root: Path, spec: dict, reference: Fraction) -> dict:
    """One repetition in a fresh interpreter.

    Adds "ok", setup_s and solve_s at reference speed, their raw values,
    "scale" (the solve's factor, applied to layer times) and, on failure,
    "error".
    """
    started = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=root, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {REP_TIMEOUT_S} s",
                "wall_s": perf_counter() - started}
    wall_s = perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "error": tail[0], "wall_s": wall_s}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall_s
    raw, scaled = reference_speed(result["phases_s"], result["calibration_s"])
    result["setup_raw_s"], result["setup_s"] = raw[0], scaled[0]
    result["solve_raw_s"], result["solve_s"] = sum(raw[1:]), sum(scaled[1:])
    result["scale"] = result["solve_s"] / result["solve_raw_s"]
    result["ok"] = Fraction(result["value"]) == reference
    if not result["ok"]:
        result["error"] = f"value {result['value']} differs from reference {reference}"
    return result


def measure(root: Path, spec: dict, reference: Fraction, seconds: float, traced: bool) -> list[dict]:
    """Repetitions until the next would overrun the run; traced runs
    alternate untraced and traced repetitions."""
    kinds = (False, True) if traced else (False,)
    min_rounds = 2 if traced else MIN_REPS
    start = perf_counter()
    reps = []
    while True:
        elapsed = perf_counter() - start
        rounds = len(reps) // len(kinds)
        if rounds >= min_rounds:
            per_round = elapsed / rounds
            if elapsed + per_round > min(seconds, BUDGET_S):
                return reps
        for kind in kinds:
            rep = run_rep(root, dict(spec, trace=kind), reference)
            rep["traced"] = kind
            reps.append(rep)


def medians(reps: list[dict], names) -> dict:
    good = [rep for rep in reps if rep["ok"]]
    if not good:
        return {}
    return {name: statistics.median(rep[name] for rep in good) for name in names}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer medians over the traced repetitions, and whether every
    count repeated exactly."""
    traced = [rep for rep in traced if rep["ok"]]
    if not traced:
        return {}, True
    out, repeat = {}, True
    for name in traced[0]["layers"]:
        values = [rep["layers"][name] for rep in traced]
        if unit_of(name) == "s":
            out[name] = statistics.median(value * rep["scale"] for value, rep in zip(values, traced))
        else:
            repeat &= len(set(values)) == 1
            out[name] = values[0]
    solve = medians(untraced, ["solve_s"])
    if solve:
        out["trace.overhead_s"] = medians(traced, ["solve_s"])["solve_s"] - solve["solve_s"]
    return out, repeat


def summary(workload: str, reps: list[dict]) -> str:
    """One human line: each end-to-end metric over the untraced repetitions,
    with its unit, plus error_rate over all of them."""
    failed = sum(not rep["ok"] for rep in reps)
    good = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    parts = [workload]
    for name, unit in END_TO_END.items():
        values = [rep[name] for rep in good]
        if not values:
            parts.append(f"{name}=n/a")
            continue
        q1, median, q3 = stats.quartiles(values)
        parts.append(f"{name}={median:.4f} {unit} [Q1 {q1:.4f}, Q3 {q3:.4f}]")
        if name == "solve_s":
            raw = statistics.median(rep["solve_raw_s"] for rep in good)
            tail = stats.tail_percentile(values)
            parts.append(f"(raw {raw:.4f} s)")
            parts.append(f"solve_s p{tail[0]}={tail[1]:.4f} s" if tail else "solve_s tail=n/a (under 11 samples)")
    parts.append(f"samples={len(good)}")
    parts.append(f"error_rate={failed}/{len(reps)}={failed / len(reps):.3f}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke is a small size for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "torusloc" / "__init__.py").is_file():
        print(f"error: no engine source at {root / 'src' / 'torusloc'}; run from a checkout root",
              file=sys.stderr)
        return 2

    prep = workloads.prepare(args.workload, args.seed, args.size, root / WORKDIR)
    reference = prep["reference"]
    spec = {"workload": args.workload, "param": prep["param"], "files": prep["files"]}
    reps = measure(root, spec, reference, args.seconds, bool(args.trace))
    untraced = [rep for rep in reps if not rep["traced"]]
    failed = sum(not rep["ok"] for rep in reps)

    record = {
        "workload": args.workload, "size": args.size, "param": prep["param"],
        "reference": str(reference), "inputs": prep["inputs"],
        "environment": environment(root, args.seed),
        "samples": [{k: v for k, v in rep.items() if k != "layers"} for rep in reps],
    }
    if args.trace:
        metrics, record["counts_repeat"] = layer_metrics([r for r in reps if r["traced"]], untraced)
    else:
        metrics = medians(untraced, END_TO_END)
    correct = failed == 0 and bool(metrics) and record.get("counts_repeat", True)

    print(json.dumps({"record": record}))
    print(summary(args.workload, reps))
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
