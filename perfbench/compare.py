"""Parent-versus-change comparison of the end-to-end metrics.

    python3 perfbench/compare.py --base PARENT_DIR --change CHANGE_DIR \\
        [--pairs 10] [--seconds 40] [--workloads cp2-volume ...]

Each directory is a checkout root holding ``src/torusloc``; make the
parent one with ``git archive <rev> | tar -x -C PARENT_DIR``.  Both sides
run this benchmark's own run.py with identical settings, so only the
engine differs.  Pair i uses seed first_seed + i on both sides and
alternates which side runs first.

One row per workload and metric: each side's median and quartiles over
its runs, the share of pairs the change wins (ties count for neither) and
a verdict.  "gain" needs at least ten pairs, nine tenths of them won and
a median difference larger than the parent's interquartile distance.
"regression" means the change's median is worse than the parent's by
more than the metric's bound in BENCHMARK.json.  "unresolved" means a
side's spread exceeds the bound, unless every change run beats every
parent run.  The pooled solve_s samples of each side also give the tail
percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 200
MIN_PAIRS = 10  # fewer pairs can show every verdict but "gain"


def run_once(side: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[0])["record"]
    return result


def verdict(base: list[float], change: list[float], bound: float, lower_better: bool) -> tuple[str, int]:
    """The verdict for one metric and the number of pairs the change won."""
    sign = 1 if lower_better else -1
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    q1, base_median, q3 = stats.quartiles(base)
    change_median = stats.quartiles(change)[1]
    improvement = sign * (base_median - change_median)
    every_run_better = max(sign * c for c in change) < min(sign * b for b in base)
    if max(stats.spread(base), stats.spread(change)) > bound and not every_run_better:
        return "unresolved", wins
    if -improvement > bound * base_median:
        return "regression", wins
    if len(base) >= MIN_PAIRS and wins >= 0.9 * len(base) and improvement > q3 - q1:
        return "gain", wins
    return "within bound", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}

    for workload in args.workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.first_seed + i, seconds, args.size))
        failed = {}
        for side, results in runs.items():
            failed[side] = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            solve = [s["solve_s"] for r in results for s in r["record"]["samples"] if s["ok"]]
            tail = stats.tail_percentile(solve)
            tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "n/a"
            print(f"{workload} {side}: commit {results[0]['record']['environment']['commit']}"
                  f"  failed {failed[side]}/{attempted}  solve_s samples {len(solve)}, tail {tail_text}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"] if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
            if len(base) < args.pairs or len(change) < args.pairs:
                print(f"{workload:15} {name:12} missing from runs where every repetition failed: unresolved")
                continue
            result, wins = verdict(base, change, metric["bound"], metric["better"] == "lower")
            if result == "gain" and failed["change"] > failed["base"]:
                result = "no gain: more repetitions failed"
            b1, bm, b3 = stats.quartiles(base)
            c1, cm, c3 = stats.quartiles(change)
            print(f"{workload:15} {name:12} {metric['unit']:4} base {bm:.4f} [{b1:.4f}, {b3:.4f}]"
                  f"  change {cm:.4f} [{c1:.4f}, {c3:.4f}]  wins {wins}/{args.pairs}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
