"""The benchmark's own tests, at the smoke size of each workload.

    python3 -m pytest perfbench

Run from the repository root.  They check the reference values against
the engine, the generator's properties, the result line's contract and
that counts repeat exactly between traced runs.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("n", [5, 7])
def test_cp2_swapped_and_mirror_give_the_pinned_volume(n):
    from math import factorial

    from torusloc import build_cp_product, class_generator, cp2_plan, evaluate_plan, weyl_correct

    model = build_cp_product(3, n)
    degree = 2 * n - 8
    cls = weyl_correct(model, class_generator(model, "prequantum") ** degree)
    for variant in ("swapped", "mirror"):
        value = evaluate_plan(model, cp2_plan(n, variant), cls) / factorial(degree)
        assert value == workloads.CP2_VOLUMES[n], variant


@pytest.mark.parametrize("n", [3, 7, 13])
def test_sphere_reference_matches_the_closed_form_module(n):
    from math import factorial

    from torusloc.closedforms import sphere_torus_pairing

    assert workloads.sphere_volume(n) == Fraction(sphere_torus_pairing(n), factorial(n - 1))


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_residue_oracle_matches_the_engine(seed):
    from torusloc import evaluate_plan, load_model, load_plan
    from torusloc.expr import evaluate_expr, parse_class_expr

    model_obj, plan_obj = workloads.generate_random_rank2(seed, workloads.SIZES["smoke"]["random-rank2"])
    model = load_model(io.StringIO(json.dumps(model_obj)))
    plan = load_plan(io.StringIO(json.dumps(plan_obj)))
    cls = evaluate_expr(parse_class_expr(workloads.CLASS_EXPR), model)
    assert evaluate_plan(model, plan, cls) == workloads.random_rank2_value(model_obj, plan_obj)


def test_pinned_seeds_match_the_oracle():
    points = workloads.SIZES["full"]["random-rank2"]
    assert len(workloads.PINNED) >= 2
    for seed, value in workloads.PINNED.items():
        assert workloads.random_rank2_value(*workloads.generate_random_rank2(seed, points)) == value


def test_generator_is_seeded_admissible_and_unshared():
    first = workloads.generate_random_rank2(3, 300)
    assert first == workloads.generate_random_rank2(3, 300)
    assert first != workloads.generate_random_rank2(4, 300)
    shares = workloads.random_rank2_stats(*first)
    assert shares["admissible_share"] == 1.0
    assert shares["distinct_key_share"] > 0.99


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--size", "smoke")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[0])["record"]
    assert set(record["environment"]) == {"python", "nproc", "cpu", "commit", "seed"}
    assert "error_rate=0/" in proc.stdout.splitlines()[-2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_counts(workload):
    runs = [
        result_of(run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1",
                            "--size", "smoke"))
        for _ in range(2)
    ]
    units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        if unit != "s":
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    metrics = runs[0]["metrics"]
    if workload == "random-rank2":
        assert metrics["localization.distinct_keys"]["value"] == metrics["localization.lambda_calls"]["value"]
    else:
        assert metrics["localization.distinct_keys"]["value"] < metrics["localization.lambda_calls"]["value"]


def test_wrong_value_counts_as_failed():
    import run

    rep = run.run_rep(ROOT, {"workload": "cp2-volume", "param": 5, "files": {}, "trace": False}, Fraction(1))
    assert not rep["ok"] and "differs" in rep["error"]


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "cp2-volume", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(range(10)) is None
    for n in (11, 20, 37, 100):
        percentile, value = stats.tail_percentile(range(n))
        assert n - 1 - value >= 10
        assert stats.tail_percentile(range(n + 10))[0] >= percentile


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [x * 0.7 for x in base], 0.25, True) == ("gain", 10)
    assert compare.verdict(base, [x * 1.3 for x in base], 0.25, True)[0] == "regression"
    assert compare.verdict(base, list(base), 0.25, True)[0] == "within bound"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, base, 0.25, True)[0] == "unresolved"


def test_compare_prints_one_row_per_metric(capsys):
    compare.main(["--base", str(ROOT), "--change", str(ROOT), "--pairs", "1", "--seconds", "1",
                  "--workloads", "spheres-volume", "--size", "smoke"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("spheres-volume  ")]
    assert [row.split()[1] for row in rows] == [m["name"] for m in CONFIG["end_to_end"]]
    assert all("gain" not in row for row in rows)
