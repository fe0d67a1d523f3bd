"""Workload definitions: sizes, generated inputs and exact reference values.

Nothing here imports the engine.  The reference values are either pinned
constants or computed by code that shares nothing with it (a binomial sum
for the sphere products, a one-variable residue formula for the random
rank-2 pairs), so a wrong answer from the engine cannot also be the
reference it is checked against.

Each workload replays the calls one CLI invocation makes:

    cp2-volume      torusloc volume --model cp2:8 --group weyl --cp2-variant swapped
    spheres-volume  torusloc volume --model spheres:13 --group torus --path 0:+
    random-rank2    torusloc pair --model MODEL.json --class "L^6" --plan PLAN.json
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path

WORKLOADS = ("cp2-volume", "spheres-volume", "random-rank2")

# "full" is what the benchmark measures; "smoke" is a small size of the same
# sequence for the benchmark's own tests.
SIZES = {
    "full": {"cp2-volume": 8, "spheres-volume": 13, "random-rank2": 3000},
    "smoke": {"cp2-volume": 5, "spheres-volume": 7, "random-rank2": 200},
}

# Volume coefficients of cp2:n at the origin (value times (2pi)^(2n-8)),
# pinned from the swapped recipe and the free-orbit count at n = 4.
CP2_VOLUMES = {4: Fraction(1), 5: Fraction(5, 2), 7: Fraction(413, 24), 8: Fraction(11539, 240)}

# random-rank2 shape: rank 2, eight weights per point in [-BOX, BOX]^2, and
# the class L^DEGREE, whose degree is the quotient dimension 8 - 2.
WEIGHTS_PER_POINT = 8
BOX = 4
DEGREE = WEIGHTS_PER_POINT - 2
CLASS_EXPR = f"L^{DEGREE}"

# The four oriented flags of the built-in cp2 recipe (Theta1, Theta2 and
# their images under swapping the torus coordinates).
FLAGS = (
    ((0, 1), (-1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((0, -1), (1, 0)),
)

# Exact random-rank2 pairings for the shipped seeds at the full size, so a
# later change can be rechecked on these and on a seed never seen before
# (where the residue oracle below supplies the reference).
PINNED = {
    1: Fraction("581763549265732378696873/2176782336000000"),
    2: Fraction("315385283133410474993543141/1003061300428800000"),
}


def sphere_volume(n: int) -> Fraction:
    """Torus-quotient volume coefficient of spheres:n at moment 0.

    The pairing of L^(n-1) is sum_k (-1)^k C(n,k) (n-2k)^(n-1) over
    0 <= k <= (n-1)/2, and the volume divides it by (n-1)!.
    """
    pairing = sum((-1) ** k * comb(n, k) * (n - 2 * k) ** (n - 1) for k in range((n - 1) // 2 + 1))
    return Fraction(pairing, factorial(n - 1))


# ----------------------------------------------------------------------
# random-rank2: generator


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _admissible(weights, flag) -> bool:
    """Both flag stages receive a weight: some weight pairs nonzero with the
    first stage vector and some weight is annihilated by it."""
    first = [_dot(w, flag[0]) for w in weights]
    return any(first) and not all(first)


def generate_random_rank2(seed: int, points: int) -> tuple[dict, list]:
    """Model and plan objects for random-rank2, a pure function of the seed.

    Every point gets one plan term with coefficient +1 or -1 and a flag
    drawn from FLAGS; its weights are redrawn until the term is admissible.
    Moments are rationals with denominators up to 6.
    """
    rng = random.Random(seed)
    box = [(a, b) for a in range(-BOX, BOX + 1) for b in range(-BOX, BOX + 1) if (a, b) != (0, 0)]
    fixed_points, plan = [], []
    for i in range(points):
        flag = rng.choice(FLAGS)
        weights = [rng.choice(box) for _ in range(WEIGHTS_PER_POINT)]
        while not _admissible(weights, flag):
            weights = [rng.choice(box) for _ in range(WEIGHTS_PER_POINT)]
        moment = [str(Fraction(rng.randint(-24, 24), rng.randint(1, 6))) for _ in range(2)]
        point_id = f"p{i}"
        fixed_points.append({"id": point_id, "moment": moment, "weights": [list(w) for w in weights]})
        plan.append({
            "coefficient": rng.choice((1, -1)),
            "fixed_point": point_id,
            "flag": [list(stage) for stage in flag],
        })
    return {"rank": 2, "fixed_points": fixed_points, "global_stabilizer_order": 1}, plan


def random_rank2_stats(model: dict, plan: list) -> dict:
    """Measured shares behind the workload's "no sharing" claim.

    A plan term's value depends only on the point's sorted weights, its
    moment (which fixes the restriction of L^6) and the flag; terms with
    equal keys could share one evaluation.
    """
    by_id = {fp["id"]: fp for fp in model["fixed_points"]}
    keys, admissible = set(), 0
    for term in plan:
        fp = by_id[term["fixed_point"]]
        weights = tuple(sorted(tuple(w) for w in fp["weights"]))
        flag = tuple(tuple(s) for s in term["flag"])
        admissible += _admissible(weights, flag)
        keys.add((weights, tuple(fp["moment"]), flag))
    return {
        "terms": len(plan),
        "admissible_share": admissible / len(plan),
        "distinct_key_share": len(keys) / len(plan),
    }


# ----------------------------------------------------------------------
# random-rank2: reference oracle


def _inverse_series(coeffs: list[int], order: int) -> list[Fraction]:
    """Coefficients h_0..h_order of 1 / sum_k coeffs[k] t^k."""
    h = [Fraction(1, coeffs[0])]
    for k in range(1, order + 1):
        acc = sum((coeffs[i] * h[k - i] for i in range(1, min(k, len(coeffs) - 1) + 1)), Fraction(0))
        h.append(-acc / coeffs[0])
    return h


def flag_pairing(moment, weights, flag, degree: int) -> Fraction:
    """Value of L^degree at one (fixed point, rank-2 flag) pair.

    In flag coordinates L = m0*x0 + m1*x1 and weight w becomes a0*x0 + a1*x1
    with a_i = <w, stage_i>.  Integrating out x0 over the weights with
    a0 != 0 is minus the residue at infinity of L^degree over their product,
    taken with x1 = 1 by homogeneity, times the gcd of those a0; the second
    stage then divides by the product of the remaining a1 and multiplies by
    their gcd.  Returns 0 when the degree does not match the fold.
    """
    m0, m1 = (sum((Fraction(m) * s for m, s in zip(moment, stage)), Fraction(0)) for stage in flag)
    first = [(_dot(w, flag[0]), _dot(w, flag[1])) for w in weights if _dot(w, flag[0])]
    second = [_dot(w, flag[1]) for w in weights if not _dot(w, flag[0])]
    r0, r1 = len(first), len(second)
    if not r0 or not r1 or degree - r0 + 1 != r1 - 1:
        return Fraction(0)
    chern = [1]
    for a0, a1 in first:
        chern = [
            (chern[k] if k < len(chern) else 0) * a0 + (chern[k - 1] * a1 if k else 0)
            for k in range(len(chern) + 1)
        ]
    h = _inverse_series(chern, degree - r0 + 1)
    residue = sum(
        (comb(degree, j) * m0**j * m1 ** (degree - j) * h[j - r0 + 1] for j in range(r0 - 1, degree + 1)),
        Fraction(0),
    )
    product = 1
    for a1 in second:
        product *= a1
    return residue * gcd(*(abs(a0) for a0, _ in first)) * gcd(*(abs(a) for a in second)) / product


def random_rank2_value(model: dict, plan: list) -> Fraction:
    """Exact pairing of L^DEGREE against the plan, by flag_pairing per term."""
    by_id = {fp["id"]: fp for fp in model["fixed_points"]}
    total = Fraction(0)
    for term in plan:
        fp = by_id[term["fixed_point"]]
        flag = tuple(tuple(s) for s in term["flag"])
        total += term["coefficient"] * flag_pairing(fp["moment"], fp["weights"], flag, DEGREE)
    return total * model["global_stabilizer_order"]


# ----------------------------------------------------------------------
# preparation, done once per run before any timed repetition


def prepare(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the workload's input files and return its reference value.

    Returns a dict with "param" (n or point count), "reference" (Fraction),
    "files" (paths of the input files the engine reads) and "inputs"
    (measured input properties).
    """
    param = SIZES[size][workload]
    if workload == "cp2-volume":
        return {"param": param, "reference": CP2_VOLUMES[param], "files": {},
                "inputs": {"points": 3**param}}
    if workload == "spheres-volume":
        return {"param": param, "reference": sphere_volume(param), "files": {},
                "inputs": {"points": 2**param}}
    model, plan = generate_random_rank2(seed, param)
    reference = random_rank2_value(model, plan)
    pinned = PINNED.get(seed) if size == "full" else None
    if pinned is not None and pinned != reference:
        raise RuntimeError(f"oracle gives {reference} for seed {seed}, pinned {pinned}")
    workdir.mkdir(parents=True, exist_ok=True)
    files = {"model": workdir / f"random-rank2-{size}-{seed}-model.json",
             "plan": workdir / f"random-rank2-{size}-{seed}-plan.json"}
    files["model"].write_text(json.dumps(model), encoding="utf-8")
    files["plan"].write_text(json.dumps(plan), encoding="utf-8")
    stats = random_rank2_stats(model, plan)
    stats["points"] = param
    return {"param": param, "reference": reference, "files": {k: str(v) for k, v in files.items()},
            "inputs": stats}
