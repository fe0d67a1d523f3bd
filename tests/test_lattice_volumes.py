"""Torus volumes of the engine against the lattice-point oracle
(``oracles.lattice``), which shares no code with torusloc, and the
oracle's own counts by hand."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from torusloc import (
    build_cp_product,
    build_sphere_product,
    cp2_plan,
    evaluate_plan,
    rank1_plan,
    volume_class,
)

from oracles.lattice import dilate, lattice_count, lattice_volume, leading_coefficient


def engine_volume(model, plan, base) -> Fraction:
    cls, m = volume_class(model, "torus", base)
    return evaluate_plan(model, plan, cls) / factorial(m)


@pytest.mark.parametrize("n, p0, expected", [
    (3, "0", "3"),
    (3, "1/2", "11/4"),
    (5, "0", "115/12"),
    (5, "3/2", "499/96"),
    (4, "1/3", "277/54"),
    (6, "1/2", "31927/1920"),
    (7, "5/3", "205484/10935"),
])
def test_sphere_volumes_count_lattice_points(n, p0, expected):
    p0 = Fraction(p0)
    model = build_sphere_product(n)
    engine = engine_volume(model, rank1_plan(model, p0, 1), (p0,))
    assert lattice_volume("spheres", n, (p0,)) == engine == Fraction(expected)


def test_cp2_volume_counts_lattice_points():
    model = build_cp_product(3, 4)
    engine = engine_volume(model, cp2_plan(model, "swapped"), ())
    assert lattice_volume("cp2", 4, (0, 0)) == engine == Fraction(139, 4)
    # the general variant pairs the same class to 0
    assert engine_volume(model, cp2_plan(model, "general"), ()) == 0


@pytest.mark.parametrize("k", range(5))
def test_dilates_hold_every_lattice_point(k):
    assert len(dilate("spheres", k)) == 2 * k + 1
    assert len(dilate("cp2", k)) == (3 * k + 1) * (3 * k + 2) // 2


@pytest.mark.parametrize("family, n, k, target, expected", [
    ("spheres", 2, 1, (0,), 3),  # (-1, 1), (0, 0), (1, -1)
    ("spheres", 3, 2, (6,), 1),  # the vertex (2, 2, 2)
    ("cp2", 1, 1, (0, 0), 1),  # the triangle's one interior point
    ("cp2", 2, 1, (2, 2), 1),  # the vertex (1, 1) twice
    ("cp2", 2, 1, (0, 0), 7),  # the points of the triangle whose negatives lie in it
])
def test_counts_by_hand(family, n, k, target, expected):
    assert lattice_count(family, n, k, target) == expected


def test_a_step_off_the_denominator_raises():
    # p0 = 1/3 at step 1 rounds k * p0 down, so L is no polynomial there
    with pytest.raises(ArithmeticError, match="not a polynomial of degree 3 at step 1"):
        leading_coefficient("spheres", 4, (Fraction(1, 3),), 1)


def test_a_step_off_the_denominator_raises_under_python_O():
    # python -O strips assert statements; the check must survive it
    # (with asserts, this call returned 22/3 under -O, not 277/54).
    script = (
        "from fractions import Fraction\n"
        "from oracles.lattice import leading_coefficient\n"
        "try:\n"
        "    print('returned', leading_coefficient('spheres', 4, (Fraction(1, 3),), 1))\n"
        "except ArithmeticError as err:\n"
        "    print('raised', err)\n"
    )
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout
