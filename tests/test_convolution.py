import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusloc import TorusLocError

from oracles.convolution import (
    PiecewiseDensity,
    uniform_sum_density,
    uniform_sum_density_at_zero,
)


def test_single_uniform():
    assert uniform_sum_density_at_zero(1) == Fraction(1, 2)


def test_triangle_peak():
    assert uniform_sum_density_at_zero(2) == Fraction(1, 2)


def test_three_fold():
    assert uniform_sum_density_at_zero(3) == Fraction(3, 8)


def test_support_and_mass():
    for n in (1, 2, 3, 4, 5):
        density = uniform_sum_density(n)
        keys = sorted(density.pieces)
        assert keys[0] == -n and keys[-1] == n - 1
        # total mass 1: integrate piece by piece
        total = Fraction(0)
        for k, coeffs in density.pieces.items():
            anti = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(coeffs)]
            upper = sum(c * Fraction(k + 1) ** j for j, c in enumerate(anti))
            lower = sum(c * Fraction(k) ** j for j, c in enumerate(anti))
            total += upper - lower
        assert total == 1


def test_symmetry():
    density = uniform_sum_density(4)
    for x in (Fraction(1, 3), Fraction(3, 2), Fraction(5, 2)):
        assert density.value(x) == density.value(-x)


def test_adjacent_pieces_agree_at_zero():
    # evaluation at the breakpoint 0 checks both neighboring pieces
    for n in (2, 3, 4, 5, 6):
        uniform_sum_density(n).value(Fraction(0))


def test_value_outside_support():
    assert uniform_sum_density(2).value(Fraction(5)) == 0


def test_known_quartic_value():
    # computed by hand from the standard order-4 spline on [0, 4] rescaled
    # to [-4, 4]: value at 1/2 is (1/12)(t^3 - 4(t-1)^3 + 6(t-2)^3), t = 9/4
    assert uniform_sum_density(4).value(Fraction(1, 2)) == Fraction(235, 768)


def test_convolution_matches_cumulative_difference():
    # g(x) = (F(x+1) - F(x-1)) / 2 with F the cumulative mass of one fewer factor
    three = uniform_sum_density(3)
    four = uniform_sum_density(4)
    anti = three._antiderivative()
    top = max(anti)

    def cumulative(t):
        k = math.floor(t)
        if k in anti:
            return sum(c * t**j for j, c in enumerate(anti[k]))
        if k < min(anti):
            return Fraction(0)
        return sum(c * Fraction(top + 1) ** j for j, c in enumerate(anti[top]))

    for x in (Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)):
        assert four.value(x) == (cumulative(x + 1) - cumulative(x - 1)) / 2


def test_invalid_n():
    with pytest.raises(ValueError):
        uniform_sum_density(0)


def test_discontinuous_density_raises():
    with pytest.raises(TorusLocError, match="discontinuous"):
        PiecewiseDensity({-1: [1], 0: [2]}).value(0)


def test_discontinuous_density_raises_under_python_O():
    # python -O strips assert statements; the check must survive it.
    script = (
        "from torusloc import TorusLocError\n"
        "from oracles.convolution import PiecewiseDensity\n"
        "try:\n"
        "    PiecewiseDensity({-1: [1], 0: [2]}).value(0)\n"
        "except TorusLocError as err:\n"
        "    print('raised', err)\n"
    )
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised")
