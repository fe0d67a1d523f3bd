"""Torus volumes from lattice points: an oracle in pure Python that shares
no code with torusloc.

Let Δ be one factor's moment polytope: [-1, 1] in Z for a sphere, and the
triangle (-2, 1), (1, -2), (1, 1) in Z^2 for a projective plane.  L(k)
counts the n-tuples of lattice points of kΔ that sum to k·p0.  These are
the lattice points of the k-th dilate of the fiber polytope over p0 of
the n-fold sum, so by Ehrhart's theorem L is a polynomial in k on the
multiples of the denominator D of p0, whose leading coefficient is that
polytope's volume on its own lattice: the number that `volume --group
torus` prints before `* (2pi)^m`, with m = (n - 1) d the dimension.

The fiber polytope's vertices can have larger denominators than p0, so
the count runs at k = s·j for j = 1..m+2, the (m+1)-th difference must
vanish, and the steps s = D and s = 2D must give the same value; either
check raises ArithmeticError, also under ``python -O``.

The cp2:5 count is too slow for the tier-1 tests (about 13 s on a 2-core
machine under CPython 3.11), so CI runs it from the shell:
    PYTHONPATH=src:tests python -c "from oracles.lattice import lattice_volume; print(lattice_volume('cp2', 5, (0, 0)))"
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

BASE = 1 << 32  # packs a lattice point into one int; every coordinate sum here is far smaller


def pack(point) -> int:
    return sum(c * BASE**i for i, c in enumerate(point))


def dilate(family: str, k: int) -> list[tuple[int, ...]]:
    """The lattice points of kΔ."""
    if family == "spheres":
        return [(x,) for x in range(-k, k + 1)]
    # the triangle is x <= 1, y <= 1, x + y >= -1
    return [(x, y) for x in range(-2 * k, k + 1) for y in range(-2 * k, k + 1) if x + y >= -k]


def lattice_count(family: str, n: int, k: int, target) -> int:
    """L(k): the n-tuples of lattice points of kΔ that sum to target,
    the sums of n // 2 points met with the sums of the rest."""
    points = [pack(p) for p in dilate(family, k)]

    def add_factor(sums: dict) -> dict:
        out: dict[int, int] = {}
        get = out.get
        for s, c in sums.items():
            for p in points:
                out[s + p] = get(s + p, 0) + c
        return out

    low = {0: 1}
    for _ in range(n // 2):
        low = add_factor(low)
    high = add_factor(low) if n % 2 else low
    t = pack(target)
    return sum(c * high.get(t - s, 0) for s, c in low.items())


def leading_coefficient(family: str, n: int, p0, step: int) -> Fraction:
    """The leading coefficient of L from k = step·j, j = 1..m+2; the
    (m+1)-th difference must vanish."""
    m = (n - 1) * len(p0)
    values = [lattice_count(family, n, k, [int(k * c) for c in p0]) for k in range(step, (m + 3) * step, step)]
    for _ in range(m):
        values = [b - a for a, b in zip(values, values[1:])]
    if values[1] != values[0]:
        raise ArithmeticError(f"L is not a polynomial of degree {m} at step {step}")
    return Fraction(values[0], factorial(m) * step**m)


def lattice_volume(family: str, n: int, p0) -> Fraction:
    """The torus volume coefficient at p0, the same at the steps D and 2D,
    D the denominator of p0."""
    p0 = tuple(map(Fraction, p0))
    denominator = lcm(*(c.denominator for c in p0))
    value, doubled = (leading_coefficient(family, n, p0, s * denominator) for s in (1, 2))
    if value != doubled:
        raise ArithmeticError(f"the steps D and 2D give {value} and {doubled}")
    return value
