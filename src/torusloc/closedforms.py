"""The closed-form torus pairing of the sphere products.

The other closed forms, and the oracles that share no code with the
engine, live under ``tests/oracles/``; this one stays in the package
because the benchmark's self-tests import it from here.
"""

from __future__ import annotations

from math import comb


def sphere_torus_pairing(n: int, power: int | None = None) -> int:
    """sum_k (-1)^k C(n,k) (n-2k)^power over 0 <= k <= (n-1)/2.

    With power = n-1 this is the circle-quotient pairing of the top power
    of the prequantum class at the origin.
    """
    if power is None:
        power = n - 1
    return sum((-1) ** k * comb(n, k) * (n - 2 * k) ** power for k in range((n - 1) // 2 + 1))
