#!/usr/bin/env python3
"""Tabulate symplectic volumes of sphere-product quotients for odd n.

For each odd n the circle-quotient and rotation-group-quotient volume
coefficients are computed three ways where applicable: by plan
evaluation, by the alternating binomial sum, and by the exact
piecewise-polynomial convolution oracle.
"""

import argparse
from math import factorial

from torusloc import build_sphere_product, evaluate_plan, rank1_plan, volume_class
from torusloc.closedforms import sphere_torus_pairing

from convolution import uniform_sum_density_at_zero


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=9)
    args = parser.parse_args()

    header = f"{'n':>3} {'torus pairing':>16} {'binomial sum':>16} {'oracle':>16} {'vol/(2pi)^(n-1)':>18} {'vol_rot/(2pi)^(n-3)':>20}"
    print(header)
    print("-" * len(header))
    for n in range(3, args.max_n + 1, 2):
        model = build_sphere_product(n)
        plan = rank1_plan(model, 0, 1)
        torus_cls, m = volume_class(model, "torus")
        pairing = evaluate_plan(model, plan, torus_cls)
        binomial = sphere_torus_pairing(n)
        oracle = 2**n * factorial(n - 1) * uniform_sum_density_at_zero(n)
        torus_vol = pairing / factorial(m)
        rot_cls, m_rot = volume_class(model, "weyl")
        rot_vol = evaluate_plan(model, plan, rot_cls) / factorial(m_rot)
        status = "" if pairing == binomial == oracle else "  MISMATCH"
        print(
            f"{n:>3} {str(pairing):>16} {str(binomial):>16} {str(oracle):>16}"
            f" {str(torus_vol):>18} {str(rot_vol):>20}{status}"
        )


if __name__ == "__main__":
    main()
