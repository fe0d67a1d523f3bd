#!/usr/bin/env python3
"""Survey the projective-plane-product volume across plan variants.

For each n not divisible by 3 this prints the volume coefficient computed
with each predicate variant of the built-in two-flag recipe, next to the
printed double-sum formula read verbatim and with its power base repaired
(3i1+3i3-n -> 3i1+3i3-2n, with the overall factor 6(2n-8)! restored).
The table is the evidence behind the finding recorded in the README; a
row that breaks either of its claims (swapped == mirror, and general ==
the repaired printed sum) ends in MISMATCH.
"""

import argparse
from math import factorial

from torusloc import build_cp_product, cp2_plan, evaluate_plan, volume_class
from torusloc.plans import CP2_VARIANTS

from closedforms import cp2_volume_printed_double_sum


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    columns = list(CP2_VARIANTS) + ["printed", "printed/repaired"]
    print(f"{'n':>3} " + " ".join(f"{c:>18}" for c in columns))
    for n in range(4, args.max_n + 1):
        if n % 3 == 0:
            continue
        model = build_cp_product(3, n)
        cls, m = volume_class(model, "weyl")
        scale = 6 * factorial(m)
        volumes = {v: evaluate_plan(model, cp2_plan(n, v), cls) / factorial(m) for v in CP2_VARIANTS}
        repaired = cp2_volume_printed_double_sum(n, repair_base=True) / scale
        values = [*volumes.values(), cp2_volume_printed_double_sum(n) / scale, repaired]
        row = f"{n:>3} " + " ".join(f"{str(v):>18}" for v in values)
        if volumes["swapped"] != volumes["mirror"] or volumes["general"] != repaired:
            row += "  MISMATCH"
        print(row)
    print()
    print("vol((quotient at n)) = value * (2pi)^(2n-8); 'swapped' and 'mirror'")
    print("are the two valid descents and agree; 'general' matches the")
    print("repaired printed formula; the verbatim printed column matches nothing.")


if __name__ == "__main__":
    main()
