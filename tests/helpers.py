"""Shared construction helpers for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from torusloc import (
    EquivariantClass,
    MultiPoly,
    TorusModel,
    class_generator,
    weyl_correct,
)


def monomial_class(model: TorusModel, j1: int, j2: int) -> EquivariantClass:
    """The class restricting to u1^j1 u2^j2 at every fixed point of a rank-2 model."""
    poly = MultiPoly(2, {(j1, j2): 1})
    return EquivariantClass({fp.id: poly for fp in model.fixed_points})


def v_monomial(model: TorusModel, exponents) -> EquivariantClass:
    """Product of factor classes v_i^(exponents[i-1]) on a sphere-product model."""
    cls = EquivariantClass.constant(model, 1)
    for i, power in enumerate(exponents, start=1):
        if power:
            cls = cls * class_generator(model, "v", index=i) ** power
    return cls


def all_v_monomials(n: int, degree: int):
    """All exponent tuples (l1..ln) with sum equal to degree."""
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exponents = [0] * n
        for i in combo:
            exponents[i] += 1
        yield tuple(exponents)


def sizes_of(point_id: str) -> tuple[int, int, int]:
    """Recover the partition sizes from a projective-plane fixed point id."""
    groups = point_id[1:].split("|")
    return tuple(0 if g == "{}" else len(g.strip("{}").split(",")) for g in groups)


def cp2_volume_class(model: TorusModel, n: int) -> EquivariantClass:
    """Weyl-corrected volume class of the n-fold projective-plane product."""
    m = 2 * n - 8
    cls = class_generator(model, "prequantum") ** m
    return weyl_correct(model, cls) * Fraction(1, factorial(m))


# ----------------------------------------------------------------------
# plain-Fraction polynomial reference for the integer kernels


def ref_terms(p: MultiPoly) -> dict:
    """The terms of p with every coefficient as a Fraction."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    """Product of two {exponent: Fraction} dictionaries, zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)
