"""Shared construction helpers for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from torusloc import (
    EquivariantClass,
    FixedPoint,
    MultiPoly,
    Plan,
    PlanTerm,
    TorusModel,
    class_generator,
    volume_class,
)
from torusloc.model import cp_vertex_weights
from torusloc.plans import THETA1, THETA1_MIRROR, THETA2, THETA2_MIRROR


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


def cp2_volume_class(model: TorusModel) -> EquivariantClass:
    """Weyl-corrected volume class of a projective-plane product, divided by m!."""
    cls, m = volume_class(model, "weyl")
    return cls * Fraction(1, factorial(m))


# ----------------------------------------------------------------------
# partition-based reference builders: one frozenset partition per point,
# moments summed per point, ids from sorted sets


def partitions_of(n: int, k: int):
    """All ordered partitions (I_1, ..., I_k) of {1..n} into k disjoint groups."""
    for assignment in itertools.product(range(k), repeat=n):
        parts = [[] for _ in range(k)]
        for element, j in enumerate(assignment, start=1):
            parts[j].append(element)
        yield tuple(frozenset(part) for part in parts)


def ref_sphere_point_id(subset) -> str:
    return "f{" + ",".join(str(i) for i in sorted(subset)) + "}"


def ref_cp_point_id(partition) -> str:
    groups = ["{" + ",".join(str(i) for i in sorted(part)) + "}" for part in partition]
    return "F" + "|".join(groups)


def ref_build_sphere_product(n: int) -> TorusModel:
    points = []
    for bits in itertools.product((0, 1), repeat=n):
        subset = frozenset(i + 1 for i, b in enumerate(bits) if b)
        weights = tuple((-1,) if (i + 1) in subset else (1,) for i in range(n))
        points.append(
            FixedPoint(
                id=ref_sphere_point_id(subset),
                moment=(Fraction(n - 2 * len(subset)),),
                weights=weights,
            )
        )
    return TorusModel(
        rank=1, fixed_points=tuple(points), roots=((1,), (-1,)), weyl_order=2, family=("sphere", n)
    )


def ref_cp_vertex_moments(k: int) -> list[tuple[Fraction, ...]]:
    ones = [Fraction(1)] * (k - 1)
    vertices = []
    for j in range(1, k):
        v = list(ones)
        v[j - 1] -= k
        vertices.append(tuple(v))
    vertices.append(tuple(ones))
    return vertices


def ref_build_cp_product(k: int, n: int) -> TorusModel:
    vertices = ref_cp_vertex_moments(k)
    vertex_weights = cp_vertex_weights(k)
    points = []
    for partition in partitions_of(n, k):
        moment = tuple(
            sum((len(part) * v[i] for part, v in zip(partition, vertices)), Fraction(0))
            for i in range(k - 1)
        )
        weights = []
        for element in range(1, n + 1):
            j = next(idx for idx, part in enumerate(partition) if element in part)
            weights.extend(vertex_weights[j])
        points.append(
            FixedPoint(id=ref_cp_point_id(partition), moment=moment, weights=tuple(weights))
        )
    roots = weyl = None
    if k == 3:
        roots = ((1, -1), (-1, 1), (1, 0), (-1, 0), (0, 1), (0, -1))
        weyl = 6
    return TorusModel(
        rank=k - 1, fixed_points=tuple(points), roots=roots, weyl_order=weyl, family=("cp", k, n)
    )


def ref_cp2_plan(n: int, variant: str) -> Plan:
    """The two-region recipe, with each predicate tested on each partition."""
    third = Fraction(n, 3)
    high = lambda i1, i2, i3: i1 > third and i3 > third
    low = lambda i1, i2, i3: i2 < third and i3 < third
    predicates = {
        "general": ((high, THETA1), (low, THETA2)),
        "swapped": ((high, THETA2), (low, THETA1)),
        "mirror": (
            (lambda i1, i2, i3: i2 > third and i3 > third, THETA2_MIRROR),
            (lambda i1, i2, i3: i1 < third and i3 < third, THETA1_MIRROR),
        ),
    }[variant]
    terms = []
    for partition in partitions_of(n, 3):
        sizes = tuple(len(part) for part in partition)
        for predicate, flag in predicates:
            if predicate(*sizes):
                terms.append(PlanTerm(1, ref_cp_point_id(partition), flag))
                break
    return Plan(tuple(terms))


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
