"""Plan generation: transverse paths for rank-1 models and the built-in
two-flag recipe for products of projective planes.

For a rank-1 model every wall is a fixed-point moment value, so a path
from a regular value straight out of the moment image crosses exactly the
fixed points on one side.  For the rank-2 projective-plane family the
source text of the recipe is internally inconsistent about which of the
two flags goes with which region of fixed points, so the assignment is
exposed as a configuration token and the alternatives are kept side by
side in one table; see the package README for the recorded finding.

Each recipe is a rule on a point's moment, so it runs on the orbit model
of a built-in family, where each representative's coefficient is its
orbit size, and on the per-point expansion alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .errors import NotRegular, TorusLocError, Unsupported
from .localization import OrientedFlag, Plan, PlanTerm
from .model import TorusModel, family_orbits, strict_int, strict_int_vector, strict_rational

# The two oriented flags of the projective-plane recipe: cross the second
# circle first and descend against the first circle, or the reverse.
THETA1 = OrientedFlag(((0, 1), (-1, 0)))
THETA2 = OrientedFlag(((-1, 0), (0, 1)))

# Images of the two flags under the lattice symmetry that swaps the two
# torus coordinates.
THETA1_MIRROR, THETA2_MIRROR = (
    OrientedFlag(tuple(stage[::-1] for stage in flag.stages)) for flag in (THETA1, THETA2)
)

# variant -> (flag of region A, flag of region B, mirrored), for the regions
# of cp2_plan; a mirrored variant reads them with the torus coordinates
# swapped, so "mirror" is the coordinate-swap image of "swapped".
_CP2_RECIPE = {
    "general": (THETA1, THETA2, False),
    "swapped": (THETA2, THETA1, False),
    "mirror": (THETA2_MIRROR, THETA1_MIRROR, True),
}
CP2_VARIANTS = tuple(_CP2_RECIPE)


def wall_list(model: TorusModel, xi: Sequence[int]) -> tuple[tuple[Fraction, tuple[str, ...]], ...]:
    """The wall values of a model along the circle direction xi, a list or
    tuple of ``int``: one (value, ids) entry per value of a moment against
    xi, in increasing order, with the ids of the fixed points on it.  A
    zero direction, all one wall, raises Unsupported."""
    xi = strict_int_vector(xi, "direction", Unsupported)
    if len(xi) != model.rank:
        raise Unsupported(f"direction must have length {model.rank}")
    if not any(xi):
        raise Unsupported("direction must be nonzero")
    # Each distinct moment object is summed, and its value hashed, once;
    # equal moments held as different objects land in the same group.
    groups: dict[Fraction, list[str]] = {}

    def group_of(m):
        return groups.setdefault(sum((c * x for c, x in zip(xi, m)), Fraction(0)), [])

    for fp, ids in zip(model.fixed_points, model.map_moments(group_of)):
        ids.append(fp.id)
    return tuple((value, tuple(groups[value])) for value in sorted(groups))


def _plan_by_moment(model: TorusModel, flag_of) -> Plan:
    """One term per point whose moment flag_of maps to a flag, not None, in
    point order, with the point's orbit size as coefficient."""
    return Plan(tuple(
        PlanTerm(size, fp.id, flag)
        for fp, size, flag in zip(model.fixed_points, model.orbit_sizes, model.map_moments(flag_of))
        if flag is not None
    ))


def rank1_plan(model: TorusModel, p0: Union[int, Fraction], direction: int) -> Plan:
    """Plan for the pairing at p0 on a rank-1 model, leaving the moment
    image through increasing (+1) or decreasing (-1) values.

    Every fixed point strictly on the exit side contributes one term with
    its orbit size as coefficient (1 on a per-point model) and the
    single-stage flag oriented along the path, in point order.  A moment
    equal to p0 raises NotRegular.  direction must be an ``int`` (else
    TorusLocError).
    """
    if model.rank != 1:
        raise Unsupported("rank1_plan requires a rank-1 model")
    if strict_int(direction, "direction", TorusLocError) not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    p0 = strict_rational(p0, "base point", TorusLocError)
    flag = OrientedFlag(((direction,),))

    def flag_of(moment):
        if moment[0] == p0:
            raise NotRegular(f"{p0} is a wall value")
        return flag if (moment[0] - p0) * direction > 0 else None

    return _plan_by_moment(model, flag_of)


def cp2_plan(source: Union[TorusModel, int], variant: str) -> Plan:
    """Plan for the origin pairing on the n-fold projective-plane product.

    source is a build_cp_product(3, n) model, the orbit model or its
    expansion, or the int n for the orbit plan without building the model;
    any other model raises Unsupported.  A point of moment (m1, m2) =
    (n - 3 i1, n - 3 i2) lies in region A when m1 < 0 < m1 + m2 (i1 and i3
    above n/3), in region B when m1 + m2 < 0 < m2 (i2 and i3 below n/3),
    and a mirrored variant reads (m2, m1).  Each point of a region takes
    one term with its orbit size and the flag the variant gives the region.
    """
    if isinstance(source, TorusModel):
        if not (source.family and source.family[:2] == ("cp", 3)):
            raise Unsupported("cp2_plan needs a build_cp_product(3, n) model or its expansion")
        n = source.family[2]
    else:
        n = strict_int(source, "cp2_plan source", Unsupported)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 3 == 0:
        raise NotRegular("the origin is not a regular value when n is a multiple of 3")
    if variant not in CP2_VARIANTS:
        raise ValueError(f"unknown predicate variant {variant!r}; choose from {CP2_VARIANTS}")
    flag_a, flag_b, mirrored = _CP2_RECIPE[variant]

    def flag_of(moment):
        m1, m2 = moment[::-1] if mirrored else moment
        if m1 < 0 < m1 + m2:
            return flag_a
        if m1 + m2 < 0 < m2:
            return flag_b
        return None

    if isinstance(source, TorusModel):
        return _plan_by_moment(source, flag_of)
    terms = []
    for (i1, i2, _), fp_id, orbit_size in family_orbits(("cp", 3, n)):
        flag = flag_of((n - 3 * i1, n - 3 * i2))  # ints: the moment without Fractions
        if flag is not None:
            terms.append(PlanTerm(orbit_size, fp_id, flag))
    return Plan(tuple(terms))
