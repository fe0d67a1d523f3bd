"""Plan generation: transverse paths for rank-1 models and the built-in
two-flag recipe for products of projective planes.

For a rank-1 model every wall is a fixed-point moment value, so a path
from a regular value straight out of the moment image crosses exactly the
fixed points on one side.  For the rank-2 projective-plane family the
source text of the recipe is internally inconsistent about which of the
two flags goes with which region of fixed points, so the assignment is
exposed as a configuration token and the alternatives are kept side by
side in one table; see the package README for the recorded finding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .errors import NotRegular, TorusLocError, Unsupported
from .frozen import Frozen
from .localization import OrientedFlag, Plan, PlanTerm
from .model import TorusModel, check_family_size, cp_label_id, group_walk
from .model import strict_int, strict_int_vector, strict_rational

# The two oriented flags of the projective-plane recipe: cross the second
# circle first and descend against the first circle, or the reverse.
THETA1 = OrientedFlag(((0, 1), (-1, 0)))
THETA2 = OrientedFlag(((-1, 0), (0, 1)))

# Images of the two flags under the lattice symmetry that swaps the two
# torus coordinates.
THETA1_MIRROR, THETA2_MIRROR = (
    OrientedFlag(tuple(stage[::-1] for stage in flag.stages)) for flag in (THETA1, THETA2)
)

# variant -> (flag of region A, flag of region B, mirrored).  Region A holds
# the partitions with i1 > n/3 and i3 > n/3, region B those with i2 < n/3
# and i3 < n/3; a mirrored variant reads both with i1 and i2 swapped, so
# "mirror" is the coordinate-swap image of "swapped".
_CP2_RECIPE = {
    "general": (THETA1, THETA2, False),
    "swapped": (THETA2, THETA1, False),
    "mirror": (THETA2_MIRROR, THETA1_MIRROR, True),
}
CP2_VARIANTS = tuple(_CP2_RECIPE)


class WallList(Frozen):
    """Sorted wall values of a model along a circle direction, with the
    fixed points sitting on each wall."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, tuple[str, ...]], ...]):
        self._set(entries)

    def values(self) -> list[Fraction]:
        return [value for value, _ in self.entries]


def wall_list(model: TorusModel, xi: Sequence[int]) -> WallList:
    """Group the fixed points by the value of their moment against xi, a
    list or tuple of ``int``."""
    xi = strict_int_vector(xi, "direction", Unsupported)
    if len(xi) != model.rank:
        raise Unsupported(f"direction must have length {model.rank}")
    # Each distinct moment object is summed, and its value hashed, once;
    # equal moments held as different objects land in the same group.
    moments = {id(fp.moment): fp.moment for fp in model.fixed_points}
    groups: dict[Fraction, list[str]] = {}
    members: dict[int, list[str]] = {}
    for key, m in moments.items():
        members[key] = groups.setdefault(sum((c * x for c, x in zip(xi, m)), Fraction(0)), [])
    for fp in model.fixed_points:
        members[id(fp.moment)].append(fp.id)
    entries = tuple((value, tuple(groups[value])) for value in sorted(groups))
    return WallList(entries)


def rank1_plan(model: TorusModel, p0: Union[int, Fraction], direction: int) -> Plan:
    """Plan for the pairing at p0 on a rank-1 model, leaving the moment
    image through increasing (+1) or decreasing (-1) values.

    Every fixed point strictly on the exit side contributes one term with
    coefficient +1 and the single-stage flag oriented along the path, in
    point order; walls and sides are tested once per distinct moment
    object.  direction must be an ``int`` (else TorusLocError).
    """
    if model.rank != 1:
        raise Unsupported("rank1_plan requires a rank-1 model")
    if strict_int(direction, "direction", TorusLocError) not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    p0 = strict_rational(p0, "base point", TorusLocError)
    # Keyed by moment identity, as class_generator keys its forms: the
    # builders hand every point of a size vector the same moment tuple.
    moments = {id(fp.moment): fp.moment for fp in model.fixed_points}
    exits: dict[int, bool] = {}
    for key, (value,) in moments.items():
        if value == p0:
            raise NotRegular(f"{p0} is a wall value")
        exits[key] = (value - p0) * direction > 0
    flag = OrientedFlag(((direction,),))
    make = PlanTerm._make
    return Plan(tuple(make(1, fp.id, flag) for fp in model.fixed_points if exits[id(fp.moment)]))


def cp2_plan(n: int, variant: str = "general") -> Plan:
    """Plan for the origin pairing on the n-fold projective-plane product.

    One term per partition of {1..n} in one of the two regions of
    _CP2_RECIPE, with the flag the chosen variant assigns to that region.
    The regions are disjoint, so no partition receives two terms.  They
    depend only on the group sizes and are tested once per size vector.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 3 == 0:
        raise NotRegular("the origin is not a regular value when n is a multiple of 3")
    if variant not in CP2_VARIANTS:
        raise ValueError(f"unknown predicate variant {variant!r}; choose from {CP2_VARIANTS}")
    flag_a, flag_b, mirrored = _CP2_RECIPE[variant]
    check_family_size("cp2", 3, n)
    third = Fraction(n, 3)
    flags: dict[tuple[int, ...], OrientedFlag | None] = {}
    terms = []
    for _, groups, sizes in group_walk(n, 3, ((),) * 3):  # ids and sizes only
        if sizes not in flags:
            i1, i2, i3 = sizes
            if mirrored:
                i1, i2 = i2, i1
            if i1 > third and i3 > third:
                flags[sizes] = flag_a
            elif i2 < third and i3 < third:
                flags[sizes] = flag_b
            else:
                flags[sizes] = None
        flag = flags[sizes]
        if flag is not None:
            terms.append(PlanTerm._make(1, cp_label_id(groups), flag))
    return Plan(tuple(terms))
