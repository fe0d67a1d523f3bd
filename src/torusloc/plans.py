"""Plan generation: transverse paths for rank-1 models and the built-in
two-flag recipe for products of projective planes.

For a rank-1 model every wall is a fixed-point moment value, so a path
from a regular value straight out of the moment image crosses exactly the
fixed points on one side.  For the rank-2 projective-plane family the
source text of the recipe is internally inconsistent about which of the
two flags goes with which region of fixed points, so the predicate pair
is exposed as a configuration token and the alternatives are kept side by
side; see the package README for the recorded finding.
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

# Reflections of the two flags under the lattice symmetry that swaps the
# two torus coordinates.
THETA1_MIRROR = OrientedFlag(((1, 0), (0, -1)))
THETA2_MIRROR = OrientedFlag(((0, -1), (1, 0)))

CP2_VARIANTS = ("general", "swapped", "mirror")


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


def _cp2_predicates(n: int, variant: str):
    third = Fraction(n, 3)

    def region_high(i1, i2, i3):  # the displayed first region
        return i1 > third and i3 > third

    def region_low(i1, i2, i3):  # the displayed second region
        return i2 < third and i3 < third

    if variant == "general":
        return ((region_high, THETA1), (region_low, THETA2))
    if variant == "swapped":
        return ((region_high, THETA2), (region_low, THETA1))
    if variant == "mirror":
        # Coordinate-swapped image of the "swapped" assignment.
        def region_high_m(i1, i2, i3):
            return i2 > third and i3 > third

        def region_low_m(i1, i2, i3):
            return i1 < third and i3 < third

        return ((region_high_m, THETA2_MIRROR), (region_low_m, THETA1_MIRROR))
    raise ValueError(f"unknown predicate variant {variant!r}; choose from {CP2_VARIANTS}")


def cp2_plan(n: int, variant: str = "general") -> Plan:
    """Plan for the origin pairing on the n-fold projective-plane product.

    One term per partition of {1..n} satisfying one of the two region
    predicates, with the flag the chosen variant assigns to that region.
    The regions are disjoint, so no partition receives two terms.  The
    predicates depend only on the group sizes and run once per size vector.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 3 == 0:
        raise NotRegular("the origin is not a regular value when n is a multiple of 3")
    predicates = _cp2_predicates(n, variant)
    check_family_size("cp2", 3, n)
    flags: dict[tuple[int, ...], OrientedFlag | None] = {}
    terms = []
    for _, groups, sizes in group_walk(n, 3, ((),) * 3):  # ids and sizes only
        if sizes not in flags:
            flags[sizes] = next((flag for predicate, flag in predicates if predicate(*sizes)), None)
        flag = flags[sizes]
        if flag is not None:
            terms.append(PlanTerm._make(1, cp_label_id(groups), flag))
    return Plan(tuple(terms))
