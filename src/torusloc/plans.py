"""Plan generation: transverse paths for rank-1 models, the built-in
two-flag recipe for products of projective planes, and the expansion of
an orbit model and its plans to every point.

For a rank-1 model every wall is a fixed-point moment value, so a path
from a regular value straight out of the moment image crosses exactly the
fixed points on one side.  For the rank-2 projective-plane family the
source text of the recipe is internally inconsistent about which of the
two flags goes with which region of fixed points, so the assignment is
exposed as a configuration token and the alternatives are kept side by
side in one table; see the package README for the recorded finding.

Both recipes depend only on a point's group sizes, so over the orbit
model of a built-in family they give each representative one term whose
coefficient is its orbit size.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .errors import NotRegular, TorusLocError, UnknownFixedPoint, Unsupported
from .frozen import Frozen
from .localization import OrientedFlag, Plan, PlanTerm
from .model import FixedPoint, TorusModel, check_family_size, check_orbit_size, cp_label_id
from .model import group_walk, orbit_types, product_factor
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
    its orbit size as coefficient (1 on a per-point model) and the
    single-stage flag oriented along the path, in point order; walls and
    sides are tested once per distinct moment object.  direction must be
    an ``int`` (else TorusLocError).
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
    return Plan(tuple(
        make(size, fp.id, flag)
        for fp, size in zip(model.fixed_points, model.orbit_sizes)
        if exits[id(fp.moment)]
    ))


def cp2_plan(n: int, variant: str) -> Plan:
    """Plan for the origin pairing on the orbit model of the n-fold
    projective-plane product, build_cp_product(3, n).

    One term per size vector in one of the two regions of _CP2_RECIPE,
    at its representative, with its orbit size as coefficient and the
    flag the chosen variant assigns to that region.  The regions are
    disjoint, so no point receives two terms.  expand_orbits turns it
    into the plan with one term per partition.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 3 == 0:
        raise NotRegular("the origin is not a regular value when n is a multiple of 3")
    if variant not in CP2_VARIANTS:
        raise ValueError(f"unknown predicate variant {variant!r}; choose from {CP2_VARIANTS}")
    flag_a, flag_b, mirrored = _CP2_RECIPE[variant]
    check_orbit_size("cp2", 3, n)
    third = Fraction(n, 3)
    terms = []
    for sizes, groups, orbit_size in orbit_types(n, 3):
        i1, i2, i3 = sizes
        if mirrored:
            i1, i2 = i2, i1
        if i1 > third and i3 > third:
            flag = flag_a
        elif i2 < third and i3 < third:
            flag = flag_b
        else:
            continue
        terms.append(PlanTerm._make(orbit_size, cp_label_id(groups), flag))
    return Plan(tuple(terms))


def expand_orbits(model: TorusModel, plan: Plan | None = None) -> tuple[TorusModel, Plan | None]:
    """The per-point model of a builder's orbit model, and a plan over the
    orbit model carried to it.

    The points come in product order, with the ids, weights and shared
    moment and sorted-weight tuples of the product itself; each takes its
    moment and sorted weights from its orbit's representative.  A term
    with coefficient c at a representative of orbit size m gives every
    point of the orbit a term c/m with the same flag; c must be a
    multiple of m (else Unsupported).  The terms follow the points, and
    each point's terms the order of the plan.  A model without orbits,
    such as a loaded one, comes back as it is, with the plan.  A size
    above the per-point limit raises ModelTooLarge before a point is made.
    """
    if not model.has_orbits:
        return model, plan
    if model.family is None:
        raise Unsupported("only the orbit models of the built-in families expand")
    name, k, vertex_weights, _, point_id = product_factor(model.family)
    n = model.family[-1]
    check_family_size(name, k, n)
    terms_at: dict[str, list] = {fp.id: [] for fp in model.fixed_points}
    if plan is not None:
        sizes_of = dict(zip(terms_at, model.orbit_sizes))
        for term in plan.terms:
            fp_id = term.fixed_point_id
            if fp_id not in terms_at:
                raise UnknownFixedPoint(f"model has no fixed point {fp_id!r}")
            coefficient, rest = divmod(term.coefficient, sizes_of[fp_id])
            if rest:
                raise Unsupported(
                    f"plan term at {fp_id!r} has coefficient {term.coefficient},"
                    f" not a multiple of its orbit size {sizes_of[fp_id]}"
                )
            terms_at[fp_id].append((coefficient, term.flag))
    reps = {
        sizes: (fp.moment, fp.sorted_weights, terms_at[fp.id])
        for (sizes, _, _), fp in zip(orbit_types(n, k), model.fixed_points)
    }
    make_point, make_term = FixedPoint._make, PlanTerm._make
    points, terms = [], []
    for weights, groups, sizes in group_walk(n, k, vertex_weights):
        moment, sorted_weights, rep_terms = reps[sizes]
        fp_id = point_id(groups)
        points.append(make_point(fp_id, moment, weights, sorted_weights))
        for coefficient, flag in rep_terms:
            terms.append(make_term(coefficient, fp_id, flag))
    expanded = TorusModel(model.rank, tuple(points), model.roots, model.weyl_order,
                          model.global_stabilizer_order, model.family)
    return expanded, None if plan is None else Plan(tuple(terms))
