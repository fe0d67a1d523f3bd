"""Localization of equivariant classes to fixed-point data.

An oriented flag is an ordered unimodular basis of the integer lattice of
the torus; its stages are circle directions crossed one after another.
Splitting the tangent weights of a fixed point along a flag groups each
weight into the first stage where it has a nonzero component.  Folding a
Segre-class substitution over the stages turns a polynomial restriction
into a rational number; summing those numbers over a plan (a formal
integer combination of fixed point / flag pairs) evaluates a cohomology
pairing on the corresponding symplectic quotient.

Degrees take care of themselves: the final stage has no residual
variables left, so any monomial of the wrong total degree dies along the
way and the result of a full evaluation is always a plain rational.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul
from typing import IO, Sequence, Union

from .errors import (
    DimensionMismatch,
    EmptyStage,
    ModelFormatError,
    NoRootData,
    NotUnimodular,
    PlanFormatError,
    UnknownFixedPoint,
    Unsupported,
)
from .frozen import Frozen
from .model import (
    EquivariantClass,
    FixedPoint,
    TorusModel,
    class_generator,
    read_json,
    strict_int,
    strict_int_vector,
    strict_rational,
)
from .poly import MultiPoly, _int_substitute, affine_product
from .poly import linear_substitute  # noqa: F401  re-exported; instrumentation wraps it by this name
from .weighted import (
    WeightedSpace,
    _finish_fold,
    _stage_fold,
    weighted_segre,  # noqa: F401  re-exported; instrumentation wraps it by this name
)


def _int_det(rows: tuple[tuple[int, ...], ...]) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination.

    Every division is exact, so all intermediate entries stay integers.
    """
    mat = [list(row) for row in rows]
    n = len(mat)
    if n == 0:
        return 1
    sign, previous = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            pivot = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // previous
        previous = mat[k][k]
    return sign * mat[n - 1][n - 1]


class OrientedFlag(Frozen):
    """A signed lattice basis; stage i is the circle direction stages[i].

    Reversing the orientation of a stage circle is exactly negating its
    vector, which negates both the stage weights and the stage variable.
    Stages must be a list or tuple of stage vectors with ``int`` entries,
    as many entries per stage as there are stages; anything else (a float,
    string or boolean entry, ragged stages, a non-sequence) raises
    PlanFormatError.  A square matrix whose determinant is not +1 or -1
    raises NotUnimodular, so every flag that exists is a lattice basis.

    A flag also owns two tables that are not fields and do not take part
    in equality, hashing, pickling or copying: ``_lines`` maps a weight to
    its stage and line (``_stage_lines``), and ``_images`` an exponent to
    its monomial image in flag coordinates (``_int_substitute``).  Both
    depend on the stages alone, so every key evaluated with the flag
    shares them, and ``lambda_flag`` reaches them through the flag object
    it already holds.  They live as long as the flag does.
    """

    _fields = ("stages",)

    def __init__(self, stages: tuple[tuple[int, ...], ...]):
        if not isinstance(stages, (list, tuple)):
            raise PlanFormatError(f"flag must be a list of stage vectors, got {stages!r}")
        stages = tuple(strict_int_vector(s, "flag stage", PlanFormatError) for s in stages)
        d = len(stages)
        if any(len(s) != d for s in stages):
            raise PlanFormatError(
                f"flag stage vectors must all have length equal to the rank, got {stages!r}"
            )
        det = _int_det(stages)
        if abs(det) != 1:
            raise NotUnimodular(f"flag {stages} has determinant {det}")
        self._set(stages)
        # evaluate_plan hashes one flag per plan term
        object.__setattr__(self, "_hash", hash(stages))
        object.__setattr__(self, "_lines", {})
        object.__setattr__(self, "_images", {})

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (OrientedFlag, (self.stages,))  # a copy starts with empty tables

    @property
    def rank(self) -> int:
        return len(self.stages)


class PlanTerm(Frozen):
    """One (fixed point, flag) pair with an ``int`` coefficient and a ``str``
    id; anything else raises PlanFormatError."""

    _fields = ("coefficient", "fixed_point_id", "flag")

    def __init__(self, coefficient: int, fixed_point_id: str, flag: OrientedFlag):
        strict_int(coefficient, "coefficient", PlanFormatError)
        if not isinstance(fixed_point_id, str):
            raise PlanFormatError(f"fixed_point must be a string, got {fixed_point_id!r}")
        # set one by one, faster than _set: load_plan and the recipes make a term per entry
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "fixed_point_id", fixed_point_id)
        object.__setattr__(self, "flag", flag)


class Plan(Frozen):
    """A formal integer combination of (fixed point, flag) pairs."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[PlanTerm, ...]):
        self._set(tuple(terms))

    def __len__(self):
        return len(self.terms)


def _flag_line(weight: tuple[int, ...], stages: tuple[tuple[int, ...], ...]) -> tuple:
    """The stage index and line of one nonzero weight of the flag's rank in
    flag coordinates.

    The weight a is rewritten as a'_i = <a, stage_i> and goes to the first
    stage j with a'_j nonzero, as the line (a'_j, (a'_{j+1}, ..., a'_d)).
    The flag is a lattice basis and the weight is nonzero, so such a j
    exists.  ``_stage_lines`` stores the result in the flag's own table,
    so each (weight, flag) pair is rewritten once.
    """
    coords = [sum(map(mul, weight, stage)) for stage in stages]
    j = next(j for j, c in enumerate(coords) if c)
    return j, (coords[j], tuple(coords[j + 1 :]))


def _stage_lines(point: FixedPoint, flag: OrientedFlag) -> list[tuple]:
    """Group the tangent weights of a fixed point by flag stage, as plain
    (circle weight, residual vector) line tuples placed by ``_flag_line``.

    The placements are looked up in the flag's ``_lines`` table, which the
    flag owns, and a weight missing from it is checked, placed and stored.
    Only weights of the flag's rank that are nonzero are stored, so a
    weight whose length is not the rank raises DimensionMismatch, and a
    zero weight ModelFormatError, on every call.  This is the one check of
    a plan's flag against the model, which is why ``evaluate_plan``
    evaluates every distinct key.
    """
    table, stages = flag._lines, flag.stages
    get, d = table.get, len(stages)
    stage_lines: list[list] = [[] for _ in range(d)]
    for weight in point.weights:
        placed = get(weight)
        if placed is None:
            if len(weight) != d:
                raise DimensionMismatch(
                    f"weight {weight} of fixed point {point.id!r} has length {len(weight)},"
                    f" but the flag has rank {d}"
                )
            if not any(weight):
                raise ModelFormatError(f"fixed point {point.id!r}: zero tangent weight")
            placed = table[weight] = _flag_line(weight, stages)
        stage_lines[placed[0]].append(placed[1])
    return [tuple(lines) for lines in stage_lines]


def flag_split(point: FixedPoint, flag: OrientedFlag) -> tuple[list[WeightedSpace], tuple]:
    """The stages of ``_stage_lines`` as validated WeightedSpaces, and the
    substitution basis for rewriting classes in the same coordinates.  An
    empty stage makes the pair inadmissible and every evaluation zero."""
    spaces = [
        WeightedSpace(lines, residual_count=flag.rank - j - 1)
        for j, lines in enumerate(_stage_lines(point, flag))
    ]
    return spaces, flag.stages


def stage_map(p: MultiPoly, space: WeightedSpace) -> MultiPoly:
    """Integrate out the stage variable of p against one weighted space.

    Variable 0 of p is the stage variable; the rest are the residual
    variables of the space.  Writing p = sum_j a_j x^j, the result is
    gcd * sum_{j >= r-1} a_j s_{j-r+1} with r the complex rank of the
    space and s the weighted Segre pieces.  Powers below r-1 integrate to
    zero.
    """
    if space.is_empty():
        raise EmptyStage("stage map over an empty space")
    if p.nvars != space.residual_count + 1:
        raise ValueError(
            f"polynomial has {p.nvars} variables, expected {space.residual_count + 1}"
        )
    out, stage_den = _stage_fold(p.numerators, space.lines, space.residual_count)
    return MultiPoly._make(space.residual_count, out, p.den * stage_den)


def lambda_flag(
    model: TorusModel,
    fp_id: str,
    flag: OrientedFlag,
    cls: EquivariantClass,
) -> Fraction:
    """Evaluate the localization of a class at one (fixed point, flag) pair.

    The path runs on ints: ``_int_substitute`` rewrites the restriction's
    numerators in flag coordinates over its one denominator, skipping the
    terms the first stage folds to 0.  Both coordinate tables the path
    reads, weight to line and exponent to monomial image, are the flag's
    own (``OrientedFlag._lines`` and ``_images``), found through the flag.
    ``_stage_fold`` folds the line tuples of ``_stage_lines`` stage by
    stage up to the last two, each Segre denominator joining the one
    denominator, and ``_finish_fold`` folds the last two (the one stage at
    rank 1).  Only the final
    constant, scaled by the model's global stabilizer order, becomes a
    Fraction.  Inadmissible pairs (an empty stage) evaluate to 0.  A class
    with no restriction at the point raises UnknownFixedPoint, and one
    whose restriction's variable count is not the flag's rank, which
    ``_stage_lines`` has checked against the point's weights, raises
    DimensionMismatch, also on an inadmissible pair.
    """
    if not model.has_fixed_point(fp_id):
        raise UnknownFixedPoint(f"model has no fixed point {fp_id!r}")
    stages = _stage_lines(model.fixed_point(fp_id), flag)
    p = cls.restrictions.get(fp_id)
    if p is None:
        raise UnknownFixedPoint(f"class has no restriction at fixed point {fp_id!r}")
    if p.nvars != flag.rank:
        raise DimensionMismatch(
            f"class restriction at fixed point {fp_id!r} has {p.nvars} variables,"
            f" but the flag has rank {flag.rank}"
        )
    if not all(stages):
        return Fraction(0)
    low = len(stages[0]) - 1
    numerators, den = _int_substitute(p.numerators, flag.stages, low, flag._images), p.den
    for j, lines in enumerate(stages[:-2]):
        numerators, stage_den = _stage_fold(numerators, lines, flag.rank - j - 1)
        if not numerators:
            return Fraction(0)
        den *= stage_den
    value, stage_den = _finish_fold(numerators, stages[-2:])
    return Fraction(value * model.global_stabilizer_order, den * stage_den)


def evaluate_plan(model: TorusModel, plan: Plan, cls: EquivariantClass) -> Fraction:
    """Signed sum of lambda_flag over the terms of a plan; linear in the class.

    A term's value depends only on the point's restriction, its weight
    multiset and the flag.  Terms are grouped by that key, their
    coefficients summed, and lambda_flag runs once per distinct key, also
    when the summed coefficient is zero, so a flag whose rank is not the
    model's still raises.  Each value's numerator, times the summed
    coefficient, is added into an integer sum per denominator, so only the
    distinct denominators become Fractions.  A class that works out its
    restrictions on first read computes them only at the plan's points.
    """
    by_id, restrictions = model._by_id, cls.restrictions
    groups: dict[tuple, list] = {}
    for term in plan.terms:
        fp_id = term.fixed_point_id
        point = by_id.get(fp_id)
        if point is None:
            raise UnknownFixedPoint(f"model has no fixed point {fp_id!r}")
        restriction = restrictions.get(fp_id)
        if restriction is None:
            raise UnknownFixedPoint(f"class has no restriction at fixed point {fp_id!r}")
        # one hash of the key per term; the group keeps its first term's point
        key = (restriction, point.sorted_weights, term.flag)
        groups.setdefault(key, [fp_id, 0])[1] += term.coefficient
    sums: dict[int, int] = {}  # numerator sums by denominator: one Fraction each
    for (_, _, flag), (fp_id, coefficient) in groups.items():
        value = lambda_flag(model, fp_id, flag, cls)
        den = value.denominator
        sums[den] = sums.get(den, 0) + coefficient * value.numerator
    return sum((Fraction(n, den) for den, n in sums.items()), Fraction(0))


def weyl_correct(model: TorusModel, cls: EquivariantClass) -> EquivariantClass:
    """Multiply by the product of root line classes and divide by the Weyl order.

    This converts pairings on the torus quotient into pairings on the
    quotient by the full nonabelian group.  Like the class operators, it
    works out the first point at once, so a class that does not fit the
    model raises here.
    """
    if model.roots is None or model.weyl_order is None:
        raise NoRootData("model carries no root system or Weyl order")
    root_product = affine_product(model.rank, ((0, root) for root in model.roots))
    scale = Fraction(1, model.weyl_order)
    return cls.pointwise(lambda p: p * root_product * scale)._checked()


def volume_class(model: TorusModel, group: str, base: Sequence = ()) -> tuple[EquivariantClass, int]:
    """The volume class (L - <p0, u>)^m at the base point p0 (default the
    origin) of the quotient by the torus or the full group, and m.  p0 is a
    list or tuple of ``int`` or ``Fraction`` entries; anything else raises
    DimensionMismatch.

    m is the quotient's complex dimension: weights per point minus the rank,
    minus the number of roots for group "weyl", where the class is also
    Weyl-corrected; that group is supported at the origin only, and on a
    model without roots raises NoRootData.  Pairing
    the class over a plan for p0 and dividing by m! gives the coefficient
    of (2pi)^m in the symplectic volume at p0.
    """
    if group not in ("torus", "weyl"):
        raise ValueError(f"group must be 'torus' or 'weyl', got {group!r}")
    if not model.fixed_points:
        raise Unsupported("volume of a model without fixed points")
    m = model.weights_per_point - model.rank
    if group == "weyl":
        if model.roots is None:
            raise NoRootData("model carries no root data for the full-group volume")
        m -= len(model.roots)
    if m < 0:
        raise Unsupported("negative volume degree: quotient dimension is negative")
    if not isinstance(base, (list, tuple)):
        raise DimensionMismatch(f"base point must be a list or tuple, got {base!r}")
    base = tuple(strict_rational(b, "base point entry", DimensionMismatch) for b in base)
    cls = class_generator(model, "prequantum")
    if any(base):
        if group == "weyl":
            raise Unsupported("the full-group volume is defined at the origin only")
        if len(base) != model.rank:
            raise DimensionMismatch(f"base point {base} has length {len(base)}, expected {model.rank}")
        cls = cls - MultiPoly.linear_form(base)
    cls = cls**m
    return (weyl_correct(model, cls) if group == "weyl" else cls), m


# ----------------------------------------------------------------------
# plan files


def plan_to_obj(plan: Plan) -> list:
    return [
        {
            "coefficient": term.coefficient,
            "fixed_point": term.fixed_point_id,
            "flag": [list(stage) for stage in term.flag.stages],
        }
        for term in plan.terms
    ]


def dump_plan(plan: Plan, sink: Union[str, IO[str]]):
    """Write a plan as JSON to an open text stream or a file path."""
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8") as handle:
            return dump_plan(plan, handle)
    json.dump(plan_to_obj(plan), sink, indent=1)
    sink.write("\n")


def load_plan(source: Union[str, IO[str]]) -> Plan:
    """Load a plan from a JSON file path or open text stream.

    Coefficients and flag entries must be JSON integers and fixed point
    ids JSON strings; PlanTerm and OrientedFlag check them, so a flag that
    is not a lattice basis raises NotUnimodular here.  Each distinct flag
    is built and checked once, and its terms share the one object.
    """
    data = read_json(source, PlanFormatError)
    if not isinstance(data, list):
        raise PlanFormatError("plan file must contain a JSON list")
    flags: dict[str, OrientedFlag] = {}  # by repr: true and 1.0 must not reuse 1
    terms = []
    for entry in data:
        try:
            raw = entry["flag"]
            flag = flags.get(repr(raw))
            if flag is None:
                flag = flags[repr(raw)] = OrientedFlag(raw)
            terms.append(PlanTerm(entry["coefficient"], entry["fixed_point"], flag))
        except (PlanFormatError, KeyError, TypeError) as err:
            raise PlanFormatError(f"bad plan term {entry!r}: {err}")
    return Plan(tuple(terms))
