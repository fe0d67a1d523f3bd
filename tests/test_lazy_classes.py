"""Classes whose restrictions are worked out on first read.

The generators and the class arithmetic return classes that compute a
restriction when a point is first read.  These tests check that such a
class reads the same as the per-point arithmetic at every point, whatever
the order of reads, that a pairing computes only what its plan reads, that
each operator still raises at its own call, and that pickling and copying
read out every restriction.
"""

import copy
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    DimensionMismatch,
    EquivariantClass,
    MultiPoly,
    TorusModel,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    rank1_plan,
    volume_class,
    weyl_correct,
)
from torusloc.model import MAX_LAZY_DEPTH, FixedPoint
from torusloc.poly import Factored, affine_product

from helpers import mixed_polys

ROOTS = {1: ((1,), (-1,)), 2: ((1, 0), (-1, 0), (1, -1), (-1, 1))}


@st.composite
def models(draw):
    """A rank-1 or rank-2 model with root data, whose points draw their
    moments from a few tuples, so that some share a moment object and some
    only an equal value."""
    rank = draw(st.sampled_from((1, 2)))
    coordinate = st.fractions(-2, 2, max_denominator=2)
    moments = draw(st.lists(st.tuples(*[coordinate] * rank), min_size=1, max_size=3))
    size = draw(st.integers(1, 6))
    weights = tuple((1,) * rank for _ in range(rank + 1))
    points = []
    for i in range(size):
        moment = draw(st.sampled_from(moments))
        if draw(st.booleans()):
            moment = tuple(moment)  # an equal tuple, another object
        points.append(FixedPoint(f"p{i}", moment, weights))
    return TorusModel(rank, tuple(points), ROOTS[rank], 2)


SCALARS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@st.composite
def chains(draw):
    """A model, three starting classes over it (the prequantum class, a
    line class and a class given as a dict), a chain of steps, each of which
    names its operands by position in the growing list of classes, and
    reads to make between the steps."""
    model = draw(models())
    ids = [fp.id for fp in model.fixed_points]
    rank = model.rank
    start = [
        class_generator(model, "prequantum"),
        class_generator(model, "line", direction=draw(st.lists(st.integers(-2, 2),
                                                               min_size=rank, max_size=rank))),
        EquivariantClass({fp_id: draw(mixed_polys(rank, max_exp=2, max_terms=3)) for fp_id in ids}),
    ]
    # any class so far, or one of the three starting classes; products and
    # powers take a starting class, so that degrees stay small
    index, start_index = st.integers(0, 20), st.integers(0, 2)
    step = st.one_of(
        st.tuples(st.sampled_from(("+", "-")), index, index),
        st.tuples(st.just("*"), index, start_index),
        st.tuples(st.sampled_from(("+s", "-s", "*s")), index, SCALARS),
        st.tuples(st.just("+p"), index, mixed_polys(rank, max_exp=1, max_terms=2)),
        st.tuples(st.just("**"), start_index, st.integers(0, 3)),
        st.tuples(st.just("weyl"), index, st.none()),
    )
    steps = draw(st.lists(step, min_size=1, max_size=6))
    reads = draw(st.lists(st.tuples(index, st.sampled_from(ids)), max_size=10))
    return model, start, steps, reads


def apply(model, step, classes, values):
    """One step on the classes and, point by point, on their values."""
    kind, i, operand = step
    i %= len(classes)
    a, pa = classes[i], values[i]
    if kind in ("+", "-", "*"):
        j = operand % len(classes)
        b, pb = classes[j], values[j]
        ops = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}
        return ops[kind](a, b), {k: ops[kind](p, pb[k]) for k, p in pa.items()}
    if kind == "+s" or kind == "+p":
        return a + operand, {k: p + operand for k, p in pa.items()}
    if kind == "-s":
        return a - operand, {k: p - operand for k, p in pa.items()}
    if kind == "*s":
        return a * operand, {k: p * operand for k, p in pa.items()}
    if kind == "**":
        return a**operand, {k: p**operand for k, p in pa.items()}
    roots = affine_product(model.rank, ((0, r) for r in model.roots))
    return weyl_correct(model, a), {k: p * roots * Fraction(1, model.weyl_order)
                                    for k, p in pa.items()}


@settings(max_examples=80, deadline=None)
@given(chains(), st.randoms(use_true_random=False))
def test_chains_read_as_the_per_point_arithmetic(chain, rng):
    model, classes, steps, reads = chain
    model_ids = [fp.id for fp in model.fixed_points]
    values = [{fp.id: MultiPoly.linear_form(fp.moment) for fp in model.fixed_points}]
    values += [{fp_id: cls.at(fp_id) for fp_id in model_ids} for cls in classes[1:]]  # expanded
    for n, step in enumerate(steps):
        cls, value = apply(model, step, classes, values)
        classes.append(cls)
        values.append(value)
        for i, fp_id in reads[n::len(steps)]:  # some reads between the steps
            assert classes[i % len(classes)].at(fp_id) == values[i % len(classes)][fp_id]
    order = [(i, fp_id) for i in range(len(classes)) for fp_id in model_ids]
    rng.shuffle(order)
    for i, fp_id in order:
        assert classes[i].at(fp_id) == values[i][fp_id]
    for cls, value in zip(classes, values):
        assert list(cls.restrictions) == model_ids
        assert cls == EquivariantClass(value)


def test_weyl_volume_computes_powers_only_at_the_plan_points(monkeypatch):
    model = build_cp_product(3, 8)
    plan = cp2_plan(8, "swapped")
    plan_points = {term.fixed_point_id for term in plan.terms}
    assert len(plan_points) == 15 < len(model.fixed_points) == 45
    powered = []
    power = Factored.__pow__

    def counted(p, n):
        powered.append(p)
        return power(p, n)

    monkeypatch.setattr(Factored, "__pow__", counted)
    cls, m = volume_class(model, "weyl")
    # weyl_correct works out the first point at its call: the one power
    # that runs before the plan is read
    first = model.fixed_points[0]
    assert powered == [Factored.linear(first.moment)]
    assert evaluate_plan(model, plan, cls) / factorial(m) == Fraction(11539, 240)
    expected = {Factored.linear(model.fixed_point(fp_id).moment) for fp_id in plan_points}
    assert len(powered) == len(set(powered)) <= len(plan_points) + 1
    assert set(powered) == expected | {Factored.linear(first.moment)}


SPHERE_ROOTS = affine_product(1, ((0, (1,)), (0, (-1,)))) * Fraction(1, 2)  # over the Weyl order

CHAINS = {  # one step, and the restriction after n - 1 steps from the form
    "sum": (lambda cls, start, model: cls + start, lambda form, n: form * n),
    "product": (lambda cls, start, model: cls * start, lambda form, n: form**n),
    "scalar": (lambda cls, start, model: 2 * cls, lambda form, n: form * 2 ** (n - 1)),
    "weyl": (lambda cls, start, model: weyl_correct(model, cls),
             lambda form, n: form * SPHERE_ROOTS ** (n - 1)),
}


@pytest.mark.parametrize("name", CHAINS)
def test_long_chains_read_every_point(name):
    # 500 operations used to exceed the recursion limit at every point but
    # the first; an input MAX_LAZY_DEPTH operations deep is read out instead
    step, per_point = CHAINS[name]
    model = build_sphere_product(3)
    start = cls = class_generator(model, "prequantum")
    for _ in range(499):
        cls = step(cls, start, model)
        assert cls.restrictions.depth <= MAX_LAZY_DEPTH
    expected = EquivariantClass({fp.id: per_point(MultiPoly.linear_form(fp.moment), 500)
                                 for fp in model.fixed_points})
    plan = rank1_plan(model, 0, 1)
    assert evaluate_plan(model, plan, cls) == evaluate_plan(model, plan, expected)
    assert cls == expected and repr(cls) == repr(expected)
    assert pickle.loads(pickle.dumps(cls)) == expected


def test_rank1_plan_reads_half_the_sphere_points(monkeypatch):
    model = build_sphere_product(13)
    plan = rank1_plan(model, 0, 1)
    powered = []
    power = Factored.__pow__
    monkeypatch.setattr(Factored, "__pow__", lambda p, n: powered.append(p) or power(p, n))
    cls = class_generator(model, "prequantum") ** 12
    assert powered == []
    evaluate_plan(model, plan, cls)
    assert len(powered) == len({term.fixed_point_id for term in plan.terms}) == 7


def mismatched_ids(model):
    return EquivariantClass({fp.id + "'": MultiPoly.const(model.rank, 1)
                             for fp in model.fixed_points})


def two_variables(model):
    return EquivariantClass({fp.id: MultiPoly.variable(2, 0) for fp in model.fixed_points})


BAD_OPERATIONS = {
    "add a string": (lambda cls, model: cls + "x", lambda p: p + "x"),
    "subtract a list": (lambda cls, model: cls - [1], lambda p: p - [1]),
    "multiply by an object": (lambda cls, model: cls * object, lambda p: p * object),
    "add a polynomial in two variables": (lambda cls, model: cls + MultiPoly.variable(2, 1),
                                          lambda p: p + MultiPoly.variable(2, 1)),
    "multiply by a class in two variables": (lambda cls, model: cls * two_variables(model),
                                             lambda p: p * MultiPoly.variable(2, 0)),
    "subtract a class in two variables": (lambda cls, model: cls - two_variables(model),
                                          lambda p: p - MultiPoly.variable(2, 0)),
    "negative power": (lambda cls, model: cls ** -1, lambda p: p ** -1),
    "fractional power": (lambda cls, model: cls ** 1.5, lambda p: p ** 1.5),
    "string power": (lambda cls, model: cls ** "2", lambda p: p ** "2"),
}


@pytest.mark.parametrize("lazy", [False, True], ids=["dict class", "lazy class"])
@pytest.mark.parametrize("name", BAD_OPERATIONS)
def test_bad_operands_raise_at_the_call(name, lazy):
    model = build_sphere_product(3)
    cls = class_generator(model, "prequantum") ** 2
    if not lazy:
        cls = EquivariantClass(dict(cls.restrictions))
    operation, per_point = BAD_OPERATIONS[name]
    with pytest.raises(Exception) as expected:  # on the stored restriction, a Factored value
        per_point(cls.restrictions[model.fixed_points[0].id])
    with pytest.raises(type(expected.value)) as raised:
        operation(cls, model)
    assert str(raised.value) == str(expected.value)


def test_weyl_correction_of_a_class_in_other_variables_raises_at_the_call():
    model = build_sphere_product(3)
    with pytest.raises(DimensionMismatch, match="mixing polynomials in 2 and 1 variables"):
        weyl_correct(model, two_variables(model) + 0)


@pytest.mark.parametrize("odd, named", [(0, "'f{3}' has 1 variables, but the first restriction has 2"),
                                        (-1, "'f{1,2,3}' has 2 variables, but the first restriction has 1")],
                         ids=["first point", "last point"])
def test_a_class_mixing_variable_counts_is_refused_when_made(odd, named):
    # it used to be made, and refused only by each operator and by lambda_flag
    model = build_sphere_product(3)
    restrictions = {fp.id: MultiPoly.linear_form(fp.moment) for fp in model.fixed_points}
    restrictions[model.fixed_points[odd].id] = MultiPoly.variable(2, 0)
    with pytest.raises(DimensionMismatch) as raised:
        EquivariantClass(restrictions)
    assert str(raised.value) == f"restriction at fixed point {named}"


def test_classes_on_other_fixed_point_sets_raise_at_the_call():
    model = build_sphere_product(3)
    cls = class_generator(model, "prequantum")
    for operation in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="classes restrict to different fixed-point sets"):
            operation(cls, mismatched_ids(model))


def read_restrictions():
    """A lazy class on cp2:4 with some of its fifteen points read."""
    model = build_cp_product(3, 4)
    cls = (class_generator(model, "prequantum") - MultiPoly.linear_form((1, 0))) ** 3 * Fraction(1, 2)
    cls.at(model.fixed_points[4].id)
    cls.at(model.fixed_points[1].id)
    return model, cls


@pytest.mark.parametrize("round_trip", [
    lambda obj: pickle.loads(pickle.dumps(obj)),
    lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle protocol 0", "copy", "deepcopy"])
def test_lazy_class_survives_pickling_and_copying(round_trip):
    model, cls = read_restrictions()
    back = round_trip(cls)
    assert type(back) is EquivariantClass and type(back.restrictions) is dict
    assert list(back.restrictions) == [fp.id for fp in model.fixed_points]
    assert back == cls and cls == back
    assert repr(back) == repr(cls)
    plan = cp2_plan(4, "swapped")
    assert evaluate_plan(model, plan, back) == evaluate_plan(model, plan, cls)


def test_lazy_restrictions_read_as_a_mapping():
    model, cls = read_restrictions()
    ids = [fp.id for fp in model.fixed_points]
    restrictions = cls.restrictions
    eager = dict(restrictions)
    assert list(restrictions) == list(restrictions.keys()) == ids and len(restrictions) == 15
    assert ids[7] in restrictions and "F{}|{}|{}" not in restrictions
    assert restrictions.get("F{}|{}|{}") is None and restrictions.get("F{}|{}|{}", 5) == 5
    with pytest.raises(KeyError):
        restrictions["F{}|{}|{}"]
    assert list(restrictions.items()) == list(eager.items())
    assert all(restrictions[fp_id] is eager[fp_id] for fp_id in ids)  # read once, kept
    assert repr(restrictions) == repr(eager)
    assert restrictions == eager and eager == restrictions
    assert restrictions != {**eager, ids[0]: MultiPoly.const(2, 7)}
