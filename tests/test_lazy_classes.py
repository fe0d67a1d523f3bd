"""Class arithmetic, worked out at every point at the call.

The generators and the class arithmetic return classes that hold their
restrictions in a plain dict.  These tests check that such a class reads
the same as the per-point arithmetic at every point, whatever the order
of reads, that each power runs at the call once per distinct moment, that
binary operations pair their operands by fixed point id, that each
operator raises at its own call whichever point fails, and that pickling
and copying keep every restriction.
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
from torusloc.closedforms import sphere_torus_pairing
from torusloc.model import FixedPoint
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


POWERED = {  # the model, its plan, the class and its pairing; the plans read 15 of 45 and 7 of 14 points
    "cp2:8 weyl volume": (lambda: build_cp_product(3, 8), lambda model: cp2_plan(8, "swapped"),
                          lambda model: volume_class(model, "weyl")[0], Fraction(11539, 240) * factorial(8)),
    "spheres:13 L^12": (lambda: build_sphere_product(13), lambda model: rank1_plan(model, 0, 1),
                        lambda model: class_generator(model, "prequantum") ** 12, sphere_torus_pairing(13)),
}


@pytest.mark.parametrize("name", POWERED)
def test_each_power_runs_at_the_call_once_per_distinct_moment(monkeypatch, name):
    build, make_plan, make_class, pairing = POWERED[name]
    model = build()
    plan = make_plan(model)
    powered = []
    power = Factored.__pow__
    monkeypatch.setattr(Factored, "__pow__", lambda p, n: powered.append(p) or power(p, n))
    cls = make_class(model)
    moments = {fp.moment for fp in model.fixed_points}
    assert len(powered) == len(set(powered)) == len(moments)
    assert set(powered) == {Factored.linear(moment) for moment in moments}
    assert len({term.fixed_point_id for term in plan.terms}) < len(model.fixed_points)
    assert evaluate_plan(model, plan, cls) == pairing
    assert len(powered) == len(moments)  # the pairing runs no power


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
    # each of the 500 operations works out every point at its call
    step, per_point = CHAINS[name]
    model = build_sphere_product(3)
    start = cls = class_generator(model, "prequantum")
    for _ in range(499):
        cls = step(cls, start, model)
    expected = EquivariantClass({fp.id: per_point(MultiPoly.linear_form(fp.moment), 500)
                                 for fp in model.fixed_points})
    plan = rank1_plan(model, 0, 1)
    assert evaluate_plan(model, plan, cls) == evaluate_plan(model, plan, expected)
    assert cls == expected and repr(cls) == repr(expected)
    assert pickle.loads(pickle.dumps(cls)) == expected


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


@pytest.mark.parametrize("name", BAD_OPERATIONS)
def test_bad_operands_raise_at_the_call(name):
    model = build_sphere_product(3)
    cls = class_generator(model, "prequantum") ** 2
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
    """A class on cp2:4 made by a few operations, with two of its fifteen
    points read."""
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
def test_class_survives_pickling_and_copying(round_trip):
    model, cls = read_restrictions()
    back = round_trip(cls)
    assert type(back) is EquivariantClass and type(back.restrictions) is dict
    assert list(back.restrictions) == [fp.id for fp in model.fixed_points]
    assert back == cls and cls == back
    assert repr(back) == repr(cls)
    plan = cp2_plan(4, "swapped")
    assert evaluate_plan(model, plan, back) == evaluate_plan(model, plan, cls)


RESULTS = {
    "+": lambda L, model: L + L,
    "+ scalar": lambda L, model: L + 1,
    "-": lambda L, model: L - MultiPoly.linear_form((1, 0)),
    "*": lambda L, model: L * L,
    "* scalar": lambda L, model: Fraction(1, 2) * L,
    "**": lambda L, model: L ** 3,
    "weyl_correct": lambda L, model: weyl_correct(model, L),
}


@pytest.mark.parametrize("name", RESULTS)
def test_class_operations_hold_their_restrictions_in_a_dict(name):
    model = build_cp_product(3, 4)
    cls = RESULTS[name](class_generator(model, "prequantum"), model)
    assert type(cls.restrictions) is dict
    assert list(cls.restrictions) == [fp.id for fp in model.fixed_points]


def test_a_failure_at_a_point_no_plan_reads_raises_at_the_call():
    model = build_sphere_product(3)
    L = class_generator(model, "prequantum")
    last = L.restrictions["f{1,2,3}"]
    assert "f{1,2,3}" not in {term.fixed_point_id for term in rank1_plan(model, 0, 1).terms}
    with pytest.raises(TypeError) as raised:
        L.pointwise(lambda p: 5 if p is last else p)
    assert str(raised.value) == "op result at fixed point 'f{1,2,3}' must be a MultiPoly, got 5"


@pytest.mark.parametrize("build", [lambda: build_sphere_product(3), lambda: build_cp_product(3, 4)],
                         ids=["spheres:3", "cp2:4"])
def test_binary_operations_pair_operands_by_fixed_point_id(build):
    model = build()
    L = class_generator(model, "prequantum")
    R = EquivariantClass(dict(reversed(L.restrictions.items())))
    assert list(R.restrictions) == list(reversed(L.restrictions))
    for difference in (L - R, R - L):
        assert all(difference.at(fp.id).is_zero() for fp in model.fixed_points)
    assert R * L == L**2 and L * R == L**2
    assert R + L == 2 * L
