"""Evaluation sharing: the invariances it relies on and guards on its counts.

evaluate_plan groups plan terms by (restriction, weight multiset, flag)
and evaluates each group once; class arithmetic runs once per distinct
restriction.  The properties below check, over small random rank-1 and
rank-2 models, that the grouped value equals the plain per-term sum and
does not change under reordering weights or terms or splitting
coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusloc.localization as localization
from torusloc import (
    EquivariantClass,
    MultiPoly,
    OrientedFlag,
    Plan,
    PlanTerm,
    TorusModel,
    build_cp_product,
    build_sphere_product,
    class_generator,
    evaluate_plan,
    lambda_flag,
)
from torusloc.model import FixedPoint
from torusloc.poly import Factored

from helpers import cp2_volume_class, point_cp2_plan, point_cp_product

FLAGS = {
    1: (((1,),), ((-1,),)),
    2: (
        ((0, 1), (-1, 0)),
        ((-1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((0, -1), (1, 0)),
        ((1, 1), (0, 1)),
    ),
}


@st.composite
def cases(draw, rank):
    """A small model whose points repeat a few (moment, weight multiset)
    types in shuffled weight order, with a global stabilizer of order 1 to
    3, a class and a plan of up to 20 terms over it, some of whose
    coefficients may cancel."""
    n_weights = draw(st.integers(rank, rank + 2))
    weight = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    moment = st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * rank)
    types = draw(st.lists(st.tuples(moment, st.lists(weight, min_size=n_weights,
                                                     max_size=n_weights)),
                          min_size=1, max_size=3))
    order = st.permutations(range(n_weights))
    points = draw(st.lists(st.tuples(st.sampled_from(types), order), min_size=1, max_size=6))
    fixed_points = [
        FixedPoint(f"p{i}", m, tuple(ws[j] for j in perm))
        for i, ((m, ws), perm) in enumerate(points)
    ]
    model = TorusModel(rank=rank, fixed_points=tuple(fixed_points),
                       global_stabilizer_order=draw(st.sampled_from((1, 2, 3))))
    direction = draw(st.tuples(*[st.integers(-2, 2)] * rank))
    cls = (class_generator(model, "prequantum")
           + class_generator(model, "line", direction=direction)) ** (n_weights - rank)
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(fixed_points),
                  st.sampled_from(FLAGS[rank])),
        min_size=1, max_size=20,
    ))
    # negated copies of some terms, so that groups, or the whole plan, cancel to 0
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=20 - len(terms)))
    terms += [(-c, fp, flag) for c, fp, flag in cancelled]
    plan = Plan(tuple(PlanTerm(c, fp.id, OrientedFlag(flag)) for c, fp, flag in terms))
    return model, cls, plan


def per_term_sum(model, plan, cls):
    return sum(
        (t.coefficient * lambda_flag(model, t.fixed_point_id, t.flag, cls) for t in plan.terms),
        Fraction(0),
    )


any_rank_case = st.sampled_from((1, 2)).flatmap(cases)


@settings(max_examples=50, deadline=None)
@given(any_rank_case)
def test_grouped_value_equals_per_term_sum(case):
    model, cls, plan = case
    assert evaluate_plan(model, plan, cls) == per_term_sum(model, plan, cls)


@settings(max_examples=40, deadline=None)
@given(any_rank_case, st.randoms(use_true_random=False))
def test_permuting_each_points_weights(case, rng):
    model, cls, plan = case
    permuted = []
    for fp in model.fixed_points:
        weights = list(fp.weights)
        rng.shuffle(weights)
        permuted.append(FixedPoint(fp.id, fp.moment, tuple(weights)))
    other = TorusModel(rank=model.rank, fixed_points=tuple(permuted),
                       global_stabilizer_order=model.global_stabilizer_order)
    assert evaluate_plan(other, plan, cls) == evaluate_plan(model, plan, cls)


@settings(max_examples=40, deadline=None)
@given(any_rank_case, st.randoms(use_true_random=False))
def test_shuffling_plan_terms(case, rng):
    model, cls, plan = case
    terms = list(plan.terms)
    rng.shuffle(terms)
    assert evaluate_plan(model, Plan(tuple(terms)), cls) == evaluate_plan(model, plan, cls)


@settings(max_examples=40, deadline=None)
@given(any_rank_case)
def test_splitting_terms_into_unit_terms(case):
    model, cls, plan = case
    unit_terms = []
    for t in plan.terms:
        sign = 1 if t.coefficient > 0 else -1
        unit_terms += [PlanTerm(sign, t.fixed_point_id, t.flag)] * abs(t.coefficient)
    assert evaluate_plan(model, Plan(tuple(unit_terms)), cls) == evaluate_plan(model, plan, cls)


def test_cp2_volume_evaluates_each_distinct_key_once(monkeypatch):
    model = point_cp_product(3, 5)
    cls = cp2_volume_class(model)
    plan = point_cp2_plan(5, "swapped")
    keys = {
        (
            frozenset(cls.at(t.fixed_point_id).terms.items()),
            tuple(sorted(model.fixed_point(t.fixed_point_id).weights)),
            t.flag.stages,
        )
        for t in plan.terms
    }
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_flag(*args)

    monkeypatch.setattr(localization, "lambda_flag", counted)
    assert evaluate_plan(model, plan, cls) == Fraction(5, 2)
    assert len(calls) == len(keys) < len(plan.terms)


def test_class_power_runs_once_per_distinct_moment(monkeypatch):
    model = point_cp_product(3, 5)
    moments = {fp.moment for fp in model.fixed_points}
    powers = []
    power = Factored.__pow__

    def counted(p, n):
        powers.append(p)
        return power(p, n)

    monkeypatch.setattr(Factored, "__pow__", counted)
    cls = class_generator(model, "prequantum") ** 2
    # The powers run at the call, once per distinct moment.
    assert len(powers) == len(moments) < len(model.fixed_points)
    restrictions = list(cls.restrictions.values())
    # Points with equal moments share one restriction object.
    assert len({id(p) for p in restrictions}) == len(moments)


@pytest.mark.parametrize("build, distinct", [
    (lambda: build_cp_product(3, 5), 21),  # one moment per group-size vector
    (lambda: build_sphere_product(6), 7),
])
def test_prequantum_class_builds_one_form_per_distinct_moment(monkeypatch, build, distinct):
    model = build()
    forms = []
    linear = Factored.linear

    def counted(moment):
        forms.append(moment)
        return linear(moment)

    monkeypatch.setattr(Factored, "linear", counted)
    cls = class_generator(model, "prequantum")
    assert len(forms) == len(set(forms)) == distinct
    assert all(cls.at(fp.id) == MultiPoly.linear_form(fp.moment) for fp in model.fixed_points)


def test_int_and_fraction_restrictions_share_one_key(monkeypatch):
    # Equal in value, given once with int and once with Fraction
    # coefficients: both are stored alike, so they group together.
    weights = ((1,), (2,), (-1,))
    model = TorusModel(
        rank=1,
        fixed_points=(FixedPoint("a", (0,), weights), FixedPoint("b", (0,), weights[::-1])),
    )
    cls = EquivariantClass({
        "a": MultiPoly(1, {(2,): 2, (0,): -1}),
        "b": MultiPoly(1, {(2,): Fraction(2), (0,): Fraction(-1)}),
    })
    flag = OrientedFlag(((1,),))
    plan = Plan((PlanTerm(1, "a", flag), PlanTerm(3, "b", flag)))
    expected = 4 * lambda_flag(model, "a", flag, cls)
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_flag(*args)

    monkeypatch.setattr(localization, "lambda_flag", counted)
    assert evaluate_plan(model, plan, cls) == expected != 0
    assert len(calls) == 1
