"""The integer stage fold against the per-power MultiPoly reference.

``stage_map``, ``lambda_flag`` and ``fiber_integrate_power`` all run the
integer kernel ``weighted._stage_fold`` over the integer Segre numerators.
The references in ``helpers`` fold one product per stage-variable power, as
the engine did before the kernel, against a Segre class formed from the
full Chern product and inverted in Fractions, so they share no Segre code
with the engine.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    DimensionMismatch,
    EmptyStage,
    EquivariantClass,
    MultiPoly,
    NotUnimodular,
    OrientedFlag,
    Plan,
    PlanTerm,
    TorusModel,
    WeightedSpace,
    evaluate_plan,
    fiber_integrate_power,
    lambda_flag,
    load_plan,
    stage_map,
    weight_gcd,
    weighted_segre,
)
from torusloc.model import FixedPoint

from helpers import (
    exact_shape,
    mixed_coeffs,
    mixed_polys,
    ref_lambda_flag,
    ref_segre,
    ref_stage_map,
    unimodular,
)


@st.composite
def spaces(draw):
    """A nonempty WeightedSpace: 0-2 residuals, mixed-sign circle weights."""
    residual_count = draw(st.integers(0, 2))
    line = st.tuples(
        st.integers(-4, 4).filter(bool),
        st.tuples(*([st.integers(-3, 3)] * residual_count)),
    )
    lines = draw(st.lists(line, min_size=1, max_size=5))
    return WeightedSpace(tuple(lines), residual_count)


@st.composite
def space_and_poly(draw):
    space = draw(spaces())
    return space, draw(mixed_polys(space.residual_count + 1, max_exp=5, max_terms=6))


def inverse(rows):
    """Inverse of an integer matrix of determinant +-1, by Gauss-Jordan in Fractions."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(d):
            if r != c:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [[int(x) for x in row[d:]] for row in aug]


@st.composite
def flag_terms(draw):
    """A one-point model of rank 1 to 3, a flag, and a class restricting to a
    random polynomial of mixed degree whose coefficients may have
    denominators.  Half of the points get random weights, which often leave
    a stage empty; the other half get weights drawn in flag coordinates
    with every stage hit, mapped back through the inverse flag."""
    d = draw(st.integers(1, 3))
    stages = tuple(draw(unimodular(d)))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        weights = draw(st.lists(st.tuples(*([small] * d)).filter(any), min_size=d, max_size=6))
    else:
        hit = list(range(d)) + draw(st.lists(st.integers(0, d - 1), max_size=6 - d))
        back = inverse(stages)
        weights = []
        for j in hit:
            tail = draw(st.lists(small, min_size=d - j - 1, max_size=d - j - 1))
            coords = [0] * j + [draw(small.filter(bool))] + tail
            weights.append(tuple(sum(g * c for g, c in zip(row, coords)) for row in back))
    model = TorusModel(
        rank=d,
        fixed_points=(FixedPoint("p", (Fraction(0),) * d, tuple(weights)),),
        global_stabilizer_order=draw(st.integers(1, 3)),
    )
    # terms of the one degree a full fold keeps, len(weights) - d, so that
    # admissible pairs mostly give nonzero values
    top = {}
    for _ in range(draw(st.integers(0, 3))):
        exp, rest = [], len(weights) - d
        for _ in range(d - 1):
            exp.append(draw(st.integers(0, rest)))
            rest -= exp[-1]
        top[tuple(exp) + (rest,)] = draw(mixed_coeffs)
    restriction = draw(mixed_polys(d, max_exp=6, max_terms=8)) + MultiPoly(d, top)
    return model, OrientedFlag(stages), EquivariantClass({"p": restriction})


@settings(max_examples=100, deadline=None)
@given(space_and_poly())
def test_stage_map_matches_per_power_reference(case):
    space, p = case
    image = stage_map(p, space)
    assert image == ref_stage_map(p, space)
    assert image.nvars == space.residual_count
    assert exact_shape(image)


@settings(max_examples=100, deadline=None)
@given(flag_terms())
def test_lambda_flag_matches_reference_fold(case):
    model, flag, cls = case
    value = lambda_flag(model, "p", flag, cls)
    assert type(value) is Fraction
    assert value == ref_lambda_flag(model, "p", flag, cls)


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(0, 5), st.randoms(use_true_random=False))
def test_weighted_segre_invariant_under_line_order(space, order, rnd):
    lines = list(space.lines)
    rnd.shuffle(lines)
    permuted = WeightedSpace(tuple(lines), space.residual_count)
    assert weighted_segre(permuted, order) == weighted_segre(space, order)


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(0, 6))
def test_weighted_segre_matches_fraction_reference(space, order):
    # orders below the line count truncate the Chern product before inverting
    assert sum(weighted_segre(space, order)).terms == ref_segre(space, order)


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(0, 8))
def test_fiber_integral_is_the_gcd_scaled_segre_piece(space, i):
    value = fiber_integrate_power(space, i)
    index = i - space.rank + 1
    segre = ref_segre(space, index) if index >= 0 else {}
    piece = {e: c * weight_gcd(space) for e, c in segre.items() if sum(e) == index}
    assert value == MultiPoly(space.residual_count, piece)
    assert value.nvars == space.residual_count
    assert exact_shape(value)


def test_segre_pieces_are_integer_numerators_over_one_denominator():
    from torusloc.weighted import _segre_numerators

    # 1/((2 + u)(-1 + u)) through order 2: -1/2 - u/4 - 3u^2/8, over (2 * -1)^3
    pieces, den = _segre_numerators(((-1, (1,)), (2, (1,))), 1, 2)
    assert den == -8
    assert pieces == ((((0,), 4),), (((1,), 2),), (((2,), 3),))
    assert all(type(v) is int for piece in pieces for _, v in piece)


def test_stage_fold_drops_cancelled_terms():
    from torusloc.weighted import _stage_fold

    # 1/(1 + u) = 1 - u + ..., so u * s_0 + x * s_1 = u - u = 0
    assert _stage_fold({(0, 1): 1, (1, 0): 1}, ((1, (1,)),), 1) == ({}, 1)


def test_load_plan_shares_equal_flags_and_checks_each_evaluation():
    good, other = [[0, 1], [-1, 0]], [[1, 0], [0, 1]]
    entries = [
        {"coefficient": 1, "fixed_point": f"p{i}", "flag": flag}
        for i, flag in enumerate([good, other, good, other])
    ]
    plan = load_plan(io.StringIO(json.dumps(entries)))
    flags = [term.flag for term in plan.terms]
    assert flags[0] is flags[2] and flags[1] is flags[3] and flags[0] != flags[1]
    weights = ((1, 0), (0, 1), (1, 1))
    model = TorusModel(
        rank=2,
        fixed_points=tuple(FixedPoint(f"p{i}", (i, 1), weights) for i in range(4)),
    )
    cls = EquivariantClass({fp.id: MultiPoly(2, {(1, 0): 1}) for fp in model.fixed_points})
    assert lambda_flag(model, "p0", flags[0], cls) == lambda_flag(model, "p2", flags[2], cls)
    # a flag that is not a basis fails at load, before any evaluation
    bad = entries + [{"coefficient": 1, "fixed_point": "p0", "flag": [[2, 0], [0, 1]]}]
    with pytest.raises(NotUnimodular):
        load_plan(io.StringIO(json.dumps(bad)))
    # a shared flag of the wrong rank for the model raises on every evaluation
    flat = TorusModel(rank=1, fixed_points=(FixedPoint("p0", (0,), ((1,), (-1,))),))
    flat_cls = EquivariantClass({"p0": MultiPoly(1, {(1,): 1})})
    for _ in range(3):
        with pytest.raises(DimensionMismatch, match="flag has rank 2"):
            lambda_flag(flat, "p0", flags[1], flat_cls)
    cancelling = Plan((PlanTerm(1, "p0", flags[1]), PlanTerm(-1, "p0", flags[3])))
    with pytest.raises(DimensionMismatch):
        evaluate_plan(flat, cancelling, flat_cls)


def test_stage_map_keeps_empty_stage_and_arity_checks():
    with pytest.raises(EmptyStage):
        stage_map(MultiPoly(1, {(0,): 1}), WeightedSpace((), 0))
    with pytest.raises(ValueError):
        stage_map(MultiPoly(1, {(0,): 1}), WeightedSpace(((1, (0,)),), 1))

