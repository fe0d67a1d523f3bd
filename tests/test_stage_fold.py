"""The integer stage fold against the per-power MultiPoly reference.

``stage_map``, ``lambda_flag`` and ``fiber_integrate_power`` all run the
integer kernel ``weighted._stage_fold`` over the integer Segre numerators.
The references in ``helpers`` fold one product per stage-variable power, as
the engine did before the kernel, against a Segre class formed from the
full Chern product and inverted in Fractions, so they share no Segre code
with the engine.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    EmptyStage,
    EquivariantClass,
    MultiPoly,
    OrientedFlag,
    TorusModel,
    WeightedSpace,
    fiber_integrate_power,
    lambda_flag,
    stage_map,
    weight_gcd,
    weighted_segre,
)
from torusloc.model import FixedPoint

from helpers import (
    exact_shape,
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


@st.composite
def flag_terms(draw):
    """A one-point model of rank 1 or 2, a flag, and a class restricting to a
    random polynomial of mixed degree."""
    d = draw(st.integers(1, 2))
    weight = st.tuples(*([st.integers(-3, 3)] * d)).filter(any)
    weights = tuple(draw(st.lists(weight, min_size=d, max_size=6)))
    model = TorusModel(
        rank=d,
        fixed_points=(FixedPoint("p", (Fraction(0),) * d, weights),),
        global_stabilizer_order=draw(st.integers(1, 3)),
    )
    cls = EquivariantClass({"p": draw(mixed_polys(d, max_exp=6, max_terms=8))})
    return model, OrientedFlag(tuple(draw(unimodular(d)))), cls


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
    assert weighted_segre(space, order).body.terms == ref_segre(space, order)


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
    assert _stage_fold({(0, 1): 1, (1, 0): 1}, WeightedSpace(((1, (1,)),), 1)) == ({}, 1)


def test_stage_map_keeps_empty_stage_and_arity_checks():
    with pytest.raises(EmptyStage):
        stage_map(MultiPoly(1, {(0,): 1}), WeightedSpace((), 0))
    with pytest.raises(ValueError):
        stage_map(MultiPoly(1, {(0,): 1}), WeightedSpace(((1, (0,)),), 1))

