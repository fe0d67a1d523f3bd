import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    EmptyStage,
    MultiPoly,
    WeightedSpace,
    fiber_integrate_power,
    parse_weighted_space,
    ring_relation,
    series_invert,
    weight_gcd,
    weighted_chern,
    weighted_segre,
)

from helpers import check_graded_prefix, ref_degree_part, ref_mul


def space(*lines, residuals=0):
    return WeightedSpace(tuple(lines), residuals)


class TestWeightedChern:
    def test_sign_weights_product(self):
        # n-k lines of weight +1 and k of weight -1 over a point
        v = space((1, ()), (1, ()), (-1, ()), (-1, ()), (-1, ()))
        assert weighted_chern(v) == MultiPoly.const(0, -1)

    def test_single_line_with_residual(self):
        v = space((1, (-1,)), residuals=1)
        assert weighted_chern(v) == MultiPoly(1, {(0,): 1, (1,): -1})

    def test_two_lines_expand(self):
        v = space((1, (1,)), (-1, (-1,)), residuals=1)
        assert weighted_chern(v) == MultiPoly(1, {(0,): -1, (1,): -2, (2,): -1})

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            space((0, ()))


class TestWeightedSegre:
    def test_cp_bundle_segre(self):
        # mixed-sign lines whose product collapses to (1 - u)^3
        v = space((1, (-1,)), (1, (-1,)), (-1, (1,)), (-1, (0,)), (1, (0,)), residuals=1)
        assert weighted_chern(v) == MultiPoly(1, {(0,): 1, (1,): -1}) ** 3
        series = weighted_segre(v, 2)
        assert series[0] == MultiPoly.const(1, 1)
        assert series[1] == MultiPoly(1, {(1,): 3})
        assert series[2] == MultiPoly(1, {(2,): 6})

    def test_point_bundle_higher_pieces_vanish(self):
        v = space((1, ()), (1, ()), (-1, ()))
        series = weighted_segre(v, 4)
        assert series[0] == MultiPoly.const(0, -1)
        assert all(series[i].is_zero() for i in range(1, 5))

    def test_defining_identity(self):
        v = space((2, (1, -1)), (-3, (0, 2)), residuals=2)
        series = weighted_segre(v, 5)
        product = (weighted_chern(v) * sum(series)).truncate(5)
        assert product == MultiPoly.const(2, 1)

    def test_negative_order_is_rejected(self):
        # used to return an empty series of order -1
        with pytest.raises(ValueError, match="order must be nonnegative"):
            weighted_segre(space((1, (-1,)), residuals=1), -1)


class TestWeightGcd:
    def test_unit_weights(self):
        assert weight_gcd(space((1, ()), (-1, ()))) == 1

    def test_common_factor(self):
        assert weight_gcd(space((2, ()), (-4, ()), (6, ()))) == 2

    def test_single_line(self):
        assert weight_gcd(space((3, ()))) == 3

    def test_empty_space(self):
        with pytest.raises(EmptyStage):
            weight_gcd(space())


class TestRingRelation:
    def test_classical_projective_line(self):
        coeffs = ring_relation(space((1, ()), (1, ())))
        assert coeffs == [MultiPoly.const(0, 1), MultiPoly.zero(0), MultiPoly.zero(0)]

    def test_weighted_point(self):
        coeffs = ring_relation(space((1, ()), (2, ())))
        assert coeffs[0] == MultiPoly.const(0, 2)
        assert coeffs[1].is_zero() and coeffs[2].is_zero()

    def test_equivariant_line(self):
        coeffs = ring_relation(space((1, (2,)), residuals=1))
        assert coeffs == [MultiPoly.const(1, 1), MultiPoly(1, {(1,): 2})]

    def test_weight_one_degeneration(self):
        v = space((1, (0,)), (1, (0,)), (1, (0,)), residuals=1)
        coeffs = ring_relation(v)
        assert coeffs[0] == MultiPoly.const(1, 1)
        assert all(c.is_zero() for c in coeffs[1:])


class TestFiberIntegration:
    def test_classical_top_power(self):
        for r in (1, 2, 3, 4):
            v = space(*([(1, ())] * r))
            assert fiber_integrate_power(v, r - 1) == MultiPoly.const(0, 1)

    def test_weighted_top_power(self):
        v = space((2, ()), (2, ()), (2, ()))
        assert fiber_integrate_power(v, 2) == MultiPoly.const(0, Fraction(1, 4))

    def test_below_threshold(self):
        v = space((1, (1,)), (2, (0,)), (3, (-1,)), residuals=1)
        assert fiber_integrate_power(v, 1).is_zero()
        assert fiber_integrate_power(v, 0).is_zero()


class TestParseWeightedSpace:
    def test_basic(self):
        v = parse_weighted_space("1:-1;2:0")
        assert v.lines == ((1, (-1,)), (2, (0,)))
        assert v.residual_count == 1

    def test_no_residuals(self):
        v = parse_weighted_space("1;-1;2")
        assert v.lines == ((1, ()), (-1, ()), (2, ()))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_weighted_space("1:1;2")


class TestStrictWeightedSpace:
    """Circle weights and residual entries must be ints; nothing is truncated."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", True, Fraction(3)])
    def test_non_integer_circle_weight(self, bad):
        with pytest.raises(ValueError, match="circle weight must be an integer"):
            WeightedSpace(((bad, (1,)),), 1)

    @pytest.mark.parametrize("bad", [2.7, 0.0, "1", False, Fraction(1)])
    def test_non_integer_residual_entry(self, bad):
        with pytest.raises(ValueError, match="integer entries"):
            WeightedSpace(((1, (0, bad)),), 2)

    def test_float_line_is_not_truncated(self):
        with pytest.raises(ValueError):
            WeightedSpace(((1.5, (2.7,)),), 1)

    def test_integer_lines_are_kept(self):
        assert WeightedSpace(((2, [1, -1]), (-1, (0, 3))), 2).lines == ((2, (1, -1)), (-1, (0, 3)))


# ----------------------------------------------------------------------
# properties

weights = st.integers(-4, 4).filter(bool)


def spaces(residuals):
    line = st.tuples(weights, st.tuples(*([st.integers(-3, 3)] * residuals)))
    return st.lists(line, min_size=1, max_size=5).map(
        lambda lines: WeightedSpace(tuple(lines), residuals)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(spaces), st.integers(0, 2).flatmap(spaces))
def test_chern_multiplicative_under_direct_sum(v, w):
    residuals = max(v.residual_count, w.residual_count)
    pad = lambda s: WeightedSpace(
        tuple((wt, res + (0,) * (residuals - len(res))) for wt, res in s.lines), residuals
    )
    v, w = pad(v), pad(w)
    joined = WeightedSpace(v.lines + w.lines, residuals)
    assert weighted_chern(joined) == weighted_chern(v) * weighted_chern(w)


def random_space(rng, max_lines=5, max_residuals=3):
    residuals = rng.randrange(max_residuals + 1)
    lines = []
    for _ in range(rng.randrange(1, max_lines + 1)):
        weight = rng.choice([w for w in range(-4, 5) if w])
        lines.append((weight, tuple(rng.randrange(-3, 4) for _ in range(residuals))))
    return WeightedSpace(tuple(lines), residuals)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(spaces))
def test_ring_relation_is_the_graded_chern_class(v):
    chern = weighted_chern(v)
    relation = ring_relation(v)
    assert relation == [ref_degree_part(chern, i) for i in range(v.rank + 1)]
    assert all(type(c) is int for piece in relation for c in piece.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2).flatmap(spaces), st.integers(0, 5), st.integers(1, 4))
def test_weighted_segre_pieces_are_graded_prefixes(v, k, extra):
    check_graded_prefix(lambda order: weighted_segre(v, order), k, k + extra)


def test_segre_chern_identity_on_many_random_spaces():
    rng = random.Random(20240817)
    for _ in range(100):
        v = random_space(rng)
        order = rng.randrange(7)
        series = weighted_segre(v, order)
        assert (weighted_chern(v) * sum(series)).truncate(order) == MultiPoly.const(
            v.residual_count, 1
        )


def test_top_fiber_integral_is_gcd_over_leading_chern():
    rng = random.Random(911)
    for _ in range(100):
        v = random_space(rng)
        r = v.rank
        c0 = weighted_chern(v).constant_term()
        expected = MultiPoly.const(v.residual_count, Fraction(weight_gcd(v), 1) / c0)
        assert fiber_integrate_power(v, r - 1) == expected


# ----------------------------------------------------------------------
# integer Chern kernel


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(spaces))
def test_chern_matches_fraction_reference(v):
    n = v.residual_count
    expected = {(0,) * n: Fraction(1)}
    for weight, residual in v.lines:
        factor = {(0,) * n: Fraction(weight)}
        for i, r in enumerate(residual):
            if r:
                factor[tuple(int(k == i) for k in range(n))] = Fraction(r)
        expected = ref_mul(expected, factor)
    assert weighted_chern(v).terms == expected


def test_chern_coefficients_are_int():
    rng = random.Random(5)
    for _ in range(50):
        chern = weighted_chern(random_space(rng))
        assert all(type(c) is int for c in chern.terms.values())


def test_gcd_over_constant_term_is_a_fraction():
    v = space((2, ()), (-4, ()), (6, ()))
    ratio = weight_gcd(v) / weighted_chern(v).constant_term()
    assert type(ratio) is Fraction and ratio == Fraction(-1, 24)


# ----------------------------------------------------------------------
# geometric-series Segre kernel


def test_segre_numerators_with_repeated_and_negative_weights():
    from torusloc.weighted import _segre_numerators

    # 1/((-1 + u)^2 (2 - u)) = (1 + 2u + 3u^2)(1/2 + u/4 + u^2/8) + ...
    #                        = 1/2 + 5u/4 + 17u^2/8, over c0^3 = 2^3
    pieces, den = _segre_numerators(((-1, (1,)), (2, (-1,)), (-1, (1,))), 1, 2)
    assert den == 8
    assert [dict(piece) for piece in pieces] == [{(0,): 4}, {(1,): 10}, {(2,): 17}]
    # 1/((-2 + u1)^2 (1 - u2)) = (1/4 + u1/4 + 3u1^2/16)(1 + u2 + u2^2) + ...
    pieces, den = _segre_numerators(((-2, (1, 0)), (1, (0, -1)), (-2, (1, 0))), 2, 2)
    assert den == 64
    assert [dict(piece) for piece in pieces] == [
        {(0, 0): 16},
        {(1, 0): 16, (0, 1): 16},
        {(2, 0): 12, (1, 1): 16, (0, 2): 16},
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(spaces), st.integers(0, 6))
def test_weighted_segre_is_the_inverted_chern_class(v, order):
    assert weighted_segre(v, order) == series_invert(weighted_chern(v), order)
