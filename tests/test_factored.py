"""Classes kept as products of powers of linear forms.

A power or product of linear forms and constants is kept as a Factored
value, scale * prod form^k.  lambda_flag folds it at rank 1 and 2 from the
forms' flag coordinates, with no expansion and no substitution, and
expands it at rank 3.  These tests check every fold against the same class
built from its expanded restrictions, which takes the expanded path, as an
exact Fraction, and check that equal values have equal fields and hashes.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusloc.localization as localization
from torusloc import (
    EquivariantClass,
    MultiPoly,
    OrientedFlag,
    TorusModel,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    lambda_flag,
    rank1_plan,
    volume_class,
)
from torusloc.model import FixedPoint
from torusloc.poly import Factored, factored

from helpers import unimodular


def inverse(rows) -> list[tuple[int, ...]]:
    """The inverse of a unimodular integer matrix, by Gauss-Jordan on Fractions."""
    d = len(rows)
    mat = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(rows)]
    for k in range(d):
        pivot = next(r for r in range(k, d) if mat[r][k])
        mat[k], mat[pivot] = mat[pivot], mat[k]
        mat[k] = [a / mat[k][k] for a in mat[k]]
        for r in range(d):
            if r != k:
                mat[r] = [a - mat[r][k] * b for a, b in zip(mat[r], mat[k])]
    return [tuple(int(a) for a in row[d:]) for row in mat]


def from_flag(coords, back) -> tuple[int, ...]:
    """The vector whose flag coordinates <v, stage_i> are coords."""
    return tuple(sum(b * c for b, c in zip(row, coords)) for row in back)


@st.composite
def flag_coords(draw, rank, lead=0):
    """Flag coordinates with zeros before ``lead`` and a nonzero entry there."""
    coords = [0] * lead + [draw(st.integers(-3, 3).filter(bool))]
    return coords + [draw(st.integers(-3, 3)) for _ in range(rank - lead - 1)]


@st.composite
def factored_keys(draw):
    """A one-point model, a unimodular flag of rank 1, 2 or 3 and a class
    that is a rational scale times 1-4 powers (exponents 0-6) of linear
    forms: random forms, forms with a zero flag coordinate, repeats and
    sign flips of earlier forms, the zero form, and the prequantum form of
    a moment that may be zero.  The point has as many weights as the
    degree of the class needs, or one more or fewer, with every stage of
    the flag given a weight."""
    rank = draw(st.sampled_from((1, 2, 3)))
    stages = draw(unimodular(rank))
    back = inverse(stages)
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("random", "random", "flag", "flag", "repeat", "repeat", "moment", "zero")))
        if kind == "flag" and rank > 1:  # some flag coordinate is zero
            coords = [draw(st.integers(-3, 3)) for _ in range(rank)]
            coords[draw(st.integers(0, rank - 1))] = 0
            form = from_flag(coords, back)
        elif kind in ("random", "flag"):
            form = draw(st.tuples(*[st.integers(-3, 3)] * rank).filter(any))
        elif kind == "repeat" and forms:
            form = forms[draw(st.integers(0, len(forms) - 1))]
            sign = draw(st.sampled_from((1, -1)))
            form = None if form is None else tuple(sign * a for a in form)
        elif kind == "zero":
            form = (0,) * rank
        else:
            form = None  # the prequantum form
        if form is not None and draw(st.booleans()):
            q = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
            form = tuple(a * q for a in form)
        forms.append(form)
    exponents = [draw(st.integers(0, 6)) for _ in forms]
    scale = draw(st.fractions(-4, 4, max_denominator=5).filter(bool)) if draw(st.integers(0, 9)) else 0
    moment = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * rank))
    if not draw(st.integers(0, 4)):
        moment = (0,) * rank
    off = (0, 0, 0, 1, -1)[draw(st.integers(0, 4))]  # the degree the fold reads, or one more or fewer
    count = max(rank, sum(exponents) + rank + off)
    weights = [from_flag(draw(flag_coords(rank, j)), back) for j in range(rank)]
    while len(weights) < count:
        weights.append(from_flag(draw(flag_coords(rank, draw(st.integers(0, rank - 1)))), back))
    model = TorusModel(rank, (FixedPoint("p", moment, tuple(weights)),))
    cls = None
    for form, k in zip(forms, exponents):
        if form is None:
            base = class_generator(model, "prequantum")
        else:
            base = class_generator(model, "line", direction=list(form))
        cls = base**k if cls is None else cls * base**k
    return model, OrientedFlag(stages), cls * scale


@settings(max_examples=300, deadline=None)
@given(factored_keys())
def test_factored_fold_matches_the_expanded_class(case):
    model, flag, cls = case
    assert type(cls.restrictions["p"]) is Factored
    expanded = EquivariantClass({"p": cls.at("p")})
    assert type(expanded.restrictions["p"]) is MultiPoly
    value = lambda_flag(model, "p", flag, cls)
    assert type(value) is Fraction
    assert value == lambda_flag(model, "p", flag, expanded)
    assert cls == expanded


def test_factored_fold_is_nonzero_on_the_keys_of_its_degree():
    # a key the properties above draw: L^2 * line(1, 0) on a rank-2 point
    # with five weights, three in the first stage and two in the second
    weights = ((1, 2), (1, -1), (2, 1), (0, 1), (0, -3))
    model = TorusModel(2, (FixedPoint("p", (Fraction(1, 2), -1), weights),))
    flag = OrientedFlag(((1, 0), (0, 1)))
    cls = class_generator(model, "prequantum") ** 2 * class_generator(model, "line", direction=[1, 0])
    value = lambda_flag(model, "p", flag, cls)
    assert value != 0 and value == lambda_flag(model, "p", flag, EquivariantClass({"p": cls.at("p")}))


signs = st.sampled_from((1, -1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.tuples(*[st.integers(-4, 4)] * d), st.integers(0, 5), signs), min_size=1, max_size=4)),
    st.fractions(-3, 3, max_denominator=4), st.randoms(use_true_random=False))
def test_equal_products_have_equal_fields_and_hashes(factors, scale, rng):
    # the same product, in another order and with the signs of its forms
    # moved into the scale, is the same Factored value, with the same hash
    one = Factored.linear([0] * len(factors[0][0])) ** 0 * scale
    other = one
    for form, k, _ in factors:
        one = one * Factored.linear(form) ** k
    shuffled = list(factors)
    rng.shuffle(shuffled)
    for form, k, sign in shuffled:
        flipped = Factored.linear([sign * a for a in form])
        other = other * flipped**k * sign**k
    assert one == other and hash(one) == hash(other)
    assert one.poly == other.poly
    assert (one.factors, one.scale) == (other.factors, other.scale)
    for form, k in one.factors:
        assert k >= 1 and next(a for a in form if a) > 0
    assert list(one.factors) == sorted(one.factors)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.fractions(-4, 4, max_denominator=6)] * d)),
       st.fractions(-3, 3, max_denominator=4))
def test_linear_forms_read_alike_from_any_source(coeffs, q):
    form = Factored.linear(coeffs)
    assert factored(MultiPoly.linear_form(coeffs)) == form
    assert Factored.linear([c * q for c in coeffs]) == form * q
    assert form.poly == MultiPoly.linear_form(coeffs)
    assert (form.terms, form.numerators, form.den, form.nvars) == (
        form.poly.terms, form.poly.numerators, form.poly.den, form.poly.nvars)
    assert form.poly is form.poly  # expanded once and kept


def test_factored_values_answer_as_polynomials_only_through_their_expansion():
    form = Factored.linear((1, Fraction(1, 2)))
    assert form != form.poly and form.poly != form
    assert form + 0 == form.poly and 0 - form == -form.poly
    assert type(form * MultiPoly.variable(2, 0)) is Factored
    assert type(form * MultiPoly(2, {(1, 1): 1})) is MultiPoly
    assert form * MultiPoly.const(2, 3) == form * 3
    assert factored(MultiPoly(2, {(2, 0): 1})) == MultiPoly(2, {(2, 0): 1})


def test_rank2_and_rank1_pairings_expand_and_substitute_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a factored class was expanded or substituted")

    monkeypatch.setattr(Factored, "poly", property(refuse))
    monkeypatch.setattr(localization, "_int_substitute", refuse)
    model = build_cp_product(3, 8)
    cls, m = volume_class(model, "weyl")
    assert evaluate_plan(model, cp2_plan(8, "swapped"), cls) / factorial(m) == Fraction(11539, 240)
    model = build_sphere_product(5)
    cls, m = volume_class(model, "torus")
    # sum over k <= 2 of (-1)^k C(5, k) (5 - 2k)^4 = 230, over 4!
    assert evaluate_plan(model, rank1_plan(model, 0, 1), cls) / factorial(m) == Fraction(115, 12)


def test_a_nested_power_of_another_degree_folds_to_zero_at_once():
    model = build_cp_product(3, 4)
    cls = (class_generator(model, "prequantum") ** 200) ** 20
    (form, k), = cls.restrictions[model.fixed_points[1].id].factors
    assert k == 4000
    assert evaluate_plan(model, cp2_plan(4, "swapped"), cls) == 0


@pytest.mark.parametrize("group", ["torus", "weyl"])
def test_volume_classes_stay_factored(group):
    model = build_cp_product(3, 5)
    cls, m = volume_class(model, group)
    for fp in model.fixed_points:
        p = cls.restrictions[fp.id]
        assert type(p) is Factored
        assert sum(k for _, k in p.factors) == (m + 6 if group == "weyl" else m) or not p.scale
