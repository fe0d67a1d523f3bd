"""The integer stage folds against the per-power MultiPoly reference.

``stage_map`` and ``fiber_integrate_power`` run the integer kernel
``weighted._stage_fold`` over the inverted Chern product; ``lambda_flag``
runs it on every stage but the last two, and ``weighted._finish_fold`` on
those.  The references in ``helpers`` fold one product per stage-variable
power, as the engine did before the kernels, against a Segre class formed
from the full Chern product and inverted in Fractions, so they share no
Segre code with the engine.
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
    class_generator,
    evaluate_plan,
    fiber_integrate_power,
    lambda_flag,
    linear_substitute,
    load_plan,
    stage_map,
    weight_gcd,
    weighted_segre,
)
from torusloc import weighted
from torusloc.model import FixedPoint
from torusloc.poly import series_invert

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
def stage_weight(draw, j, back):
    """A weight that the flag with inverse ``back`` places in stage j: flag
    coordinates in [-3, 3], zero before j and nonzero at j, mapped back."""
    small = st.integers(-3, 3)
    d = len(back)
    tail = draw(st.lists(small, min_size=d - j - 1, max_size=d - j - 1))
    coords = [0] * j + [draw(small.filter(bool))] + tail
    return tuple(sum(g * c for g, c in zip(row, coords)) for row in back)


@st.composite
def flag_terms(draw, min_rank=1):
    """A one-point model of rank min_rank to 3, a flag, and a class restricting to a
    random polynomial of mixed degree whose coefficients may have
    denominators.  Half of the points get random weights, which often leave
    a stage empty; the other half get weights drawn in flag coordinates
    with every stage hit, mapped back through the inverse flag."""
    d = draw(st.integers(min_rank, 3))
    stages = tuple(draw(unimodular(d)))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        weights = draw(st.lists(st.tuples(*([small] * d)).filter(any), min_size=d, max_size=6))
    else:
        hit = list(range(d)) + draw(st.lists(st.integers(0, d - 1), max_size=6 - d))
        back = inverse(stages)
        weights = [draw(stage_weight(j, back)) for j in hit]
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


@st.composite
def repeated_line_terms(draw):
    """A one-point model of rank 2 or 3 whose 8-16 weights are copies of 2-4
    line types, as on cp2:n, so the last two stages reach high Segre
    orders; a flag; and two classes of the quotient degree N - d, N the
    weight count, plus terms of other degrees."""
    d = draw(st.integers(2, 3))
    stages = tuple(draw(unimodular(d)))
    back = inverse(stages)
    # every stage gets a type, so every pair is admissible
    hit = list(range(d)) + draw(st.lists(st.integers(0, d - 1), max_size=4 - d))
    types = [draw(stage_weight(j, back)) for j in hit]
    copies = [1] * len(types)
    for _ in range(draw(st.integers(8, 16)) - len(types)):
        copies[draw(st.integers(0, len(types) - 1))] += 1
    weights = tuple(w for w, m in zip(types, copies) for _ in range(m))
    model = TorusModel(
        rank=d,
        fixed_points=(FixedPoint("p", (Fraction(0),) * d, weights),),
        global_stabilizer_order=draw(st.integers(1, 3)),
    )
    degree = len(weights) - d
    classes = []
    for _ in range(2):
        top = {}
        for _ in range(draw(st.integers(1, 3))):
            exp, rest = [], degree
            for _ in range(d - 1):
                exp.append(draw(st.integers(0, rest)))
                rest -= exp[-1]
            top[tuple(exp) + (rest,)] = draw(mixed_coeffs)
        off = draw(mixed_polys(d, max_exp=degree + 2, max_terms=4))
        classes.append(MultiPoly(d, top) + off)
    return model, OrientedFlag(stages), classes


@settings(max_examples=60, deadline=None)
@given(repeated_line_terms())
def test_lambda_flag_on_repeated_line_types_matches_reference_fold(case):
    model, flag, (p, q) = case
    inversions = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weighted, "series_invert",
                      lambda *args: inversions.append(args) or series_invert(*args))
        value = lambda_flag(model, "p", flag, EquivariantClass({"p": p}))
    if model.rank == 2:  # both stages fold in _finish_fold, with no Segre inversion
        assert inversions == []
    assert type(value) is Fraction
    assert value == ref_lambda_flag(model, "p", flag, EquivariantClass({"p": p}))
    # q * lambda(p) - p * lambda(q) pairs to 0 exactly, though its terms do not vanish
    other = ref_lambda_flag(model, "p", flag, EquivariantClass({"p": q}))
    cancelling = EquivariantClass({"p": q * value - p * other})
    assert lambda_flag(model, "p", flag, cancelling) == 0


def apply(matrix, vector):
    return tuple(sum(a * x for a, x in zip(row, vector)) for row in matrix)


@settings(max_examples=100, deadline=None)
@given(flag_terms(min_rank=2), st.data())
def test_lambda_flag_is_invariant_under_a_change_of_lattice_basis(case, data):
    # A lattice basis change A acts on t by A and on t* by A^(-T): weights
    # and moments map by A^(-T), flag stages by A, and a class p(u) becomes
    # p(A^(-1) u), which is linear_substitute by the rows of A^(-T).  Every
    # pairing <weight, stage> is kept, so every stage and line is too.
    model, flag, cls = case
    d, point = model.rank, model.fixed_points[0]
    A = data.draw(unimodular(d))
    dual = [list(column) for column in zip(*inverse(A))]  # A^(-T)
    moment = tuple(data.draw(st.lists(mixed_coeffs, min_size=d, max_size=d)))
    source = TorusModel(d, (FixedPoint("p", moment, point.weights),),
                        global_stabilizer_order=model.global_stabilizer_order)
    L = class_generator(source, "prequantum")
    cls = cls + L ** (len(point.weights) - d)
    image = TorusModel(d, (FixedPoint("p", apply(dual, moment), [apply(dual, w) for w in point.weights]),),
                       global_stabilizer_order=model.global_stabilizer_order)
    # the prequantum class of the image is the image of the prequantum class
    assert class_generator(image, "prequantum").at("p") == linear_substitute(L.at("p"), dual)
    image_cls = EquivariantClass({"p": linear_substitute(cls.at("p"), dual)})
    image_flag = OrientedFlag(tuple(apply(A, stage) for stage in flag.stages))
    assert lambda_flag(image, "p", image_flag, image_cls) == lambda_flag(source, "p", flag, cls)


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


def test_segre_pieces_by_hand_and_over_one_denominator_in_the_fold():
    from torusloc.weighted import _stage_fold

    # 1/((2 + u)(-1 + u)) through order 2: -1/2 - u/4 - 3u^2/8
    lines = ((-1, (1,)), (2, (1,)))
    assert weighted_segre(WeightedSpace(lines, 1), 2) == [
        MultiPoly(1, {(0,): Fraction(-1, 2)}),
        MultiPoly(1, {(1,): Fraction(-1, 4)}),
        MultiPoly(1, {(2,): Fraction(-3, 8)}),
    ]
    # x + x^2 + x^3 folds to s_0 + s_1 + s_2 (k = 1), each over (2 * -1)^3
    out, den = _stage_fold({(1, 0): 1, (2, 0): 1, (3, 0): 1}, lines, 1)
    assert (out, den) == ({(0,): 4, (1,): 2, (2,): 3}, -8)
    assert all(type(v) is int for v in out.values())


def test_stage_fold_drops_cancelled_terms():
    from torusloc.weighted import _stage_fold

    # 1/(1 + u) = 1 - u + ..., so u * s_0 + x * s_1 = u - u = 0
    assert _stage_fold({(0, 1): 1, (1, 0): 1}, ((1, (1,)),), 1) == ({}, 1)


@st.composite
def s0_folds(draw):
    """A space of r lines and integer numerators over a den whose highest
    stage-variable power is r - 1, so the fold needs only s_0."""
    space = draw(spaces())
    r, n = space.rank, space.residual_count
    numerator = st.integers(-6, 6).filter(bool)
    exponents = st.tuples(st.integers(0, r - 1), *([st.integers(0, 3)] * n))
    numerators = draw(st.dictionaries(exponents, numerator, max_size=6))
    top = (r - 1,) + draw(st.tuples(*([st.integers(0, 3)] * n)))
    numerators[top] = draw(numerator)
    return space, numerators, draw(st.integers(1, 6))


@settings(max_examples=100, deadline=None)
@given(s0_folds())
def test_stage_fold_at_the_top_power_matches_reference(case):
    from torusloc.weighted import _stage_fold

    space, numerators, den = case
    out, stage_den = _stage_fold(numerators, space.lines, space.residual_count)
    assert all(type(v) is int and v for v in out.values())
    p = MultiPoly._make(space.residual_count + 1, numerators, den)
    assert MultiPoly._make(space.residual_count, out, den * stage_den) == ref_stage_map(p, space)


def test_stage_fold_at_the_top_power_by_hand():
    from torusloc.weighted import _stage_fold

    # lines -2 and 4: k = 2, s_0 = 1/-8; x * 3 keeps 3 * 2 = 6, u * 5 is below x^1
    assert _stage_fold({(1, 0): 3, (0, 1): 5}, ((-2, (1,)), (4, (0,))), 1) == ({(0,): 6}, -8)


def test_finish_fold_by_hand():
    from torusloc.localization import _kept_terms
    from torusloc.weighted import _finish_fold

    # stage 0: 1/((1 + u) 2) = 1/2 - u/2 + ..., N = [1, -2] over 2^(n+1), k0 = 1;
    # stage 1: lines 3 and -3, k1 = 3, s_0 = 1/-9, so e0 + e1 = 2 is kept.
    # 5 x0 x1 -> 5/2 x1 and 7 x0^2 -> -7/2 x1; -x1 -> -3/-9 = 1/3 = -12/-36.
    # 11 x1^2 is below x0^1, 13 x0^2 x1 off the degree.
    numerators = {(1, 1): 5, (2, 0): 7, (0, 2): 11, (2, 1): 13}
    stages = (((1, (1,)), (2, (0,))), ((3, ()), (-3, ())))
    assert _kept_terms(numerators, stages) == [5, 7]
    assert _finish_fold([5, 7], stages) == (-12, -36)
    assert _finish_fold([5, 7, 0, 0], stages) == (-12, -36)  # trailing zeros are not read
    # rank 1: only the one stage, read at x^(r-1)
    assert _kept_terms({(1,): 4, (0,): 9}, stages[1:]) == [4]
    assert _finish_fold([4], stages[1:]) == (12, -9)
    assert _kept_terms({(0,): 9}, stages[1:]) == [0]
    assert _finish_fold([0], stages[1:]) == (0, 1)


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

