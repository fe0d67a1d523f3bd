import copy
import io
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusloc import (
    DimensionMismatch,
    EquivariantClass,
    ModelFormatError,
    MultiPoly,
    Plan,
    PlanTerm,
    NoRootData,
    NotUnimodular,
    OrientedFlag,
    PlanFormatError,
    TorusLocError,
    TorusModel,
    UnknownFixedPoint,
    Unsupported,
    WeightedSpace,
    build_cp_product,
    build_sphere_product,
    class_generator,
    dump_plan,
    evaluate_plan,
    flag_split,
    lambda_flag,
    load_plan,
    stage_map,
    volume_class,
    weyl_correct,
)
from torusloc import localization
from torusloc.localization import _int_det
from torusloc.model import FixedPoint
from torusloc.plans import THETA1, rank1_plan

from oracles.convolution import uniform_sum_density
from helpers import INT_DIGIT_LIMIT, constant_class, monomial_class, point_sphere_product, ref_cp_point_id, ref_lambda_flag, unimodular

PLUS = OrientedFlag(((1,),))
MINUS = OrientedFlag(((-1,),))


class TestOrientedFlag:
    def test_unimodular_ok(self):
        assert THETA1.rank == 2
        assert OrientedFlag(((1, 1), (0, 1))).stages == ((1, 1), (0, 1))

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular, match="has determinant 2"):
            OrientedFlag(((2, 0), (0, 1)))

    def test_singular(self):
        with pytest.raises(NotUnimodular, match="has determinant 0"):
            OrientedFlag(((1, 1), (1, 1)))

    @pytest.mark.parametrize(
        "stages, det",
        [
            (((1, 0), (0, 1)), 1),
            (((0, 1), (1, 0)), -1),
            (((1, 1), (1, 1)), 0),
            (((2, 0), (0, 1)), 2),
            (((0, 1), (-1, 0)), 1),
        ],
    )
    def test_determinant(self, stages, det):
        value = _int_det(stages)
        assert type(value) is int
        assert value == det

    def test_determinant_three_by_three(self):
        # A zero leading entry forces a row swap during elimination.
        stages = ((0, 1, 0), (1, 0, 2), (0, 3, 1))
        assert _int_det(stages) == -1
        assert OrientedFlag(stages).stages == stages
        assert _int_det(((2, 1, 0), (1, 1, 4), (0, 0, 3))) == 3
        with pytest.raises(NotUnimodular, match="has determinant 3"):
            OrientedFlag(((2, 1, 0), (1, 1, 4), (0, 0, 3)))

    @given(st.integers(1, 4).flatmap(unimodular), st.data())
    def test_bases_construct_and_scaled_rows_raise(self, basis, data):
        assert OrientedFlag(basis).stages == tuple(basis)
        row = data.draw(st.integers(0, len(basis) - 1))
        factor = data.draw(st.sampled_from([2, 3, -2]))
        scaled = list(basis)
        scaled[row] = tuple(factor * a for a in basis[row])
        with pytest.raises(NotUnimodular):
            OrientedFlag(scaled)


class TestFlagSplit:
    def test_rank_one_identity(self):
        m = point_sphere_product(3)
        spaces, basis = flag_split(m.fixed_point("f{1}"), PLUS)
        assert len(spaces) == 1
        assert spaces[0].lines == ((-1, ()), (1, ()), (1, ()))
        assert basis == ((1,),)

    def test_cp_two_stage_split(self):
        m = build_cp_product(3, 4)
        point = m.fixed_point(ref_cp_point_id(({1, 2}, {3}, {4})))
        spaces, _ = flag_split(point, THETA1)
        assert sorted(spaces[0].lines) == [
            (-1, (-1,)),
            (-1, (0,)),
            (1, (0,)),
            (1, (1,)),
            (1, (1,)),
        ]
        assert spaces[0].rank == 5
        assert sorted(spaces[1].lines) == [(-1, ()), (1, ()), (1, ())]
        assert spaces[1].rank == 3

    def test_empty_stage_possible(self):
        point = FixedPoint(id="x", moment=(Fraction(0), Fraction(0)), weights=((1, 0),))
        spaces, _ = flag_split(point, OrientedFlag(((0, 1), (1, 0))))
        assert spaces[0].is_empty()
        assert not spaces[1].is_empty()

    @pytest.mark.parametrize(
        "stages",
        [((1,),), ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
        ids=["flag-rank-below-model", "flag-rank-above-model"],
    )
    def test_flag_rank_must_match_weight_length(self, stages):
        # Used to end in StopIteration (rank 1) or a silent zero (rank 3).
        point = FixedPoint(id="a", moment=(Fraction(0), Fraction(0)),
                           weights=((1, 0), (0, 1), (1, 1)))
        with pytest.raises(DimensionMismatch, match="flag has rank"):
            flag_split(point, OrientedFlag(stages))

    def test_zero_weight_is_model_error(self):
        # A standalone point with a zero weight cannot be made, so no split sees one.
        for moment, weights in [((0,), ((0,),)), ((0,), ((1,), (0,))), ((0, 0), [[1, 0], (0, 0)]),
                                ((0,), ((1,), ()))]:
            with pytest.raises(ModelFormatError, match="^fixed point 'z': zero tangent weight$"):
                FixedPoint(id="z", moment=moment, weights=weights)

    def test_rejects_nonbasis(self):
        # A flag that is not a lattice basis cannot be made, so no split sees one.
        with pytest.raises(NotUnimodular):
            OrientedFlag(((2,),))


class TestStageMap:
    def test_sign_weight_evaluation(self):
        # c*u^(n-1) over n-k positive and k negative unit weights gives c*(-1)^k
        for n, k, c in [(3, 0, 4), (5, 2, Fraction(7, 3)), (4, 3, -2)]:
            lines = tuple([(1, ())] * (n - k) + [(-1, ())] * k)
            v = WeightedSpace(lines, 0)
            p = MultiPoly(1, {(n - 1,): c})
            assert stage_map(p, v) == MultiPoly.const(0, c * (-1) ** k)

    def test_below_threshold_zero(self):
        v = WeightedSpace(((1, ()), (1, ()), (1, ())), 0)
        assert stage_map(MultiPoly(1, {(1,): 1}), v).is_zero()

    def test_stage_with_residual(self):
        # the rank-5 first stage at partition sizes (2,1,1)
        lines = ((1, (1,)), (1, (1,)), (-1, (-1,)), (-1, (0,)), (1, (0,)))
        v = WeightedSpace(lines, 1)
        p = MultiPoly(2, {(4, 2): 1})  # stage variable power 4 = rank - 1
        assert stage_map(p, v) == MultiPoly(1, {(2,): 1})

    def test_empty_stage_raises(self):
        from torusloc import EmptyStage

        with pytest.raises(EmptyStage):
            stage_map(MultiPoly(1, {(0,): 1}), WeightedSpace((), 0))


class TestLambdaFlag:
    def test_sphere_square(self):
        m = build_sphere_product(3)
        L = class_generator(m, "prequantum")
        assert lambda_flag(m, "f{}", PLUS, L**2) == 9

    def test_cp_monomial(self):
        m = build_cp_product(3, 4)
        fid = ref_cp_point_id(({1, 2}, {3}, {4}))
        assert lambda_flag(m, fid, THETA1, monomial_class(m, 2, 4)) == -1

    def test_below_degree_zero(self):
        m = build_sphere_product(3)
        assert lambda_flag(m, "f{}", PLUS, constant_class(m, 1)) == 0

    def test_degree_bookkeeping(self):
        # nonzero only in the single degree weights-minus-rank
        m = build_cp_product(3, 2)
        fid = ref_cp_point_id(({1}, {2}, frozenset()))
        for j1 in range(5):
            for j2 in range(5):
                value = lambda_flag(m, fid, THETA1, monomial_class(m, j1, j2))
                if j1 + j2 != 2:
                    assert value == 0

    def test_linearity(self):
        m = point_sphere_product(5)
        L = class_generator(m, "prequantum")
        v1 = class_generator(m, "v", index=1)
        a = L**4
        b = v1**4
        for fid in ("f{}", "f{1,2}"):
            left = lambda_flag(m, fid, PLUS, a * 3 + b * Fraction(-1, 2))
            right = 3 * lambda_flag(m, fid, PLUS, a) - Fraction(1, 2) * lambda_flag(
                m, fid, PLUS, b
            )
            assert left == right

    def test_inadmissible_pair_is_zero(self):
        model = TorusModel(
            rank=2,
            fixed_points=(
                FixedPoint(id="x", moment=(Fraction(0), Fraction(0)), weights=((1, 0), (2, 0))),
            ),
        )
        cls = EquivariantClass({"x": MultiPoly.zero(2)})
        assert lambda_flag(model, "x", OrientedFlag(((0, 1), (1, 0))), cls) == 0

    def test_orientation_reversal_negates(self):
        # single-stage maps over a point: flipping the flag vector negates
        # the value on stage-variable exponent rank - 1
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(1, 6)
            weights = tuple((rng.choice([-3, -2, -1, 1, 2, 3]),) for _ in range(n))
            point = FixedPoint(id="p", moment=(Fraction(0),), weights=weights)
            model = TorusModel(rank=1, fixed_points=(point,))
            cls = EquivariantClass({"p": MultiPoly(1, {(n - 1,): 1})})
            plus = lambda_flag(model, "p", PLUS, cls)
            minus = lambda_flag(model, "p", MINUS, cls)
            assert plus == -minus and plus != 0

    def test_global_stabilizer_scaling(self):
        point = FixedPoint(id="p", moment=(Fraction(0),), weights=((1,),))
        base = TorusModel(rank=1, fixed_points=(point,))
        scaled = TorusModel(rank=1, fixed_points=(point,), global_stabilizer_order=3)
        cls = EquivariantClass({"p": MultiPoly.const(1, 1)})
        assert lambda_flag(scaled, "p", PLUS, cls) == 3 * lambda_flag(base, "p", PLUS, cls)

    def test_unknown_fixed_point(self):
        m = build_sphere_product(2)
        with pytest.raises(UnknownFixedPoint):
            lambda_flag(m, "nope", PLUS, constant_class(m, 1))


class TestEvaluatePlan:
    def test_rightward_pairing(self):
        m = build_sphere_product(3)
        L = class_generator(m, "prequantum")
        assert evaluate_plan(m, rank1_plan(m, 0, 1), L**2) == 6

    def test_leftward_pairing(self):
        m = build_sphere_product(3)
        L = class_generator(m, "prequantum")
        assert evaluate_plan(m, rank1_plan(m, 0, -1), L**2) == 6

    def test_empty_plan(self):
        m = build_sphere_product(3)
        assert evaluate_plan(m, Plan(()), constant_class(m, 1)) == 0

    def test_unknown_fixed_point_in_plan(self):
        m = build_sphere_product(3)
        L = class_generator(m, "prequantum")
        plan = Plan(rank1_plan(m, 0, 1).terms + (PlanTerm(1, "nope", PLUS),))
        with pytest.raises(UnknownFixedPoint):
            evaluate_plan(m, plan, L)

    def test_cancelling_terms_still_check_their_flag(self):
        # The two terms share a key and their coefficients sum to zero; the
        # flag is still evaluated, so its rank is still checked against the model.
        m = build_sphere_product(2)
        wrong_rank = OrientedFlag(((0, 1), (1, 0)))
        plan = Plan((PlanTerm(1, "f{}", wrong_rank), PlanTerm(-1, "f{}", wrong_rank)))
        with pytest.raises(DimensionMismatch, match="flag has rank 2"):
            evaluate_plan(m, plan, class_generator(m, "prequantum"))

    def test_term_order_irrelevant(self):
        m = build_sphere_product(5)
        L = class_generator(m, "prequantum")
        plan = rank1_plan(m, 0, 1)
        rng = random.Random(77)
        reference = evaluate_plan(m, plan, L**4)
        for _ in range(5):
            shuffled = list(plan.terms)
            rng.shuffle(shuffled)
            assert evaluate_plan(m, Plan(tuple(shuffled)), L**4) == reference


class TestClassMustFitTheModel:
    """A class that does not fit the model is refused by name, per distinct key."""

    # rank 2; under the identity flag the stages hold two lines and one
    WEIGHTS = ((1, 0), (0, 1), (1, 1))
    FLAG = OrientedFlag(((1, 0), (0, 1)))
    EMPTY = OrientedFlag(((1, 1), (0, 1)))  # stage 1 gets no weight

    def model(self):
        points = tuple(FixedPoint(i, (Fraction(0), Fraction(0)), self.WEIGHTS) for i in "pq")
        return TorusModel(rank=2, fixed_points=points)

    def test_fitting_class_has_a_value(self):
        cls = EquivariantClass({i: MultiPoly(2, {(1, 0): 1}) for i in "pq"})
        assert lambda_flag(self.model(), "p", self.FLAG, cls) != 0

    @pytest.mark.parametrize("nvars", [1, 3])
    def test_restriction_with_another_variable_count(self, nvars):
        # one variable used to raise a bare IndexError, three to give 0
        m = self.model()
        cls = EquivariantClass({i: MultiPoly(nvars, {(1,) + (0,) * (nvars - 1): 1}) for i in "pq"})
        message = f"^class restriction at fixed point 'p' has {nvars} variables"
        for flag in (self.FLAG, self.EMPTY):
            with pytest.raises(DimensionMismatch, match=message):
                lambda_flag(m, "p", flag, cls)
        with pytest.raises(DimensionMismatch, match="variables, but the flag has rank 2$"):
            evaluate_plan(m, Plan((PlanTerm(1, "q", self.FLAG),)), cls)

    def test_missing_restriction(self):
        # used to raise a bare KeyError from evaluate_plan
        m = self.model()
        cls = EquivariantClass({"p": MultiPoly(2, {(1, 0): 1})})
        message = "^class has no restriction at fixed point 'q'$"
        plan = Plan((PlanTerm(1, "p", self.FLAG), PlanTerm(1, "q", self.FLAG)))
        with pytest.raises(UnknownFixedPoint, match=message):
            evaluate_plan(m, plan, cls)
        with pytest.raises(UnknownFixedPoint, match=message):
            lambda_flag(m, "q", self.EMPTY, cls)


class TestWeylCorrect:
    def test_sphere_constant(self):
        m = build_sphere_product(3)
        corrected = weyl_correct(m, constant_class(m, 1))
        expected = MultiPoly(1, {(2,): Fraction(-1, 2)})
        assert all(p == expected for p in corrected.restrictions.values())

    def test_cp_root_product(self):
        m = build_cp_product(3, 1)
        corrected = weyl_correct(m, constant_class(m, 1))
        expected = MultiPoly(
            2,
            {
                (3, 3): Fraction(2, 6),
                (4, 2): Fraction(-1, 6),
                (2, 4): Fraction(-1, 6),
            },
        )
        assert corrected.at("F{1}|{}|{}") == expected

    def test_no_root_data(self):
        m = build_cp_product(4, 1)  # no roots attached for k = 4
        with pytest.raises(NoRootData):
            weyl_correct(m, constant_class(m, 1))


class TestVolumeClass:
    def test_torus_volume_class_is_a_power_of_the_prequantum_class(self):
        m = build_sphere_product(5)
        cls, degree = volume_class(m, "torus")
        assert degree == 4
        assert cls == class_generator(m, "prequantum") ** 4

    def test_weyl_volume_class_drops_the_roots(self):
        m = build_cp_product(3, 5)
        cls, degree = volume_class(m, "weyl")
        assert degree == 2 * 5 - 8
        assert cls == weyl_correct(m, class_generator(m, "prequantum") ** degree)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_torus_volume_at_a_base_point_is_the_density_there(self, n):
        m = build_sphere_product(n)
        density = uniform_sum_density(n)
        for p0 in (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 2), Fraction(1, 3), Fraction(-7, 3)):
            cls, degree = volume_class(m, "torus", (p0,))
            assert degree == n - 1
            expected = 2**n * factorial(n - 1) * density.value(p0)
            for direction in (1, -1):
                assert evaluate_plan(m, rank1_plan(m, p0, direction), cls) == expected

    def test_base_point_shifts_the_prequantum_class(self):
        m = build_cp_product(3, 2)
        base = (Fraction(1, 3), -1)
        cls, degree = volume_class(m, "torus", base)
        shift = class_generator(m, "line", direction=base)
        assert cls == (class_generator(m, "prequantum") - shift) ** degree
        # the origin, given or not, is the unshifted class
        assert volume_class(m, "torus", (0, 0)) == volume_class(m, "torus")

    def test_base_point_errors(self):
        with pytest.raises(Unsupported, match="origin only"):
            volume_class(build_sphere_product(5), "weyl", (Fraction(1, 2),))
        assert volume_class(build_sphere_product(5), "weyl", (0,))[1] == 2
        with pytest.raises(DimensionMismatch, match="base point"):
            volume_class(build_cp_product(3, 2), "torus", (Fraction(1, 2),))

    @pytest.mark.parametrize("base", [(0.1,), (0.0,), (True,), ("1/2",)])
    def test_base_point_entries_must_be_int_or_fraction(self, base):
        # volume_class(m, "torus", (0.1,)) used to pair at the binary value of 0.1
        with pytest.raises(DimensionMismatch, match="must be an int or a Fraction"):
            volume_class(build_sphere_product(3), "torus", base)

    @pytest.mark.parametrize("base", [0.5, 0, None, "0"])
    def test_base_point_must_be_a_sequence(self, base):
        # volume_class(m, "torus", 0.5) used to end in a TypeError
        with pytest.raises(DimensionMismatch, match="base point must be a list or tuple"):
            volume_class(build_sphere_product(3), "torus", base)

    def test_errors(self):
        with pytest.raises(Unsupported, match="without fixed points"):
            volume_class(TorusModel(1, ()), "torus")
        with pytest.raises(NoRootData, match="no root data"):
            volume_class(build_cp_product(4, 2), "weyl")
        with pytest.raises(Unsupported, match="negative volume degree"):
            volume_class(build_cp_product(3, 2), "weyl")
        with pytest.raises(ValueError):
            volume_class(build_sphere_product(2), "borel")


class TestPlanFiles:
    def test_roundtrip(self):
        m = build_sphere_product(3)
        plan = rank1_plan(m, 0, 1)
        buffer = io.StringIO()
        dump_plan(plan, buffer)
        buffer.seek(0)
        loaded = load_plan(buffer)
        assert loaded == plan

    def test_bad_file(self):
        from torusloc import PlanFormatError

        with pytest.raises(PlanFormatError):
            load_plan(io.StringIO('{"not": "a list"}'))
        with pytest.raises(PlanFormatError):
            load_plan(io.StringIO('[{"coefficient": 1}]'))

    def test_empty_flag_is_refused_at_load(self):
        with pytest.raises(PlanFormatError, match="bad plan term .*at least one stage"):
            load_plan(io.StringIO('[{"coefficient": 1, "fixed_point": "f{}", "flag": []}]'))

    def test_deeply_nested_file_is_plan_error(self):
        # used to end in a RecursionError
        with pytest.raises(PlanFormatError, match="malformed JSON"):
            load_plan(io.StringIO("[" * 100_000 + "]" * 100_000))

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="json reads integers of any length here")
    def test_oversized_integer_is_plan_error(self):
        # used to be the interpreter's own ValueError
        big = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        with pytest.raises(PlanFormatError, match="malformed JSON"):
            load_plan(io.StringIO(f'[{{"coefficient": {big}, "fixed_point": "f{{}}", "flag": [[1]]}}]'))

    def test_plan_terms_validate_flag(self):
        with pytest.raises(NotUnimodular, match="has determinant 2"):
            load_plan(io.StringIO('[{"coefficient": 1, "fixed_point": "f{}", "flag": [[2]]}]'))

    def test_each_distinct_flag_is_checked_once(self, monkeypatch):
        calls = []

        def counting_det(rows):
            calls.append(rows)
            return _int_det(rows)

        monkeypatch.setattr(localization, "_int_det", counting_det)
        flags = ([[0, 1], [-1, 0]], [[-1, 0], [0, 1]])
        entries = [
            {"coefficient": 1, "fixed_point": f"p{i}", "flag": flags[i % 2]} for i in range(1000)
        ]
        plan = load_plan(io.StringIO(json.dumps(entries)))
        assert len(calls) == 2
        assert [term.flag.stages for term in plan.terms[:2]] == [((0, 1), (-1, 0)), ((-1, 0), (0, 1))]
        assert len({id(term.flag) for term in plan.terms}) == 2

    @pytest.mark.parametrize("bad", ["[[true, 0], [0, 1]]", "[[1.0, 0], [0, 1]]"])
    def test_a_flag_equal_in_value_to_an_earlier_one_is_still_checked(self, bad):
        text = (
            '[{"coefficient": 1, "fixed_point": "a", "flag": [[1, 0], [0, 1]]},'
            f' {{"coefficient": 1, "fixed_point": "b", "flag": {bad}}}]'
        )
        with pytest.raises(PlanFormatError, match="flag stage"):
            load_plan(io.StringIO(text))


class TestStrictFlag:
    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    def test_non_integer_stage_entry_is_rejected(self, bad):
        with pytest.raises(PlanFormatError):
            OrientedFlag(((bad, 0), (0, 1)))
        assert issubclass(PlanFormatError, TorusLocError)

    def test_lists_and_tuples_are_accepted(self):
        assert OrientedFlag(([1, 0], (0, -1))).stages == ((1, 0), (0, -1))

    def test_ragged_stages_are_rejected(self):
        # used to end in a bare ValueError
        with pytest.raises(PlanFormatError, match="length equal to the rank"):
            OrientedFlag(((1, 0), (0,)))

    @pytest.mark.parametrize("empty", [(), []])
    def test_flag_without_stages_is_rejected(self, empty):
        # the empty determinant is 1, so a rank-0 flag used to be made
        with pytest.raises(PlanFormatError, match="at least one stage"):
            OrientedFlag(empty)

    @pytest.mark.parametrize("bad", [5, None, "10"])
    def test_non_sequence_flag_is_rejected(self, bad):
        # OrientedFlag(5) used to end in a bare TypeError
        with pytest.raises(PlanFormatError, match="list of stage vectors"):
            OrientedFlag(bad)


def random_model(rank: int, points: int, seed: int, weights: int = 5, radius: int = 2) -> TorusModel:
    """Points with nonzero weights drawn from [-radius, radius]^rank and rational moments."""
    rng = random.Random(seed)
    box = [w for w in itertools.product(range(-radius, radius + 1), repeat=rank) if any(w)]
    return TorusModel(rank, [
        FixedPoint(
            f"p{i}",
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)],
            [rng.choice(box) for _ in range(weights)],
        )
        for i in range(points)
    ])


class TestFlagOwnedTables:
    """A flag owns its weight-to-line and exponent-to-image tables; one flag
    object used across points and models must give what fresh flags give,
    and what the table-free reference fold gives."""

    FLAGS = {
        2: [((0, 1), (-1, 0)), ((1, 1), (0, 1)), ((2, -1), (1, 0))],
        3: [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 0), (0, -1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ],
    }
    MODELS = {
        2: lambda: [build_cp_product(3, 3), random_model(2, 40, 7), build_cp_product(3, 2)],
        3: lambda: [build_cp_product(4, 2), random_model(3, 40, 11, weights=8, radius=1)],
    }

    @staticmethod
    def classes(model):
        L = class_generator(model, "prequantum")
        m = model.weights_per_point - model.rank
        return [L**m, L ** (m - 1) * class_generator(model, "line", direction=[1] * model.rank), L ** (m + 1)]

    @pytest.mark.parametrize("rank", [2, 3])
    def test_shared_flag_matches_fresh_flags(self, rank):
        for stages in self.FLAGS[rank]:
            shared = OrientedFlag(stages)
            for model in self.MODELS[rank]():
                for cls in self.classes(model):
                    for fp in model.fixed_points:
                        value = lambda_flag(model, fp.id, shared, cls)
                        assert value == lambda_flag(model, fp.id, OrientedFlag(stages), cls)
                        assert value == ref_lambda_flag(model, fp.id, shared, cls)
                    fresh = Plan(tuple(PlanTerm(1, fp.id, OrientedFlag(stages)) for fp in model.fixed_points))
                    plan = Plan(tuple(PlanTerm(1, fp.id, shared) for fp in model.fixed_points))
                    assert evaluate_plan(model, plan, cls) == evaluate_plan(model, fresh, cls)
            assert shared._lines and shared._images

    @pytest.mark.parametrize("rank", [2, 3])
    def test_a_flag_of_another_rank_raises_before_and_after_its_table_fills(self, rank):
        flag = OrientedFlag(self.FLAGS[rank][1])
        model = random_model(rank, 1, 3)
        other = random_model(rank - 1, 1, 3)
        cls = class_generator(other, "prequantum")
        message = f"flag has rank {rank}"
        for _ in range(3):
            with pytest.raises(DimensionMismatch, match=message):
                lambda_flag(other, "p0", flag, cls)
        assert not flag._lines
        lambda_flag(model, "p0", flag, class_generator(model, "prequantum"))
        assert set(model.fixed_points[0].weights) == flag._lines.keys()
        for _ in range(3):
            with pytest.raises(DimensionMismatch, match=message):
                lambda_flag(other, "p0", flag, cls)
        assert set(model.fixed_points[0].weights) == flag._lines.keys()

    def test_filled_flag_keeps_equality_hash_and_round_trips(self):
        model = random_model(2, 20, 5)
        cls = self.classes(model)[0]
        flag = OrientedFlag(self.FLAGS[2][2])
        values = [lambda_flag(model, fp.id, flag, cls) for fp in model.fixed_points]
        assert flag._lines and flag._images
        fresh = OrientedFlag(self.FLAGS[2][2])
        assert flag == fresh and hash(flag) == hash(fresh)
        for back in (pickle.loads(pickle.dumps(flag)), copy.copy(flag), copy.deepcopy(flag)):
            assert type(back) is OrientedFlag and back == flag and hash(back) == hash(flag)
            assert [lambda_flag(model, fp.id, back, cls) for fp in model.fixed_points] == values
            with pytest.raises(AttributeError):
                back.stages = ()


class TestStrictPlanTerm:
    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", True, Fraction(1)])
    def test_non_int_coefficient_is_rejected(self, bad):
        # PlanTerm(0.5, ...) used to make evaluate_plan return the float 1.0
        with pytest.raises(PlanFormatError, match="coefficient must be an integer"):
            PlanTerm(bad, "f{}", PLUS)

    @pytest.mark.parametrize("bad", [5, None, ("f{}",)])
    def test_non_str_id_is_rejected(self, bad):
        with pytest.raises(PlanFormatError, match="fixed_point must be a string"):
            PlanTerm(1, bad, PLUS)


class TestReturnTypes:
    """Public values stay Fraction even when every coefficient is an int."""

    def test_lambda_flag_and_evaluate_plan_return_fraction(self):
        m = build_sphere_product(3)
        cls = class_generator(m, "prequantum") ** 2
        plan = rank1_plan(m, 0, 1)
        value = evaluate_plan(m, plan, cls)
        assert type(value) is Fraction and value == 6
        for t in plan.terms:
            assert type(lambda_flag(m, t.fixed_point_id, t.flag, cls)) is Fraction

    def test_off_degree_and_empty_plan_return_fraction(self):
        m = build_sphere_product(3)
        cls = class_generator(m, "prequantum") ** 3
        assert type(evaluate_plan(m, rank1_plan(m, 0, 1), cls)) is Fraction
        assert type(evaluate_plan(m, Plan(()), cls)) is Fraction
