import io
import itertools
import json
import pickle
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusloc import (
    EquivariantClass,
    IndexOutOfRange,
    ModelFormatError,
    ModelTooLarge,
    MultiPoly,
    NotRegular,
    TorusModel,
    UnknownGenerator,
    Unsupported,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    load_model,
    rank1_plan,
)
from torusloc.model import (
    MAX_FIXED_POINTS,
    FixedPoint,
    check_family_size,
    cp_vertex_weights,
    group_walk,
    strict_int_vector,
)

from helpers import (
    INT_DIGIT_LIMIT,
    constant_class,
    point_cp_product,
    point_sphere_product,
    ref_build_cp_product,
    ref_build_sphere_product,
    ref_cp_point_id,
    ref_cp_vertex_weights,
    ref_sphere_point_id,
)


def model_record(model: TorusModel):
    """Every field of a model, with each value's exact type beside it."""
    points = [
        (fp.id, [(type(m), m) for m in fp.moment], [(type(w), [(type(a), a) for a in w]) for w in fp.weights])
        for fp in model.fixed_points
    ]
    return (model.rank, points, model.roots, model.weyl_order,
            model.global_stabilizer_order, model.family)


class TestBuildersMatchPartitionReference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cp_product(self, k, n):
        assert model_record(point_cp_product(k, n)) == model_record(ref_build_cp_product(k, n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sphere_product(self, n):
        assert model_record(point_sphere_product(n)) == model_record(ref_build_sphere_product(n))

    def test_points_of_one_size_vector_share_their_moment(self):
        m = point_cp_product(3, 4)
        assert len({id(fp.moment) for fp in m.fixed_points}) == 15

    def test_point_id_helpers_match_the_built_ids(self):
        cp = point_cp_product(3, 4)
        assert cp.fixed_points[5].id == ref_cp_point_id((frozenset({2, 1}), {3}, [4]))
        assert cp.fixed_points[0].id == ref_cp_point_id(({4, 3, 2, 1}, (), ()))
        sphere = point_sphere_product(4)
        assert sphere.fixed_points[5].id == ref_sphere_point_id({4, 2})


class TestProductSymmetries:
    """Both families are n-fold products of one toric factor whose tangent
    weights at vertex j are the edge directions e_i - e_j of its moment simplex."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_vertex_weights_are_the_simplex_edges(self, k):
        assert cp_vertex_weights(k) == ref_cp_vertex_weights(k)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_spheres_are_the_relabelled_projective_line_product(self, n):
        # f{S} <-> F{S}|{N}: the south set S is the group of the vertex with
        # weight -1, the north set N its complement
        lines = {fp.id: fp for fp in point_cp_product(2, n).fixed_points}
        spheres = point_sphere_product(n).fixed_points
        assert len(spheres) == len(lines)
        everything = set(range(1, n + 1))
        for fp in spheres:
            south = {int(i) for i in fp.id[2:-1].split(",") if i}
            twin = lines[ref_cp_point_id((south, everything - south))]
            assert fp.moment == twin.moment
            assert fp.weights == twin.weights
            assert fp.sorted_weights == twin.sorted_weights


class TestBuilderSortedWeights:
    """The builders set each point's weight multiset and share one tuple
    among the points of a size vector, which the moment identifies."""

    @staticmethod
    def check(model: TorusModel, size_vectors: int):
        shared = {}
        for fp in model.fixed_points:
            assert vars(fp)["sorted_weights"] == tuple(sorted(fp.weights))
            assert shared.setdefault(id(fp.moment), fp.sorted_weights) is fp.sorted_weights
        assert len(shared) == len({id(w) for w in shared.values()}) == size_vectors

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cp_product(self, k, n):
        self.check(point_cp_product(k, n), comb(n + k - 1, k - 1))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sphere_product(self, n):
        self.check(point_sphere_product(n), n + 1)


class TestGroupWalk:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_product_order(self, k, n):
        pieces = [(f"p{j}",) for j in range(k)]
        expected = []
        for word in itertools.product(range(k), repeat=n):
            groups = [[str(i) for i, j in enumerate(word, 1) if j == g] for g in range(k)]
            expected.append((tuple(f"p{j}" for j in word), tuple(map(",".join, groups)),
                             tuple(map(len, groups))))
        assert list(group_walk(n, k, pieces)) == expected

    def test_streams(self):
        # 3^12 words; a walk that lists them would allocate megabytes
        # before yielding the first one
        tracemalloc.start()
        try:
            first = next(group_walk(12, 3, ((),) * 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == ((), (",".join(map(str, range(1, 13))), "", ""), (12, 0, 0))
        assert peak < 100_000


class TestBuilderPointsMatchPublicConstructor:
    """Builder points skip the per-point checks; the checked public
    constructor must give back equal points."""

    @pytest.mark.parametrize(
        "model",
        [build_cp_product(3, n) for n in range(1, 6)] + [build_sphere_product(n) for n in range(1, 8)],
    )
    def test_points_equal_checked_points(self, model):
        for fp in model.fixed_points:
            checked = FixedPoint(fp.id, fp.moment, fp.weights)
            assert fp.sorted_weights == checked.sorted_weights
            keys = ["id", "moment", "weights", "sorted_weights"]
            assert list(vars(fp)) == list(vars(checked)) == keys
            assert fp == checked

    @pytest.mark.parametrize(
        "model",
        [build_cp_product(3, n) for n in range(1, 6)] + [build_sphere_product(n) for n in range(1, 8)]
        + [build_cp_product(4, n) for n in range(1, 4)],
    )
    def test_models_equal_checked_models(self, model):
        # the builders make their models without the checking constructor's
        # scan of the points; it takes the same fields and keeps them
        fields = model._values()
        assert TorusModel(*fields)._values() == fields


PAIR = ((1, 0), (0, 1))


def five_points(third: tuple, fifth: tuple) -> list[FixedPoint]:
    """Five rank-2 points with ids p0..p4; the third and fifth are given as
    FixedPoint arguments and made in order, as load_model makes them."""
    good = [(f"p{i}", (i, 0), PAIR) for i in range(5)]
    return [FixedPoint(*args) for args in (good[0], good[1], third, good[3], fifth)]


class TestModelChecksNameTheFirstBadPoint:
    """TorusModel scans the points in order, so a failure names the first
    offending point even when a later point repeats its fault.  A
    zero weight is refused by FixedPoint itself, so the third point is
    named as it is made."""

    @pytest.mark.parametrize(
        "third, fifth, message",
        [
            (("p1", (2, 0), PAIR), ("p1", (4, 0), PAIR),
             "duplicate fixed point id 'p1'"),
            (("p2", (2,), PAIR), ("p4", (4,), PAIR),
             "fixed point 'p2': moment has length 1, expected 2"),
            (("p2", (2, 0), PAIR + ((1, 1),)), ("p4", (4, 0), PAIR + ((1, 1),)),
             "fixed point 'p2': 3 weights, expected 2"),
            (("p2", (2, 0), ((1, 0), (0, 1, 1))), ("p4", (4, 0), ((1, 0), (0, 1, 1))),
             "fixed point 'p2': weight (0, 1, 1) has length 3, expected 2"),
            (("p2", (2, 0), ((1, 0), (0, 0))), ("p4", (4, 0), ((1, 0), (0, 0))),
             "fixed point 'p2': zero tangent weight"),
        ],
    )
    def test_third_point_is_named(self, third, fifth, message):
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            TorusModel(rank=2, fixed_points=five_points(third, fifth))
        # the same holds when the fifth point carries a different fault
        other = ("p0", (4,), ((0, 1, 1),))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            TorusModel(rank=2, fixed_points=five_points(third, other))

    def test_good_points_pass(self):
        points = five_points(("p2", (2, 0), PAIR), ("p4", (4, 0), PAIR))
        assert TorusModel(rank=2, fixed_points=points).fixed_points == tuple(points)

    def test_load_model_names_the_first_zero_weight_point(self):
        points = [
            {"id": f"p{i}", "moment": [i], "weights": [[0]] if i in (2, 4) else [[1]]}
            for i in range(5)
        ]
        with pytest.raises(ModelFormatError, match="^fixed point 'p2': zero tangent weight$"):
            load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))


class TestSphereProduct:
    def test_point_count(self):
        assert len(point_sphere_product(3).fixed_points) == 8

    def test_north_pole_point(self):
        m = build_sphere_product(3)
        fp = m.fixed_point("f{}")
        assert fp.moment == (Fraction(3),)
        assert fp.weights == ((1,), (1,), (1,))

    def test_two_south_poles(self):
        m = point_sphere_product(3)
        fp = m.fixed_point("f{1,2}")
        assert fp.moment == (Fraction(-1),)
        assert fp.weights == ((-1,), (-1,), (1,))

    def test_root_data(self):
        m = build_sphere_product(3)
        assert set(m.roots) == {(1,), (-1,)}
        assert m.weyl_order == 2

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_size_takes_only_an_int(self, bad):
        # True used to build spheres:1
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build_sphere_product(bad)

    def test_moment_symmetry_under_complement(self):
        m = point_sphere_product(4)
        for fp in m.fixed_points:
            subset = {int(i) for i in fp.id[2:-1].split(",") if i}
            complement = set(range(1, 5)) - subset
            assert fp.moment[0] == -m.fixed_point(ref_sphere_point_id(complement)).moment[0]


class TestCpProduct:
    def test_single_factor_points(self):
        m = build_cp_product(3, 1)
        f3 = m.fixed_point("F{}|{}|{1}")
        assert f3.moment == (Fraction(1), Fraction(1))
        assert f3.weights == ((1, 0), (0, 1))
        f1 = m.fixed_point("F{1}|{}|{}")
        assert f1.moment == (Fraction(-2), Fraction(1))
        assert f1.weights == ((-1, 1), (-1, 0))

    def test_point_count(self):
        assert len(point_cp_product(3, 2).fixed_points) == 9

    @pytest.mark.parametrize("k, n", [(3, 2.0), (3, True), (3.0, 2), (True, 2)])
    def test_sizes_take_only_an_int(self, k, n):
        # (3, 2.0) used to end in a bare "'float' object cannot be interpreted as an integer"
        with pytest.raises(ValueError, match="must be a.* integer"):
            build_cp_product(k, n)

    def test_moment_formula(self):
        m = build_cp_product(3, 4)
        fp = m.fixed_point(ref_cp_point_id(({1, 2}, {3}, {4})))
        # sizes (2, 1, 1): (-2*2+1+1, 2-2*1+1) = (-2, 1)
        assert fp.moment == (Fraction(-2), Fraction(1))

    def test_weights_per_point(self):
        m = build_cp_product(3, 4)
        assert m.weights_per_point == 8

    def test_k2_matches_sphere_moments(self):
        # two-coordinate projective lines are spheres with the same moments
        sphere = build_sphere_product(3)
        cp = build_cp_product(2, 3)
        assert sorted(fp.moment[0] for fp in cp.fixed_points) == sorted(
            fp.moment[0] for fp in sphere.fixed_points
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moment_multiset_weyl_invariant(self, n):
        # permuting the partition groups acts on t* by the symmetry group of
        # the moment triangle; the moment multiset must be stable under it
        m = build_cp_product(3, n)
        moments = sorted(fp.moment for fp in m.fixed_points)
        swapped = sorted((fp.moment[1], fp.moment[0]) for fp in m.fixed_points)
        assert moments == swapped
        # three-cycle of the vertices: (x1, x2) -> (-x1 - x2, x1)
        cycled = sorted((-fp.moment[0] - fp.moment[1], fp.moment[0]) for fp in m.fixed_points)
        assert moments == cycled


class TestClassGenerator:
    def test_prequantum_sphere(self):
        m = build_sphere_product(3)
        cls = class_generator(m, "prequantum")
        assert cls.at("f{}") == MultiPoly(1, {(1,): 3})

    def test_v_class_sign(self):
        m = point_sphere_product(3)
        cls = class_generator(m, "v", index=1)
        assert cls.at("f{1}") == MultiPoly(1, {(1,): -1})
        assert cls.at("f{2}") == MultiPoly(1, {(1,): 1})

    def test_prequantum_cp(self):
        m = build_cp_product(3, 1)
        cls = class_generator(m, "prequantum")
        assert cls.at("F{}|{}|{1}") == MultiPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_line_class(self):
        m = build_sphere_product(2)
        cls = class_generator(m, "line", direction=(2,))
        assert all(p == MultiPoly(1, {(1,): 2}) for p in cls.restrictions.values())

    @pytest.mark.parametrize("direction", [(0.5,), (1.0,), (True,), ("2",)])
    def test_line_direction_must_be_int_or_fraction(self, direction):
        # class_generator(m, "line", direction=(0.5,)) used to build 1/2*u
        with pytest.raises(IndexOutOfRange, match="must be an int or a Fraction"):
            class_generator(build_sphere_product(3), "line", direction=direction)
        line = class_generator(build_sphere_product(3), "line", direction=(Fraction(1, 2),))
        assert line.at("f{}") == MultiPoly(1, {(1,): Fraction(1, 2)})

    def test_v_on_cp_model_rejected(self):
        with pytest.raises(UnknownGenerator):
            class_generator(build_cp_product(3, 1), "v", index=1)

    def test_v_index_range(self):
        with pytest.raises(IndexOutOfRange):
            class_generator(build_sphere_product(3), "v", index=4)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1"])
    def test_v_index_must_be_an_int(self, index):
        # index=1.5 used to end in a TypeError and index=True to mean v1
        with pytest.raises(IndexOutOfRange, match="v index must be an integer"):
            class_generator(build_sphere_product(3), "v", index=index)

    @pytest.mark.parametrize("direction", [5, None, "12", Fraction(1)])
    def test_line_direction_must_be_a_sequence(self, direction):
        # direction=5 used to end in a TypeError from len()
        with pytest.raises(IndexOutOfRange, match="direction of length 1"):
            class_generator(build_sphere_product(3), "line", direction=direction)

    def test_unknown_kind(self):
        with pytest.raises(UnknownGenerator):
            class_generator(build_sphere_product(3), "euler")


class TestEquivariantClassOps:
    def test_pointwise_algebra(self):
        m = build_sphere_product(2)
        L = class_generator(m, "prequantum")
        combo = L * L - L**2
        assert all(p.is_zero() for p in combo.restrictions.values())

    @pytest.mark.parametrize("bad", [5, None, Fraction(1, 2)])
    def test_pointwise_result_that_is_not_a_polynomial_names_its_point(self, bad):
        # 5 used to end in a bare AttributeError inside lambda_flag
        m = build_sphere_product(3)
        cls = class_generator(m, "prequantum").pointwise(lambda p: bad)
        message = f"op result at fixed point 'f{{}}' must be a MultiPoly, got {bad!r}"
        with pytest.raises(TypeError) as raised:
            evaluate_plan(m, rank1_plan(m, 0, 1), cls)
        assert str(raised.value) == message

    @pytest.mark.parametrize("bad", [False, True, 2.0])
    def test_power_takes_only_an_int(self, bad):
        # L ** False used to restrict to 1 at every point
        L = class_generator(build_sphere_product(2), "prequantum")
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            L ** bad

    def test_scalar(self):
        m = build_sphere_product(2)
        one = constant_class(m, 1)
        assert (one * Fraction(1, 2)).at("f{}") == MultiPoly.const(1, Fraction(1, 2))


class TestClassChecksWhenMade:
    """A class made from a dict is checked once, when it is made; a bad
    restriction used to surface only when a pairing read it."""

    @pytest.mark.parametrize("bad", [5, "x", None])
    def test_restriction_that_is_not_a_polynomial_is_refused(self, bad):
        # 5 used to end in a bare AttributeError in lambda_flag, and None
        # to be reported as UnknownFixedPoint
        u = MultiPoly.variable(1, 0)
        message = f"restriction at fixed point 'f{{3}}' must be a MultiPoly, got {bad!r}"
        for restrictions in ({"f{}": u, "f{3}": bad, "f{2,3}": u}, {"f{3}": bad}):
            with pytest.raises(TypeError) as raised:
                EquivariantClass(restrictions=restrictions)
            assert str(raised.value) == message

    def test_dict_class_round_trips_through_pickle(self):
        m = build_sphere_product(3)
        cls = EquivariantClass(dict((class_generator(m, "prequantum") ** 2).restrictions))
        back = pickle.loads(pickle.dumps(cls))
        assert type(back) is EquivariantClass and back == cls
        assert list(back.restrictions) == [fp.id for fp in m.fixed_points]

    def test_empty_class_is_made(self):
        assert EquivariantClass({}).restrictions == {}


class TestCheckRegular:
    """Regularity of a base point is checked where a plan is made: rank1_plan
    refuses a fixed-point moment, cp2_plan an origin on a wall."""

    def test_sphere_even_origin(self):
        for direction in (1, -1):
            with pytest.raises(NotRegular):
                rank1_plan(build_sphere_product(4), 0, direction)

    def test_sphere_odd_origin(self):
        assert len(rank1_plan(point_sphere_product(5), 0, 1)) == 16

    def test_sphere_wall_value(self):
        with pytest.raises(NotRegular):
            rank1_plan(build_sphere_product(3), 1, -1)

    def test_cp_multiple_of_three(self):
        with pytest.raises(NotRegular):
            cp2_plan(6, "swapped")
        assert len(cp2_plan(4, "swapped")) > 0

    def test_cp_off_origin_unsupported(self):
        # the only rank-2 plans are the cp2 recipe at the origin
        with pytest.raises(Unsupported):
            rank1_plan(build_cp_product(3, 4), 1, 1)


class TestModelFile:
    GOOD = {
        "rank": 1,
        "fixed_points": [
            {"id": "north", "moment": [1], "weights": [[1]]},
            {"id": "south", "moment": ["-1/1"], "weights": [[-1]]},
        ],
        "roots": [[1], [-1]],
        "weyl_order": 2,
    }

    def test_load_valid(self):
        m = load_model(io.StringIO(json.dumps(self.GOOD)))
        assert m.rank == 1
        assert m.fixed_point("south").moment == (Fraction(-1),)
        assert m.weyl_order == 2

    def test_zero_weight_reports_id(self):
        bad = json.loads(json.dumps(self.GOOD))
        bad["fixed_points"][1]["weights"] = [[0]]
        with pytest.raises(ModelFormatError, match="south"):
            load_model(io.StringIO(json.dumps(bad)))

    def test_duplicate_id(self):
        bad = json.loads(json.dumps(self.GOOD))
        bad["fixed_points"][1]["id"] = "north"
        with pytest.raises(ModelFormatError, match="north"):
            load_model(io.StringIO(json.dumps(bad)))

    def test_moment_length_mismatch(self):
        bad = json.loads(json.dumps(self.GOOD))
        bad["fixed_points"][0]["moment"] = [1, 2]
        with pytest.raises(ModelFormatError, match="north"):
            load_model(io.StringIO(json.dumps(bad)))

    def test_uneven_weight_counts(self):
        bad = json.loads(json.dumps(self.GOOD))
        bad["fixed_points"][1]["weights"] = [[-1], [-1]]
        with pytest.raises(ModelFormatError, match="south"):
            load_model(io.StringIO(json.dumps(bad)))

    def test_repeated_bad_moment_string_names_its_first_point(self):
        points = [
            {"id": fp_id, "moment": [moment], "weights": [[1]]}
            for fp_id, moment in zip("abcde", ["1", "1/0", "2", "1/0", "3"])
        ]
        with pytest.raises(ModelFormatError, match="^fixed point 'b': .*zero denominator"):
            load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))

    def test_boolean_moment_is_rejected_after_equal_values_parsed(self):
        # True == 1, so a memo keyed by value would let it through
        points = [
            {"id": fp_id, "moment": [moment], "weights": [[1]]}
            for fp_id, moment in zip("abc", [1, "1", True])
        ]
        with pytest.raises(ModelFormatError, match="^fixed point 'c': .*got True"):
            load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))

    def test_repeated_moment_strings_parse_to_equal_fractions(self):
        points = [
            {"id": fp_id, "moment": [moment, "-1/3"], "weights": [[1, 0]]}
            for fp_id, moment in zip("abcd", ["1/2", "2/4", "1/2", 7])
        ]
        m = load_model(io.StringIO(json.dumps({"rank": 2, "fixed_points": points})))
        assert [fp.moment for fp in m.fixed_points] == [
            (Fraction(1, 2), Fraction(-1, 3))] * 3 + [(Fraction(7), Fraction(-1, 3))]
        assert {type(x) for fp in m.fixed_points for x in fp.moment} == {Fraction}

    @pytest.mark.parametrize("bad", ["\u0663", " 3", "1_000", "\uff13"], ids=["arabic", "space", "underscore", "fullwidth"])
    def test_moment_text_outside_the_ascii_digits_names_its_point(self, bad):
        # Fraction() read these as 3, 3, 1000 and 3
        points = [{"id": fp_id, "moment": [moment], "weights": [[1]]} for fp_id, moment in (("a", "1"), ("b", bad))]
        message = f"fixed point 'b': rational value {bad!r} must be written in the digits 0-9"
        with pytest.raises(ModelFormatError) as raised:
            load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))
        assert str(raised.value) == message

    def test_fractions_signs_and_decimals_still_load(self):
        points = [{"id": fp_id, "moment": [moment], "weights": [[1]]}
                  for fp_id, moment in zip("abcde", ["1/2", "-3", "0.5", "+4", "-6/4"])]
        m = load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))
        assert [fp.moment for fp in m.fixed_points] == [
            (Fraction(1, 2),), (Fraction(-3),), (Fraction(1, 2),), (Fraction(4),), (Fraction(-3, 2),)]

    def test_deeply_nested_file_is_model_error(self):
        # used to end in a RecursionError
        with pytest.raises(ModelFormatError, match="malformed JSON"):
            load_model(io.StringIO("[" * 100_000 + "]" * 100_000))

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="json reads integers of any length here")
    def test_oversized_integer_is_model_error(self):
        # used to be the interpreter's own ValueError
        big = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        with pytest.raises(ModelFormatError, match="malformed JSON"):
            load_model(io.StringIO(f'{{"rank": 1, "fixed_points": [{{"id": "a", "moment": [{big}], "weights": [[1]]}}]}}'))

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="Fraction() reads decimal literals of any length")
    @pytest.mark.parametrize("shape", ["1/{}", "-{}/3", "0.{}", "{}.5", "1e{}"])
    def test_moment_text_with_a_part_too_long_names_its_length(self, shape):
        # used to say "must be written in the digits 0-9" and quote every digit
        long = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        points = [{"id": "a", "moment": [shape.format(long)], "weights": [[1]]}]
        with pytest.raises(ModelFormatError) as raised:
            load_model(io.StringIO(json.dumps({"rank": 1, "fixed_points": points})))
        assert str(raised.value) == f"fixed point 'a': rational value '...' has {len(long)} digits, too many to read"

    def test_roots_not_negation_closed(self):
        bad = json.loads(json.dumps(self.GOOD))
        bad["roots"] = [[1], [1]]
        with pytest.raises(ModelFormatError, match="negation"):
            load_model(io.StringIO(json.dumps(bad)))


class TestStrictFixedPoint:
    """Library callers get the same integer checks as the file loader."""

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True, None])
    def test_non_integer_weight_entry_is_rejected(self, bad):
        with pytest.raises(ModelFormatError, match="fixed point 'a'"):
            FixedPoint("a", (1,), ((bad,),))

    def test_float_weight_is_not_truncated(self):
        with pytest.raises(ModelFormatError):
            FixedPoint("a", (1,), ((1.7,),))

    def test_weight_must_be_a_sequence(self):
        with pytest.raises(ModelFormatError):
            FixedPoint("a", (1,), (1,))

    def test_integer_weights_are_kept(self):
        assert FixedPoint("a", (1,), [[2], (-3,)]).weights == ((2,), (-3,))

    def test_tuple_subclass_weight_is_accepted_as_a_tuple(self):
        weights = FixedPoint("a", (1,), (_Vec((2,)), (3,))).weights
        assert weights == ((2,), (3,)) and {type(w) for w in weights} == {tuple}

    def test_weights_from_a_generator(self):
        assert FixedPoint("a", (1,), ([w] for w in (1, -1))).weights == ((1,), (-1,))

    @pytest.mark.parametrize("moment", [(1,), [Fraction(1, 2)], ("3/4",), (Fraction(2),)])
    def test_moment_is_a_fraction_tuple(self, moment):
        got = FixedPoint("a", moment, ((1,),)).moment
        assert type(got) is tuple and {type(m) for m in got} == {Fraction}
        assert got == tuple(Fraction(m) for m in moment)

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
    def test_float_or_bool_moment_entry_is_rejected(self, bad):
        # 0.1 used to be stored as its binary expansion, True as the moment 1
        with pytest.raises(ModelFormatError, match="float or boolean"):
            FixedPoint("a", (Fraction(0), bad), ((1, 0),))

    def test_zero_denominator_moment_is_model_error(self):
        # used to be a bare ZeroDivisionError ("1/0") or ValueError ("x",
        # "1/x"); only load_model mapped them
        digits = "must be written in the digits 0-9"
        for bad, reason in (("1/0", "zero denominator"), ("x", digits), ("1/x", digits)):
            with pytest.raises(ModelFormatError, match=f"fixed point 'a': .*{reason}"):
                FixedPoint("a", (bad,), ((1,),))

    @pytest.mark.parametrize("bad", [5, None, ("a",)])
    def test_non_string_id_is_rejected(self, bad):
        with pytest.raises(ModelFormatError, match="id must be a string"):
            FixedPoint(bad, (0,), ((1,),))

    def test_non_integer_root_is_rejected(self):
        point = FixedPoint("a", (0,), ((1,),))
        with pytest.raises(ModelFormatError):
            TorusModel(rank=1, fixed_points=(point,), roots=((1.5,), (-1.5,)), weyl_order=2)


class _Vec(tuple):
    """A tuple subclass; the per-weight check accepts it."""


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(-2, 2, allow_nan=False),
    st.text(max_size=2),
    st.fractions(max_denominator=3),
)
WEIGHTS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([tuple, list, _Vec]), st.lists(ENTRIES, max_size=3)).map(
            lambda pair: pair[0](pair[1])
        ),
        # not sequences of ints, though iterating some of them yields ints or nothing
        st.text(max_size=1),
        st.frozensets(st.integers(-2, 2), max_size=2),
        st.integers(-2, 2),
    ),
    max_size=4,
)


def per_weight_outcome(weights):
    """Result or error text of checking each weight through strict_int_vector,
    then checking that none is zero."""
    try:
        checked = tuple(strict_int_vector(w, "fixed point 'p': weight") for w in weights)
    except ModelFormatError as err:
        return str(err)
    if any(not any(w) for w in checked):
        return "fixed point 'p': zero tangent weight"
    return checked


def fixed_point_outcome(weights):
    try:
        return FixedPoint("p", (0,), weights).weights
    except ModelFormatError as err:
        return str(err)


@given(WEIGHTS)
def test_bulk_weight_check_matches_the_per_weight_check(weights):
    got = fixed_point_outcome(weights)
    assert got == per_weight_outcome(weights)
    if not isinstance(got, str):
        assert all(type(w) is tuple for w in got)


class TestStrictModelFields:
    """rank, weyl_order and global_stabilizer_order must be ints, as in files."""

    POINT = FixedPoint("a", (0,), ((1,),))

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True])
    def test_rank(self, bad):
        with pytest.raises(ModelFormatError, match="rank must be an integer"):
            TorusModel(bad, ())

    @pytest.mark.parametrize("bad", [2.0, 1.5, "2", True])
    def test_weyl_order(self, bad):
        with pytest.raises(ModelFormatError, match="weyl_order must be an integer"):
            TorusModel(1, (self.POINT,), roots=((1,), (-1,)), weyl_order=bad)

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True])
    def test_global_stabilizer_order(self, bad):
        with pytest.raises(ModelFormatError, match="global_stabilizer_order must be an integer"):
            TorusModel(1, (self.POINT,), global_stabilizer_order=bad)

    def test_integer_fields_are_accepted(self):
        model = TorusModel(1, (self.POINT,), roots=((1,), (-1,)), weyl_order=2,
                           global_stabilizer_order=3)
        assert (model.rank, model.weyl_order, model.global_stabilizer_order) == (1, 2, 3)


class TestSizeGuard:
    def test_largest_legal_sizes_pass(self):
        check_family_size("spheres", 2, 20)
        check_family_size("cp2", 3, 12)
        assert MAX_FIXED_POINTS >= 2**20

    def test_one_step_beyond_is_rejected(self):
        with pytest.raises(ModelTooLarge):
            check_family_size("spheres", 2, 21)
        with pytest.raises(ModelTooLarge):
            check_family_size("cp2", 3, 13)

    def test_huge_size_is_rejected_without_computing_the_count(self):
        with pytest.raises(ModelTooLarge):
            check_family_size("spheres", 2, 10**12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cap_is_exact_for_each_factor(self, k):
        largest = max(n for n in range(1, 64) if k**n <= MAX_FIXED_POINTS)
        check_family_size(f"cp{k - 1}", k, largest)
        with pytest.raises(ModelTooLarge, match=f"{k}\\^{largest + 1} fixed points"):
            check_family_size(f"cp{k - 1}", k, largest + 1)
        with pytest.raises(ModelTooLarge):
            check_family_size(f"cp{k - 1}", k, 10**12)
