import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    FixedPoint,
    ModelTooLarge,
    NotRegular,
    OrientedFlag,
    Plan,
    PlanTerm,
    TorusLocError,
    TorusModel,
    Unsupported,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    load_model,
    rank1_plan,
    wall_list,
)
from torusloc.plans import THETA1, THETA2

from oracles.closedforms import (
    cp2_lambda_theta1,
    cp2_printed_summand,
    cp2_volume_from_lambda_forms,
    cp2_volume_monomials,
    cp2_volume_printed_double_sum,
)
from oracles.convolution import uniform_sum_density_at_zero
from helpers import (
    all_v_monomials,
    cp2_volume_class,
    point_cp2_plan,
    point_sphere_product,
    ref_cp2_plan,
    ref_rank1_plan,
    ref_wall_entries,
    sizes_of,
    v_monomial,
)


class TestWallList:
    def test_sphere_walls(self):
        m = point_sphere_product(3)
        walls = wall_list(m, (1,))
        assert [value for value, _ in walls] == [Fraction(v) for v in (-3, -1, 1, 3)]
        sizes = [len(ids) for _, ids in walls]
        assert sizes == [1, 3, 3, 1]

    @pytest.mark.parametrize("xi", [(0.5,), (1.0,), (True,), ("1",), [Fraction(1)]])
    def test_non_int_direction_is_rejected(self, xi):
        # wall_list(m, (0.5,)) used to return float walls such as -1.5
        with pytest.raises(Unsupported, match="direction must be a list of integers"):
            wall_list(build_sphere_product(3), xi)

    def test_cp_direction(self):
        m = build_cp_product(3, 2)
        walls = wall_list(m, (1, 0))
        assert [value for value, _ in walls] == [Fraction(v) for v in (-4, -1, 2)]

    @pytest.mark.parametrize("model, xi", [(build_sphere_product(3), (0,)), (build_cp_product(3, 2), [0, 0])])
    def test_zero_direction_is_refused(self, model, xi):
        # it used to put every point on one wall at 0
        with pytest.raises(Unsupported, match="^direction must be nonzero$"):
            wall_list(model, xi)


# A rank-2 model file whose moment strings repeat across points, some
# written differently for the same value.
REPEATED_MOMENTS = {
    "rank": 2,
    "fixed_points": [
        {"id": f"q{i}", "moment": moment, "weights": [[1, 0], [0, 1]]}
        for i, moment in enumerate(
            [["1/2", "0"], ["-1", "3/4"], ["1/2", "0"], ["2/4", 0], ["-1", "3/4"], [1, "-3/2"], ["1/2", "0"]]
        )
    ],
}


@pytest.mark.parametrize(
    "model, xi",
    [
        (build_sphere_product(6), (1,)),
        (build_sphere_product(6), (-3,)),
        (build_cp_product(3, 4), (1, 0)),
        (build_cp_product(3, 4), (2, -1)),
        (build_cp_product(3, 4), (1, 1)),
        (build_sphere_product(7), (1,)),
        (build_cp_product(3, 5), (1, 0)),
        (build_cp_product(3, 5), (0, 1)),
        (load_model(io.StringIO(json.dumps(REPEATED_MOMENTS))), (1, 0)),
        (load_model(io.StringIO(json.dumps(REPEATED_MOMENTS))), (2, -4)),
    ],
)
def test_wall_list_matches_per_point_sums(model, xi):
    entries = wall_list(model, xi)
    assert entries == ref_wall_entries(model, xi)
    assert all(type(value) is Fraction for value, _ in entries)


class TestRank1Plan:
    def test_positive_direction_from_origin(self):
        m = point_sphere_product(3)
        plan = rank1_plan(m, 0, 1)
        assert len(plan) == 4
        assert {t.fixed_point_id for t in plan.terms} == {"f{}", "f{1}", "f{2}", "f{3}"}
        assert all(t.flag == OrientedFlag(((1,),)) and t.coefficient == 1 for t in plan.terms)

    def test_outside_image_is_empty(self):
        m = build_sphere_product(3)
        assert len(rank1_plan(m, 4, 1)) == 0

    def test_wall_value_rejected(self):
        m = build_sphere_product(3)
        with pytest.raises(NotRegular):
            rank1_plan(m, 1, 1)

    def test_requires_rank_one(self):
        with pytest.raises(Unsupported):
            rank1_plan(build_cp_product(3, 2), 0, 1)

    @pytest.mark.parametrize("p0", [0.1, 0.5, True, "1/2", None])
    def test_base_point_must_be_int_or_fraction(self, p0):
        # rank1_plan(m, 0.1, 1) used to plan at the binary value of 0.1
        with pytest.raises(TorusLocError, match="base point must be an int or a Fraction"):
            rank1_plan(build_sphere_product(3), p0, 1)

    @pytest.mark.parametrize("direction", [1.0, True, "1", None])
    def test_direction_must_be_an_int(self, direction):
        # rank1_plan(m, 0, 1.0) used to fail inside OrientedFlag, naming a flag
        with pytest.raises(TorusLocError, match="direction must be an integer"):
            rank1_plan(build_sphere_product(3), 0, direction)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_builder_models_match_per_point_reference(self, n):
        m = point_sphere_product(n)
        for p0 in (Fraction(1, 2), Fraction(-5, 3), n - 1):
            for direction in (1, -1):
                expected = ref_rank1_plan(m, p0, direction)
                assert [vars(t) for t in rank1_plan(m, p0, direction).terms] == [
                    vars(t) for t in expected.terms
                ]

    def test_telescoping_between_walls(self):
        # no wall in (2, 4) for n = 4, so plans from any base point agree
        m = build_sphere_product(4)
        L = class_generator(m, "prequantum")
        plan_a = rank1_plan(m, Fraction(5, 2), 1)
        plan_b = rank1_plan(m, Fraction(7, 2), 1)
        assert set(plan_a.terms) == set(plan_b.terms)
        assert evaluate_plan(m, plan_a, L**3) == evaluate_plan(m, plan_b, L**3)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_path_independence_on_random_classes(self, n):
        m = point_sphere_product(n)
        forward = rank1_plan(m, 0, 1)
        backward = rank1_plan(m, 0, -1)
        rng = random.Random(1000 + n)
        shapes = list(all_v_monomials(n, n - 1))
        for _ in range(50):
            cls = None
            for _ in range(3):
                exponents = rng.choice(shapes)
                coefficient = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                part = v_monomial(m, exponents) * coefficient
                cls = part if cls is None else cls + part
            assert evaluate_plan(m, forward, cls) == evaluate_plan(m, backward, cls)


# Moment values from a small range so that points repeat them; each point
# gets its own Fraction object, and p0 is sometimes one of the values.
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(RATIONALS, min_size=1, max_size=12),
    st.one_of(RATIONALS, st.integers(-4, 4)),
    st.sampled_from((1, -1)),
)
def test_rank1_plan_matches_per_point_reference(values, p0, direction):
    model = TorusModel(
        rank=1,
        fixed_points=[FixedPoint(f"p{i}", (v,), ((1,), (-1,))) for i, v in enumerate(values)],
    )
    try:
        expected = ref_rank1_plan(model, p0, direction)
    except NotRegular as err:
        with pytest.raises(NotRegular, match=str(err)):
            rank1_plan(model, p0, direction)
    else:
        assert rank1_plan(model, p0, direction).terms == expected.terms


class TestUniformSumDensity:
    def test_small_values(self):
        assert uniform_sum_density_at_zero(1) == Fraction(1, 2)
        assert uniform_sum_density_at_zero(2) == Fraction(1, 2)
        assert uniform_sum_density_at_zero(3) == Fraction(3, 8)

    def test_even_orders_have_known_peaks(self):
        # direct integration for n = 4: density is the cubic B-spline peak
        assert uniform_sum_density_at_zero(4) == Fraction(1, 3)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_oracle_matches_pairing(self, n):
        m = build_sphere_product(n)
        L = class_generator(m, "prequantum")
        pairing = evaluate_plan(m, rank1_plan(m, 0, 1), L ** (n - 1))
        assert pairing == 2**n * factorial(n - 1) * uniform_sum_density_at_zero(n)


class TestCp2Plan:
    def test_multiple_of_three_rejected(self):
        with pytest.raises(NotRegular):
            cp2_plan(6, "swapped")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            cp2_plan(4, "bogus")

    @pytest.mark.parametrize("variant", ["general", "swapped", "mirror"])
    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_matches_the_partition_reference(self, n, variant):
        # vars compares each term's fields in order, as the checked
        # constructor sets them
        expected = ref_cp2_plan(n, variant)
        assert [vars(t) for t in point_cp2_plan(n, variant).terms] == [vars(t) for t in expected.terms]

    def test_oversized_plan_is_refused(self):
        with pytest.raises(ModelTooLarge):
            cp2_plan(1400, "swapped")

    def test_n4_general_composition_classes(self):
        plan = point_cp2_plan(4, "general")
        by_flag = Counter((sizes_of(t.fixed_point_id), t.flag) for t in plan.terms)
        assert by_flag[((2, 0, 2), THETA1)] == 6
        assert by_flag[((4, 0, 0), THETA2)] == 1
        assert by_flag[((3, 1, 0), THETA2)] == 4
        assert by_flag[((3, 0, 1), THETA2)] == 4
        assert by_flag[((2, 1, 1), THETA2)] == 12
        assert sum(by_flag.values()) == 27
        assert all(t.coefficient == 1 for t in plan.terms)

    def test_n5_general_first_region_classes(self):
        plan = cp2_plan(5, "general")
        first = {sizes_of(t.fixed_point_id) for t in plan.terms if t.flag == THETA1}
        assert first == {(2, 1, 2), (2, 0, 3), (3, 0, 2)}

    def test_swapped_swaps_flags(self):
        general = cp2_plan(4, "general")
        swapped = cp2_plan(4, "swapped")
        swap = {THETA1: THETA2, THETA2: THETA1}
        remapped = Counter((t.fixed_point_id, swap[t.flag]) for t in general.terms)
        assert remapped == Counter((t.fixed_point_id, t.flag) for t in swapped.terms)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8])
    def test_mirror_is_the_coordinate_swap_of_swapped(self, n):
        # F{A}|{B}|{C} -> F{B}|{A}|{C}, and each flag stage's two
        # coordinates swapped
        def swap(term):
            a, b, c = term.fixed_point_id[1:].split("|")
            stages = tuple(stage[::-1] for stage in term.flag.stages)
            return term.coefficient, f"F{b}|{a}|{c}", stages

        image = Counter(map(swap, point_cp2_plan(n, "swapped").terms))
        mirror = Counter(
            (t.coefficient, t.fixed_point_id, t.flag.stages) for t in point_cp2_plan(n, "mirror").terms
        )
        assert image == mirror

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_vertex_permutations_keep_the_pairings(self, n):
        # Permuting the factor's vertices e_1, e_2, e_3 = 0 is the lattice
        # automorphism L with L(e_i - e_j) = e_s(i) - e_s(j): weights, roots
        # and moments map by L, flag stages by L^(-T), and a point's groups
        # move to the permuted vertices.  Each image of the swapped and
        # mirror plans is a descent of the same pairings.
        model = build_cp_product(3, n)
        classes = [cp2_volume_class]
        if n != 8:  # the torus pairing of L^(2n-2) is checked up to n = 7
            classes.append(lambda m: class_generator(m, "prequantum") ** (2 * n - 2))
        expected = [evaluate_plan(model, cp2_plan(model, "swapped"), make(model)) for make in classes]
        e = ((1, 0), (0, 1), (0, 0))
        for s in itertools.permutations(range(3)):
            (a, b), (c, d) = (tuple(x - y for x, y in zip(e[s[j]], e[s[2]])) for j in (0, 1))
            L = lambda v: (a * v[0] + c * v[1], b * v[0] + d * v[1])
            det = a * d - b * c
            inverse_transpose = lambda v: (det * (d * v[0] - b * v[1]), det * (a * v[1] - c * v[0]))

            def regroup(fp_id):
                groups = fp_id[2:-1].split("}|{")
                return "F{" + "}|{".join(groups[s.index(j)] for j in range(3)) + "}"

            image = TorusModel(2, [FixedPoint(regroup(fp.id), L(fp.moment), tuple(map(L, fp.weights)))
                                   for fp in model.fixed_points],
                               roots=tuple(map(L, model.roots)), weyl_order=6, orbit_sizes=model.orbit_sizes)
            for variant in ("swapped", "mirror"):
                plan = Plan(tuple(
                    PlanTerm(t.coefficient, regroup(t.fixed_point_id),
                             OrientedFlag(tuple(map(inverse_transpose, t.flag.stages))))
                    for t in cp2_plan(model, variant).terms
                ))
                values = [evaluate_plan(image, plan, make(image)) for make in classes]
                assert values == expected, (s, variant)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_mirror_consistency_of_valid_descents(self, n):
        # the swapped assignment and its coordinate-swapped image are two
        # different descents of the same pairing and must agree
        model = build_cp_product(3, n)
        cls = cp2_volume_class(model)
        swapped = evaluate_plan(model, cp2_plan(n, "swapped"), cls)
        mirror = evaluate_plan(model, cp2_plan(n, "mirror"), cls)
        assert swapped == mirror

    def test_n4_swapped_value_is_the_frame_orbit_count(self):
        # four generic points of the plane form a single free orbit of the
        # projective group, so the zero-dimensional quotient has volume 1
        model = build_cp_product(3, 4)
        cls = cp2_volume_class(model)
        assert evaluate_plan(model, cp2_plan(4, "swapped"), cls) == 1

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_engine_matches_lambda_closed_forms(self, n):
        model = build_cp_product(3, n)
        cls = cp2_volume_class(model)
        for variant in ("general", "swapped"):
            engine = evaluate_plan(model, cp2_plan(n, variant), cls)
            assert engine == cp2_volume_from_lambda_forms(n, variant)


class TestPrintedVolumeFormula:
    """Pins down the recorded finding on the printed double-sum formula.

    Verbatim, the printed formula matches no plan variant (its power base
    reads 3i1+3i3-n where the binomial-expansion structure of the summand
    forces 3i1+3i3-2n).  With the base repaired it computes the same value
    as the "general" assignment, and its first-region summand agrees
    pointwise with the composed lambda closed forms up to the overall
    group-order factor 6 the display drops.
    """

    def test_verbatim_values_are_pinned(self):
        assert cp2_volume_printed_double_sum(4) == 0
        assert cp2_volume_printed_double_sum(5) == 700

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_repaired_formula_matches_general_variant(self, n):
        model = build_cp_product(3, n)
        cls = cp2_volume_class(model)
        general = evaluate_plan(model, cp2_plan(n, "general"), cls)
        repaired = cp2_volume_printed_double_sum(n, repair_base=True)
        assert repaired == general * 6 * factorial(2 * n - 8)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_repaired_first_region_summand_matches_lambda_forms(self, n):
        third = Fraction(n, 3)
        checked = 0
        for i1 in range(n + 1):
            for i3 in range(n + 1 - i1):
                if not (i1 > third and i3 > third):
                    continue
                sizes = (i1, n - i1 - i3, i3)
                inner = sum(
                    (
                        c * cp2_lambda_theta1(n, sizes, j1, j2)
                        for j1, j2, c in cp2_volume_monomials(n, sizes)
                    ),
                    Fraction(0),
                )
                summand = cp2_printed_summand(n, i1, i3, repair_base=True)
                assert summand * (-1) ** (i1 + 1) == inner * 6 * factorial(2 * n - 8)
                checked += 1
        assert checked > 0
