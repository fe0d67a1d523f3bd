"""The orbit models of the built-in families against their per-point
expansions, and the sizes only the orbit models reach.

The builders return one representative per group-size vector with its
orbit size; expand_orbits lists every point of the product.  Every class
the pair and volume commands build on a family is invariant under
permuting the factors, so both models must give identical values.
"""

import io
import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusloc.model as model_module
import torusloc.plans as plans_module
from torusloc import (
    FixedPoint,
    ModelFormatError,
    ModelTooLarge,
    NotRegular,
    TorusModel,
    Unsupported,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    expand_orbits,
    load_model,
    rank1_plan,
    volume_class,
)
from torusloc.closedforms import sphere_torus_pairing
from torusloc.model import MAX_FIXED_POINTS, check_orbit_size
from torusloc.plans import CP2_VARIANTS

from oracles.closedforms import cp2_volume_from_lambda_forms
from helpers import (
    cp2_volume_class,
    point_cp2_plan,
    point_cp_product,
    point_sphere_product,
    ref_build_sphere_product,
    v_monomial,
)


def sizes_by_point(model: TorusModel, k: int) -> dict[str, tuple[int, ...]]:
    """The group sizes of each point of a per-point product, read from its
    weights: factor i sits at the vertex whose weight block it carries."""
    blocks = [((1,),), ((-1,),)] if k == 2 else model_module.cp_vertex_weights(k)
    width = len(blocks[0])
    out = {}
    for fp in model.fixed_points:
        vertices = [blocks.index(fp.weights[i : i + width]) for i in range(0, len(fp.weights), width)]
        out[fp.id] = tuple(vertices.count(j) for j in range(k))
    return out


class TestOrbitModel:
    @pytest.mark.parametrize("k, n", [(k, n) for k in (2, 3, 4) for n in range(1, 7)])
    def test_representatives_are_the_first_points_of_their_orbits(self, k, n):
        orbits = build_sphere_product(n) if k == 2 else build_cp_product(k, n)
        points = point_sphere_product(n) if k == 2 else point_cp_product(k, n)
        sizes = sizes_by_point(points, k)
        first: dict[tuple, FixedPoint] = {}
        for fp in points.fixed_points:
            first.setdefault(sizes[fp.id], fp)
        assert [fp.id for fp in orbits.fixed_points] == [fp.id for fp in first.values()]
        for rep, fp in zip(orbits.fixed_points, first.values()):
            assert (rep.moment, rep.weights, rep.sorted_weights) == (fp.moment, fp.weights, fp.sorted_weights)
        counts = Counter(sizes.values())
        assert list(orbits.orbit_sizes) == [counts[sizes[fp.id]] for fp in first.values()]
        assert len(orbits.fixed_points) == comb(n + k - 1, k - 1)
        assert sum(orbits.orbit_sizes) == k**n
        assert (orbits.rank, orbits.roots, orbits.weyl_order, orbits.family) == (
            points.rank, points.roots, points.weyl_order, points.family)

    def test_representative_ids(self):
        assert build_sphere_product(5).fixed_points[3].id == "f{3,4,5}"
        assert build_sphere_product(5).orbit_sizes == (1, 5, 10, 10, 5, 1)
        cp = build_cp_product(3, 4)
        assert cp.fixed_point("F{1,2}|{3}|{4}").moment == (Fraction(-2), Fraction(1))
        assert cp.orbit_sizes[cp.fixed_points.index(cp.fixed_point("F{1,2}|{3}|{4}"))] == 12

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 4), (4, 3)])
    def test_expansion_passes_the_checks_it_skips(self, k, n):
        # expand_orbits builds its model without scanning the points again;
        # the checking constructor takes the same fields and keeps them
        expanded = expand_orbits(build_sphere_product(n) if k == 2 else build_cp_product(k, n))
        fields = expanded._values()
        checked = TorusModel(*fields)
        assert checked._values() == fields

    def test_loaded_and_expanded_models_have_orbit_size_one(self):
        model = load_model(io.StringIO(json.dumps(
            {"rank": 1, "fixed_points": [{"id": "a", "moment": [1], "weights": [[1]]}]}
        )))
        assert model.orbit_sizes == (1,) and not model.has_orbits
        assert expand_orbits(model) is model
        points = point_sphere_product(4)
        assert set(points.orbit_sizes) == {1} and not points.has_orbits

    @pytest.mark.parametrize("sizes", [(1,), (1, 0), (1, 2.0), (1, True), (1, -2)])
    def test_orbit_sizes_are_one_positive_int_per_point(self, sizes):
        points = (FixedPoint("a", (0,), ((1,),)), FixedPoint("b", (1,), ((1,),)))
        with pytest.raises(ModelFormatError, match="orbit_sizes"):
            TorusModel(1, points, orbit_sizes=sizes)

    def test_v_class_needs_the_per_point_model(self):
        # v1 is invariant only under the permutations fixing factor 1
        with pytest.raises(Unsupported, match="expand_orbits"):
            class_generator(build_sphere_product(3), "v", index=1)
        assert class_generator(point_sphere_product(3), "v", index=1).at("f{1}").terms == {(1,): -1}


class TestOrbitSizeGuard:
    def test_largest_legal_sizes_pass(self):
        check_orbit_size("spheres", 2, 1023)
        check_orbit_size("cp2", 3, 127)

    def test_one_step_beyond_is_rejected(self):
        with pytest.raises(ModelTooLarge, match="1025 orbit types of fixed points with 1024 factors"):
            check_orbit_size("spheres", 2, 1024)
        with pytest.raises(ModelTooLarge, match=str(MAX_FIXED_POINTS)):
            check_orbit_size("cp2", 3, 128)

    @pytest.mark.parametrize("build", [lambda: build_sphere_product(2000), lambda: build_cp_product(3, 1400),
                                       lambda: cp2_plan(1400, "swapped"), lambda: build_cp_product(4, 10**12)])
    def test_refused_before_a_point_is_made(self, monkeypatch, build):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was made")

        monkeypatch.setattr(model_module, "FixedPoint", refuse)
        monkeypatch.setattr(model_module, "orbit_types", refuse)
        with pytest.raises(ModelTooLarge):
            build()

    def test_expansion_keeps_the_per_point_limit(self):
        with pytest.raises(ModelTooLarge, match="2\\^21 fixed points"):
            expand_orbits(build_sphere_product(21))
        with pytest.raises(ModelTooLarge, match="3\\^13 fixed points"):
            expand_orbits(build_cp_product(3, 13))


class TestRecipesOnEitherModel:
    """A recipe is a rule on a point's moment, so it runs on the orbit
    model, its expansion, or (for cp2_plan) the int n alone."""

    @pytest.mark.parametrize("variant", CP2_VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8, 10, 13, 20, 25, 40])
    def test_cp2_plan_of_the_orbit_model_equals_the_plan_of_n(self, n, variant):
        by_model = cp2_plan(build_cp_product(3, n), variant)
        assert [vars(t) for t in by_model.terms] == [vars(t) for t in cp2_plan(n, variant).terms]

    @pytest.mark.parametrize("n", range(1, 61))
    def test_moment_regions_equal_the_size_predicates(self, n):
        # region A: i1 > n/3 and i3 > n/3; region B: i2 < n/3 and i3 < n/3;
        # mirror reads them with i1 and i2 swapped
        third = Fraction(n, 3)
        for variant in CP2_VARIANTS:
            if n % 3 == 0:
                with pytest.raises(NotRegular):
                    cp2_plan(n, variant)
                continue
            flag_a, flag_b, mirrored = plans_module._CP2_RECIPE[variant]
            expected = []
            for sizes, groups, orbit_size in model_module.orbit_types(n, 3):
                i1, i2, i3 = sizes
                if mirrored:
                    i1, i2 = i2, i1
                if i1 > third and i3 > third:
                    expected.append((orbit_size, model_module.cp_label_id(groups), flag_a))
                elif i2 < third and i3 < third:
                    expected.append((orbit_size, model_module.cp_label_id(groups), flag_b))
            plan = cp2_plan(n, variant)
            assert [(t.coefficient, t.fixed_point_id, t.flag) for t in plan.terms] == expected

    @pytest.mark.parametrize("model", [
        pytest.param(build_sphere_product(4), id="spheres"),
        pytest.param(build_cp_product(4, 2), id="cp3"),
        pytest.param(load_model(io.StringIO(json.dumps({"rank": 2, "fixed_points": [
            {"id": "a", "moment": [1, 1], "weights": [[1, 0], [0, 1]]}]}))), id="loaded"),
    ])
    def test_cp2_plan_refuses_other_models(self, model):
        with pytest.raises(Unsupported, match="build_cp_product"):
            cp2_plan(model, "swapped")

    @pytest.mark.parametrize("source", [4.0, True, "4"])
    def test_cp2_plan_source_must_be_a_model_or_an_int(self, source):
        with pytest.raises(Unsupported, match="cp2_plan source"):
            cp2_plan(source, "swapped")


# ----------------------------------------------------------------------
# equal values, orbit model against per-point expansion


@pytest.mark.parametrize("variant", CP2_VARIANTS)
@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_cp2_orbit_values_equal_the_per_point_values(n, variant):
    orbits, points = build_cp_product(3, n), point_cp_product(3, n)
    orbit_plan, point_plan = cp2_plan(n, variant), point_cp2_plan(n, variant)
    assert len(point_plan) == sum(t.coefficient for t in orbit_plan.terms)
    for make in (cp2_volume_class, lambda m: class_generator(m, "prequantum") ** (2 * n - 2)):
        assert evaluate_plan(orbits, orbit_plan, make(orbits)) == evaluate_plan(points, point_plan, make(points))


@pytest.mark.parametrize("n", range(1, 14))
def test_sphere_orbit_volumes_equal_the_per_point_volumes(n):
    orbits, points, ref = build_sphere_product(n), point_sphere_product(n), ref_build_sphere_product(n)
    for p0 in (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)):
        orbit_cls, m = volume_class(orbits, "torus", (p0,))
        point_cls, _ = volume_class(points, "torus", (p0,))
        for direction in (1, -1):
            try:
                expected = evaluate_plan(points, rank1_plan(points, p0, direction), point_cls)
            except NotRegular:
                with pytest.raises(NotRegular):
                    rank1_plan(orbits, p0, direction)
                continue
            orbit_plan = rank1_plan(orbits, p0, direction)
            assert evaluate_plan(orbits, orbit_plan, orbit_cls) == expected, (p0, direction)
            assert rank1_plan(points, p0, direction) == rank1_plan(ref, p0, direction)


# ----------------------------------------------------------------------
# sizes beyond the per-point limit, against the closed forms


@pytest.mark.parametrize("variant", ["swapped", "mirror"])
@pytest.mark.parametrize("n", [10, 13, 20, 25])
def test_large_cp2_volumes_match_the_lambda_closed_forms(n, variant):
    model = build_cp_product(3, n)
    assert evaluate_plan(model, cp2_plan(n, variant), cp2_volume_class(model)) == (
        cp2_volume_from_lambda_forms(n, "swapped")
    )


@pytest.mark.parametrize("n", [21, 99, 201])
def test_large_sphere_pairings_match_the_binomial_sum(n):
    model = build_sphere_product(n)
    L = class_generator(model, "prequantum")
    assert evaluate_plan(model, rank1_plan(model, 0, 1), L ** (n - 1)) == sphere_torus_pairing(n)
    cls, m = volume_class(model, "torus")
    assert evaluate_plan(model, rank1_plan(model, 0, -1), cls) / factorial(m) == Fraction(
        sphere_torus_pairing(n), factorial(n - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.integers(0, n - 1), max_size=n - 1),
    st.integers(-n, n).map(lambda k: Fraction(2 * k + 1, 2)),
    st.sampled_from([1, -1]),
)))
def test_factor_permutations_relabel_points_and_v_classes(case):
    # Permuting the factors of spheres:n by s sends the point f{I} to f{s(I)},
    # with factor i's weight moved to place s(i), and v<i> to v<s(i)>.  The
    # expansion is closed under it, so the pairing of a v monomial times
    # L^(n-1-degree) over a path plan is the pairing of its image.
    s, factors, p0, direction = case
    n = len(s)
    model = point_sphere_product(n)

    def relabel(fp_id):
        subset = [s[int(i) - 1] + 1 for i in fp_id[2:-1].split(",") if i]
        return "f{" + ",".join(map(str, sorted(subset))) + "}"

    image = {(relabel(fp.id), fp.moment, tuple(fp.weights[s.index(j)] for j in range(n)))
             for fp in model.fixed_points}
    assert image == {(fp.id, fp.moment, fp.weights) for fp in model.fixed_points}
    exponents = [factors.count(i) for i in range(n)]
    permuted = [exponents[s.index(j)] for j in range(n)]
    plan = rank1_plan(model, p0, direction)
    L = class_generator(model, "prequantum") ** (n - 1 - len(factors))
    assert evaluate_plan(model, plan, v_monomial(model, permuted) * L) == evaluate_plan(
        model, plan, v_monomial(model, exponents) * L)
