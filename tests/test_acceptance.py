"""Acceptance suite: one test per acceptance criterion, each printing a
pass line on success.  All comparisons are exact rational equalities.

Run with `pytest tests/test_acceptance.py -rA -s` to see the per-criterion
report lines.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

from torusloc import (
    MultiPoly,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    evaluate_plan,
    lambda_flag,
    rank1_plan,
    weyl_correct,
)
from torusloc.closedforms import sphere_torus_pairing
from torusloc.plans import THETA1, THETA2
from torusloc.weighted import (
    fiber_integrate_power,
    weight_gcd,
    weighted_chern,
    weighted_segre,
)

from oracles.closedforms import (
    cp2_lambda_theta1,
    cp2_lambda_theta2,
    cp2_printed_summand,
    cp2_volume_from_lambda_forms,
    cp2_volume_monomials,
    cp2_volume_printed_double_sum,
    so3_pairing_binomial_form,
    so3_pairing_subset_form,
)
from oracles.convolution import uniform_sum_density_at_zero
from helpers import (
    all_v_monomials,
    constant_class,
    cp2_volume_class,
    monomial_class,
    point_sphere_product,
    sizes_of,
    truncate,
    v_monomial,
)
from test_weighted import random_space


def report(number, text):
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_1_sphere_volumes():
    for n in (3, 5, 7, 9):
        m = build_sphere_product(n)
        L = class_generator(m, "prequantum")
        pairing = evaluate_plan(m, rank1_plan(m, 0, 1), L ** (n - 1))
        assert pairing == sphere_torus_pairing(n), f"n={n}"
    assert sphere_torus_pairing(3) == 6
    report(1, "sphere pairings match the alternating binomial sum for n in {3,5,7,9}")


def test_criterion_2_independent_convolution_oracle():
    for n in (3, 5, 7, 9):
        m = build_sphere_product(n)
        L = class_generator(m, "prequantum")
        pairing = evaluate_plan(m, rank1_plan(m, 0, 1), L ** (n - 1))
        oracle = 2**n * factorial(n - 1) * uniform_sum_density_at_zero(n)
        assert pairing == oracle, f"n={n}"
    report(2, "pairings equal 2^n (n-1)! times the exact uniform-sum density at 0")


def test_criterion_3_so3_pairings_match_both_closed_forms():
    for n in (3, 5, 7):
        m = point_sphere_product(n)
        plan = rank1_plan(m, 0, 1)
        for exponents in all_v_monomials(n, n - 3):
            cls = weyl_correct(m, v_monomial(m, exponents))
            value = evaluate_plan(m, plan, cls)
            num_odd = sum(1 for l in exponents if l % 2)
            assert value == so3_pairing_subset_form(n, num_odd), (n, exponents)
            assert value == so3_pairing_binomial_form(n, num_odd), (n, exponents)
    # spot values worked out by hand
    m3 = point_sphere_product(3)
    assert evaluate_plan(
        m3, rank1_plan(m3, 0, 1), weyl_correct(m3, constant_class(m3, 1))
    ) == 1
    m5 = point_sphere_product(5)
    assert evaluate_plan(
        m5, rank1_plan(m5, 0, 1), weyl_correct(m5, v_monomial(m5, (2, 0, 0, 0, 0)))
    ) == -3
    report(3, "rotation-group pairings equal both closed forms for every monomial")


def test_criterion_4_kernel_classes_pair_to_zero():
    for n in (5, 7):
        m = point_sphere_product(n)
        plan = rank1_plan(m, 0, 1)
        fillers = list(all_v_monomials(n, n - 5))
        for i, j in itertools.combinations(range(1, n + 1), 2):
            vi = class_generator(m, "v", index=i)
            vj = class_generator(m, "v", index=j)
            kernel = vi**2 - vj**2
            for filler in fillers:
                cls = weyl_correct(m, kernel * v_monomial(m, filler))
                assert evaluate_plan(m, plan, cls) == 0, (n, i, j, filler)
    report(4, "v_i^2 - v_j^2 times every complementary monomial pairs to zero")


def test_criterion_5_path_independence_on_random_classes():
    for n in (3, 5, 7):
        m = point_sphere_product(n)
        forward = rank1_plan(m, 0, 1)
        backward = rank1_plan(m, 0, -1)
        rng = random.Random(42 + n)
        shapes = list(all_v_monomials(n, n - 1))
        for _ in range(50):
            cls = None
            for _ in range(rng.randrange(1, 4)):
                coefficient = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
                part = v_monomial(m, rng.choice(shapes)) * coefficient
                cls = part if cls is None else cls + part
            assert evaluate_plan(m, forward, cls) == evaluate_plan(m, backward, cls)
    report(5, "both path directions agree on 50 random classes for n in {3,5,7}")


def test_criterion_6_cp2_lambda_closed_forms():
    for n in range(1, 7):
        m = build_cp_product(3, n)
        representatives = {}
        for fp in m.fixed_points:
            representatives.setdefault(sizes_of(fp.id), fp.id)
        for sizes, fid in representatives.items():
            for j1 in range(2 * n - 1):
                j2 = 2 * n - 2 - j1
                cls = monomial_class(m, j1, j2)
                assert lambda_flag(m, fid, THETA1, cls) == cp2_lambda_theta1(
                    n, sizes, j1, j2
                ), (n, sizes, j1, j2)
                assert lambda_flag(m, fid, THETA2, cls) == cp2_lambda_theta2(
                    n, sizes, j1, j2
                ), (n, sizes, j1, j2)
    report(6, "flag evaluations match the closed forms (thresholds and zeros) for n <= 6")


CP2_NS = (4, 5, 7, 8)


def test_criterion_7_cp2_volume_closed_form_with_recorded_variant():
    """The printed double sum matches the "general" assignment once its
    misprinted power base 3i1+3i3-n is read as 3i1+3i3-2n (the coefficient
    forced by the summand's binomial-expansion structure); the display also
    omits the overall group-order factor 6(2n-8)!.  The finding, recorded
    here and in the README: the displayed general rule and its double sum
    are mutually consistent but are not a valid descent; the "swapped"
    assignment (the one the worked four-factor relation lists) and its
    coordinate mirror agree with each other and carry the geometric values.
    """
    for n in CP2_NS:
        model = build_cp_product(3, n)
        cls = cp2_volume_class(model)
        general = evaluate_plan(model, cp2_plan(n, "general"), cls)
        repaired = cp2_volume_printed_double_sum(n, repair_base=True)
        assert repaired == general * 6 * factorial(2 * n - 8), f"n={n}"
        # pointwise: every first-region summand equals the lambda composition
        third = Fraction(n, 3)
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
                assert cp2_printed_summand(n, i1, i3, repair_base=True) * (-1) ** (
                    i1 + 1
                ) == inner * 6 * factorial(2 * n - 8)
    # verbatim, the printed base matches no variant: pin the discrepancy
    assert cp2_volume_printed_double_sum(5) == 700
    assert cp2_volume_printed_double_sum(5, repair_base=True) == 0
    report(7, "printed double sum = 'general' variant (base repaired); finding recorded")


def test_criterion_7_mirror_consistency_of_valid_descents():
    for n in CP2_NS:
        model = build_cp_product(3, n)
        cls = cp2_volume_class(model)
        swapped = evaluate_plan(model, cp2_plan(n, "swapped"), cls)
        mirror = evaluate_plan(model, cp2_plan(n, "mirror"), cls)
        assert swapped == mirror, f"n={n}"
        assert swapped == cp2_volume_from_lambda_forms(n, "swapped"), f"n={n}"
        assert swapped > 0, f"n={n}: a volume must be positive"
    model = build_cp_product(3, 4)
    assert evaluate_plan(model, cp2_plan(4, "swapped"), cp2_volume_class(model)) == 1
    report(7, "swapped and mirror descents agree and give positive volumes (n=4 gives 1)")


def test_criterion_8_weighted_class_suite():
    rng = random.Random(777)
    for _ in range(100):
        v = random_space(rng)
        order = rng.randrange(7)
        series = weighted_segre(v, order)
        product = truncate(weighted_chern(v) * sum(series), order)
        assert product == MultiPoly.const(v.residual_count, 1)
    for _ in range(100):
        v = random_space(rng)
        r = v.rank
        c0 = weighted_chern(v).constant_term()
        top = fiber_integrate_power(v, r - 1)
        assert top == MultiPoly.const(v.residual_count, weight_gcd(v) / c0)
        for i in range(r - 1):
            assert fiber_integrate_power(v, i).is_zero()
    # weight-one spaces degenerate to the classical projective relation
    from torusloc.weighted import WeightedSpace, ring_relation

    for r in (1, 2, 3, 4):
        coeffs = ring_relation(WeightedSpace(tuple([(1, (0,))] * r), 1))
        assert coeffs[0] == MultiPoly.const(1, 1)
        assert all(c.is_zero() for c in coeffs[1:])
    report(8, "Segre-Chern identity, classical degeneration, and fiber integrals hold")


def test_criterion_9_degree_guard():
    for n in (3, 5, 7):
        m = build_sphere_product(n)
        plan = rank1_plan(m, 0, 1)
        L = class_generator(m, "prequantum")
        for degree in range(0, n + 2):
            if degree == n - 1:
                continue
            assert evaluate_plan(m, plan, L**degree) == 0, (n, degree)
    for n in (4, 5, 7):
        m = build_cp_product(3, n)
        plan = cp2_plan(n, "swapped")
        for j1, j2 in [(0, 0), (1, 0), (2 * n - 2, 1), (2 * n, 2 * n)]:
            assert evaluate_plan(m, plan, monomial_class(m, j1, j2)) == 0, (n, j1, j2)
    report(9, "off-degree pairings vanish identically across all models")
