from fractions import Fraction

import pytest

from torusloc import (
    ClassSyntaxError,
    MultiPoly,
    build_cp_product,
    build_sphere_product,
    class_generator,
    weyl_correct,
)
from torusloc.expr import MAX_NESTING, evaluate_expr, parse_class_expr


def evaluate(text, model):
    return evaluate_expr(parse_class_expr(text), model)


class TestParsing:
    def test_simple_power(self):
        m = build_sphere_product(3)
        assert evaluate("L^2", m) == class_generator(m, "prequantum") ** 2

    def test_scaled_monomial(self):
        m = build_sphere_product(3)
        expected = (
            class_generator(m, "v", index=1) ** 2
            * class_generator(m, "v", index=2)
            * Fraction(1, 2)
        )
        assert evaluate("1/2*v1^2*v2", m) == expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("v1^-1")

    def test_sums_and_parens(self):
        m = build_sphere_product(3)
        left = evaluate("(v1 + v2)^2", m)
        right = evaluate("v1^2 + 2*v1*v2 + v2^2", m)
        assert left == right

    def test_leading_minus(self):
        m = build_sphere_product(3)
        assert evaluate("-L + L", m).at("f{}").is_zero()

    def test_line_generator(self):
        m = build_cp_product(3, 1)
        cls = evaluate("line(1,-2)", m)
        assert cls.at("F{}|{}|{1}") == MultiPoly(2, {(1, 0): 1, (0, 1): -2})

    def test_error_position(self):
        with pytest.raises(ClassSyntaxError) as err:
            parse_class_expr("L^2 + @")
        assert err.value.line == 1
        assert err.value.column == 7

    def test_unknown_generator(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("L * q3")

    def test_trailing_garbage(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("L^2 )")

    def test_zero_denominator(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("1/0*L")


class TestWeylPlacement:
    def test_outermost_accepted(self):
        m = build_sphere_product(3)
        from torusloc import weyl_correct

        expected = weyl_correct(m, class_generator(m, "prequantum") ** 2)
        assert evaluate("weyl(L^2)", m) == expected

    def test_scaled_weyl_accepted(self):
        m = build_sphere_product(3)
        parse_class_expr("1/2*weyl(L^2)")

    def test_weyl_inside_product_rejected(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("L*weyl(L)")

    def test_weyl_inside_sum_rejected(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("weyl(L) + L")

    def test_nested_weyl_rejected(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("weyl(weyl(L))")

    def test_weyl_power_rejected(self):
        with pytest.raises(ClassSyntaxError):
            parse_class_expr("weyl(L)^2")

    @pytest.mark.parametrize("text, line, column", [
        ("L*weyl(L)", 1, 3),
        ("weyl(L) + L", 1, 1),
        ("weyl(weyl(L))", 1, 6),
        ("(weyl(L))", 1, 2),
        ("2*(L + weyl(L))^2", 1, 8),
        ("weyl(L*(L + weyl(L)))", 1, 13),
        ("L +\n  weyl(L)", 2, 3),
        ("weyl(L)*weyl(L)", 1, 1),
        ("(L)*(v1 - weyl(L))", 1, 11),
    ])
    def test_misplaced_weyl_is_reported_at_its_position(self, text, line, column):
        with pytest.raises(ClassSyntaxError, match="outermost") as err:
            parse_class_expr(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text", ["1/2*weyl(L^2)", "weyl((L + v1)^2)", "-weyl(L)"])
    def test_outermost_forms_accepted(self, text):
        parse_class_expr(text)


class TestNestingLimit:
    def test_depth_at_the_limit_parses(self):
        m = build_sphere_product(3)
        text = "(" * MAX_NESTING + "L" + ")" * MAX_NESTING
        assert evaluate(text, m) == class_generator(m, "prequantum")
        inner = MAX_NESTING - 1
        assert evaluate("weyl(" + "(" * inner + "L" + ")" * inner + ")", m) == evaluate("weyl(L)", m)

    def test_sibling_groups_do_not_add_up(self):
        m = build_sphere_product(3)
        text = " + ".join(["((L))"] * (MAX_NESTING + 1))
        assert evaluate(text, m) == class_generator(m, "prequantum") * (MAX_NESTING + 1)

    def test_parenthesis_past_the_limit_fails_at_its_position(self):
        depth = MAX_NESTING + 1
        with pytest.raises(ClassSyntaxError, match="nesting") as err:
            parse_class_expr("(" * depth + "L" + ")" * depth)
        assert (err.value.line, err.value.column) == (1, depth)

    def test_weyl_past_the_limit_fails_at_its_position(self):
        outer = MAX_NESTING
        with pytest.raises(ClassSyntaxError, match="nesting") as err:
            parse_class_expr("L*\n" + "(" * outer + "weyl(L)" + ")" * outer)
        assert (err.value.line, err.value.column) == (2, outer + 1)


class TestCanonicalInputs:
    """Each input evaluates to the class built directly from the generators."""

    EXPECTED = {
        "L^2": lambda L, v, m: L**2,
        "1/2*v1^2*v2": lambda L, v, m: v(1) ** 2 * v(2) * Fraction(1, 2),
        "v1 + v2": lambda L, v, m: v(1) + v(2),
        "L - v3": lambda L, v, m: L - v(3),
        "-2*L": lambda L, v, m: L * -2,
        "3*(v1 + v2)^2*L": lambda L, v, m: (v(1) + v(2)) ** 2 * L * 3,
        "weyl(L^2 + v1*v2)": lambda L, v, m: weyl_correct(m, L**2 + v(1) * v(2)),
        "line(1,-2)^3": lambda L, v, m: class_generator(m, "line", direction=(1, -2)) ** 3,
        "5*L*(v1 - v2)": lambda L, v, m: L * (v(1) - v(2)) * 5,
    }

    @pytest.mark.parametrize("text", list(EXPECTED))
    def test_parses_and_evaluates(self, text):
        m = build_cp_product(3, 2) if text.startswith("line") else build_sphere_product(3)
        L = class_generator(m, "prequantum")
        v = lambda i: class_generator(m, "v", index=i)
        assert evaluate(text, m) == self.EXPECTED[text](L, v, m)
