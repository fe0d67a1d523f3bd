from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import INT_DIGIT_LIMIT, constant_class, line_column, misplaced_weyl, point_sphere_product, render_expr
from torusloc import (
    ClassSyntaxError,
    MultiPoly,
    build_cp_product,
    build_sphere_product,
    class_generator,
    weyl_correct,
)
from torusloc.expr import MAX_NESTING, MAX_POWER, evaluate_expr, parse_class_expr


def evaluate(text, model):
    return evaluate_expr(parse_class_expr(text), model)


class TestParsing:
    def test_simple_power(self):
        m = build_sphere_product(3)
        assert evaluate("L^2", m) == class_generator(m, "prequantum") ** 2

    def test_scaled_monomial(self):
        m = point_sphere_product(3)
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
        m = point_sphere_product(3)
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


class TestAsciiDigits:
    """Integers are written in 0-9 only: the tokenizer's \\d took any Unicode
    digit, so "L^\u0662" was L^2 and "\u0663*L" was 3*L."""

    @pytest.mark.parametrize("text, column", [
        ("L^\u0662", 3),
        ("\u0663*L", 1),
        ("L^\uff12", 3),
        ("line(\u0661,0)", 6),
        ("L + v\u0661", 6),
    ], ids=["arabic-power", "arabic-coefficient", "fullwidth-power", "arabic-line", "arabic-v"])
    def test_other_digits_are_refused_at_their_column(self, text, column):
        with pytest.raises(ClassSyntaxError, match="unexpected character") as err:
            parse_class_expr(text)
        assert (err.value.line, err.value.column) == (1, column)


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


class TestPowerLimit:
    """Exponents above MAX_POWER are refused at their position while parsing;
    nothing here evaluates a power above the limit."""

    def test_power_at_the_limit_parses(self):
        for text in (f"L^{MAX_POWER}", f"(v1 + L)^{MAX_POWER}", f"v2^00{MAX_POWER}"):
            parse_class_expr(text)

    def test_leading_zeros_keep_their_value(self):
        m = point_sphere_product(3)
        assert evaluate("L^0002", m) == evaluate("L^2", m)
        assert evaluate("v1^000", m) == constant_class(m, 1)

    @pytest.mark.parametrize(
        "text, column",
        [
            (f"L^{MAX_POWER + 1}", 3),
            ("L^99999999999", 3),
            ("L^" + "9" * 5000, 3),
            (f"v1 + (L*v2)^{MAX_POWER + 1}", 13),
            (f"line(1)^{10 * MAX_POWER}", 9),
            (f"L^2*v3^0{MAX_POWER + 1}", 8),
        ],
    )
    def test_power_past_the_limit_fails_at_its_position(self, text, column):
        with pytest.raises(ClassSyntaxError, match=f"at most {MAX_POWER}") as err:
            parse_class_expr(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_an_earlier_syntax_error_wins(self):
        with pytest.raises(ClassSyntaxError, match="unknown generator") as err:
            parse_class_expr(f"w^2 + L^{MAX_POWER + 1}")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_any_number_of_leading_zeros_keeps_the_value(self):
        m = build_sphere_product(3)
        assert evaluate("L^" + "0" * 5000 + "2", m) == evaluate("L^2", m)


LONG = "9" * (INT_DIGIT_LIMIT + 1)


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts literals of any length here")
class TestLongIntegerLiterals:
    """A literal longer than int() converts is a syntax error at its token."""

    @pytest.mark.parametrize(
        "text, line, column",
        [
            (f"{LONG}*L^2", 1, 1),
            (f"L +\n {LONG}*L", 2, 2),
            (f"1/{LONG}*L^2", 1, 3),
            (f"L + line({LONG})", 1, 10),
            (f"line(1, -{LONG})", 1, 10),
            (f"v{LONG}", 1, 1),
            (f"v1 * v{LONG}^2", 1, 6),
        ],
        ids=["coefficient", "second-line", "denominator", "line", "negative-line", "v", "v-power"],
    )
    def test_refused_at_its_position(self, text, line, column):
        with pytest.raises(ClassSyntaxError, match="too long") as err:
            parse_class_expr(text)
        assert (err.value.line, err.value.column) == (line, column)


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
        m = build_cp_product(3, 2) if text.startswith("line") else point_sphere_product(3)
        L = class_generator(m, "prequantum")
        v = lambda i: class_generator(m, "v", index=i)
        assert evaluate(text, m) == self.EXPECTED[text](L, v, m)


class TestSyntaxErrorsWinOverPlacement:
    """A misplaced weyl(...) is reported only once the whole text parses."""

    @pytest.mark.parametrize("text, message, line, column", [
        ("L*weyl(L) + @", "unexpected character", 1, 13),
        ("weyl(L) )", "trailing input", 1, 9),
        ("weyl(L)*L^", "exponents", 1, 11),
        ("L + weyl(weyl(L)^2)", "cannot carry a power", 1, 17),
    ])
    def test_syntax_error_is_reported(self, text, message, line, column):
        with pytest.raises(ClassSyntaxError, match=message) as err:
            parse_class_expr(text)
        assert (err.value.line, err.value.column) == (line, column)


# ----------------------------------------------------------------------
# properties: random expression trees, rendered as text and parsed


SPHERES3 = point_sphere_product(3)
CP2_2 = build_cp_product(3, 2)

powers = st.one_of(st.none(), st.integers(0, 2))
coefficients = st.one_of(st.none(), st.tuples(st.integers(0, 6), st.one_of(st.none(), st.integers(1, 4))))


def generator(text, kind, index=None, direction=None):
    return powers.map(lambda power: ("gen", text, power, kind, index, direction))


sphere_generators = st.one_of(
    generator("L", "prequantum"), *(generator(f"v{i}", "v", index=i) for i in (1, 2, 3))
)
cp2_generators = st.one_of(
    generator("L", "prequantum"),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).flatmap(
        lambda d: generator(f"line({d[0]},{d[1]})", "line", direction=d)
    ),
)


def sums_of(factors):
    terms = st.tuples(coefficients, st.lists(factors, min_size=1, max_size=3).map(tuple))
    rest = st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=2)
    return st.tuples(st.sampled_from(["", "-", "+"]), terms, rest).map(
        lambda t: ((t[0], t[1]), *t[2])
    )


def expressions(generators, weyl=False):
    def extend(inner):
        factors = st.one_of(generators, st.tuples(st.just("group"), inner, powers))
        if weyl:
            factors = st.one_of(factors, st.tuples(st.just("weyl"), inner))
        return sums_of(factors)

    return st.recursive(sums_of(generators), extend, max_leaves=6)


separators = st.sampled_from(["", " ", "\n  "])


def expected_class(expr, m):
    """The class of an expression tree, built with class_generator and
    class arithmetic."""
    total = constant_class(m, 0)
    for op, (coefficient, factors) in expr:
        value = constant_class(m, 1)
        for factor in factors:
            if factor[0] == "gen":
                _, _, power, kind, index, direction = factor
                part = class_generator(m, kind, index=index, direction=direction)
            elif factor[0] == "group":
                _, inner, power = factor
                part = expected_class(inner, m)
            else:
                part, power = weyl_correct(m, expected_class(factor[1], m)), None
            value = value * (part if power is None else part**power)
        if coefficient is not None:
            num, den = coefficient
            value = value * Fraction(num, den or 1)
        total = total - value if op == "-" else total + value
    return total


class TestRandomExpressions:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            expressions(sphere_generators).map(lambda e: (SPHERES3, e)),
            expressions(cp2_generators).map(lambda e: (CP2_2, e)),
        ),
        separators,
    )
    def test_text_evaluates_to_the_tree_class(self, case, sep):
        m, expr = case
        text, _ = render_expr(expr, sep)
        assert evaluate(text, m) == expected_class(expr, m)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.sampled_from(["", "-"]), coefficients, expressions(sphere_generators, weyl=True))
            .map(lambda t: ((t[0], (t[1], (("weyl", t[2]),))),)),
            expressions(sphere_generators, weyl=True),
        ),
        separators,
    )
    def test_weyl_placement_matches_the_rule(self, expr, sep):
        text, weyls = render_expr(expr, sep)
        index = misplaced_weyl(expr)
        if index is None:
            assert evaluate(text, SPHERES3) == expected_class(expr, SPHERES3)
        else:
            with pytest.raises(ClassSyntaxError, match="outermost") as err:
                parse_class_expr(text)
            assert (err.value.line, err.value.column) == line_column(text, weyls[index])
