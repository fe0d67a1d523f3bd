"""A small expression language for equivariant classes.

Grammar:

    expr     := ['-'] term (('+' | '-') term)*
    term     := [rational '*'] factor ('*' factor)*
    factor   := gen ['^' uint] | '(' expr ')' | 'weyl(' expr ')'
    gen      := 'L' | 'v' uint | 'line(' int (',' int)* ')'
    rational := int ['/' uint]

Integers are written in the ASCII digits 0-9, as on the command line;
any other digit is a syntax error at its position.  Exponents are
nonnegative and at most MAX_POWER; 'weyl' may appear at most once and
only as the outermost factor of the whole expression (a leading rational
scale is allowed).  Parentheses and 'weyl(' nest at most MAX_NESTING
deep.  Syntax errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from .errors import ClassSyntaxError
from .frozen import Frozen
from .model import EquivariantClass, TorusModel, class_generator
from .localization import weyl_correct

# What each grammar rule returns: the function from a model to the class
# the parsed text names there.
Evaluator = Callable[[TorusModel], EquivariantClass]

# The parser recurses once per level of '(' or 'weyl(', so deeper input is
# refused at the opening token instead of exhausting the interpreter stack.
MAX_NESTING = 100

# An exponent above this is refused at its position while parsing, before
# any arithmetic.  A pairing needs no power above the quotient's dimension (at
# most 22 on the built-in families), and the work grows with the exponent:
# L^2000 takes about 3 s on cp2:4, a rank-2 model with 15 distinct moments.
MAX_POWER = 2000

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_V_NAME = re.compile(r"v([0-9]+)")


class Token(Frozen):
    """One token of class text; kind is "int", "name", "op" or "end"."""

    _fields = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self._set(kind, text, line, column)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ClassSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        chunk = match.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.top_factors = 0  # factors outside every '(' and 'weyl('
        self.weyls: list[tuple[Token, int]] = []  # each 'weyl' token and its depth

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ClassSyntaxError(
                f"expected {op!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def fail(self, message: str):
        token = self.peek()
        raise ClassSyntaxError(message, token.line, token.column)

    @staticmethod
    def to_int(digits: str, token: Token) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter converts
            message = f"integer literal of {len(digits)} digits is too long"
            raise ClassSyntaxError(message, token.line, token.column) from None

    def parse_nested(self, opener: Token) -> Evaluator:
        """The parenthesized expression after ``opener``, '(' or 'weyl'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ClassSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", opener.line, opener.column
            )
        self.expect_op("(")
        inner = self.parse_expr()
        self.expect_op(")")
        self.depth -= 1
        return inner

    # grammar rules: each returns the evaluator of what it parsed ------

    def parse_expr(self) -> Evaluator:
        sign = 1
        if self.peek().kind == "op" and self.peek().text in "+-":
            sign = -1 if self.advance().text == "-" else 1
        terms = [(sign, self.parse_term())]
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = -1 if self.advance().text == "-" else 1
            terms.append((sign, self.parse_term()))

        def evaluate(model: TorusModel) -> EquivariantClass:
            total = None
            for sign, term in terms:
                value = term(model)
                if sign != 1:
                    value = value * sign
                total = value if total is None else total + value
            return total

        return evaluate

    def parse_term(self) -> Evaluator:
        # Start from the first factor rather than the unit class, and scale
        # only by a written coefficient other than 1: each skipped step is
        # one more operation at every point a pairing reads.
        scale = None
        if self.peek().kind == "int":
            scale = self.parse_rational()
            self.expect_op("*")
        factors = [self.parse_factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.parse_factor())
        first, rest = factors[0], factors[1:]

        def evaluate(model: TorusModel) -> EquivariantClass:
            value = first(model)
            for factor in rest:
                value = value * factor(model)
            return value if scale is None or scale == 1 else value * scale

        return evaluate

    def parse_rational(self) -> Fraction:
        num_token = self.advance()
        num = self.to_int(num_token.text, num_token)
        if self.peek().kind == "op" and self.peek().text == "/":
            self.advance()
            den_token = self.peek()
            if den_token.kind != "int":
                self.fail("expected a positive integer denominator")
            den = self.to_int(self.advance().text, den_token)
            if den == 0:
                raise ClassSyntaxError("zero denominator", den_token.line, den_token.column)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> Evaluator:
        token = self.peek()
        if self.depth == 0:
            self.top_factors += 1
        if token.kind == "op" and token.text == "(":
            return self.with_power(self.parse_nested(token))
        if token.kind != "name":
            self.fail(f"expected a generator, found {token.text or 'end of input'!r}")
        name = self.advance().text
        if name == "weyl":
            self.weyls.append((token, self.depth))
            inner = self.parse_nested(token)
            after = self.peek()
            if after.kind == "op" and after.text == "^":
                raise ClassSyntaxError("weyl(...) cannot carry a power", after.line, after.column)
            return lambda model: weyl_correct(model, inner(model))
        if name == "L":
            return self.with_power(lambda model: class_generator(model, "prequantum"))
        if name == "line":
            self.expect_op("(")
            direction = [self.parse_int()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                direction.append(self.parse_int())
            self.expect_op(")")
            direction = tuple(direction)
            return self.with_power(lambda model: class_generator(model, "line", direction=direction))
        match = _V_NAME.fullmatch(name)
        if match:
            index = self.to_int(match.group(1), token)
            return self.with_power(lambda model: class_generator(model, "v", index=index))
        raise ClassSyntaxError(f"unknown generator {name!r}", token.line, token.column)

    def parse_int(self) -> int:
        sign = 1
        token = self.peek()
        if token.kind == "op" and token.text in "+-":
            sign = -1 if self.advance().text == "-" else 1
            token = self.peek()
        if token.kind != "int":
            self.fail("expected an integer")
        return sign * self.to_int(self.advance().text, token)

    def with_power(self, base: Evaluator) -> Evaluator:
        """``base``, raised to the exponent that follows it, if one does."""
        if not (self.peek().kind == "op" and self.peek().text == "^"):
            return base
        self.advance()
        token = self.peek()
        if token.kind != "int":
            self.fail("exponents must be nonnegative integers")
        digits = token.text.lstrip("0")
        if len(digits) > len(str(MAX_POWER)) or int(digits or 0) > MAX_POWER:
            self.fail(f"exponents must be at most {MAX_POWER}")
        self.advance()
        power = int(digits or 0)
        return base if power == 1 else lambda model: base(model) ** power


def parse_class_expr(text: str) -> Evaluator:
    """Parse the expression language into its evaluator; raises
    ClassSyntaxError with position.

    A weyl(...) that is not the single factor of the single top-level
    term is reported, at the first such one in source order, only once the
    whole text has parsed, so any other syntax error wins.
    """
    parser = _Parser(text)
    evaluate = parser.parse_expr()
    token = parser.peek()
    if token.kind != "end":
        raise ClassSyntaxError(
            f"unexpected trailing input {token.text!r}", token.line, token.column
        )
    for token, depth in parser.weyls:
        if depth or parser.top_factors > 1:
            raise ClassSyntaxError(
                "weyl(...) must be the outermost factor", token.line, token.column
            )
    return evaluate


def names_factor_class(text: str) -> bool:
    """Whether class text names a factor class v<i>.  Such a class is
    invariant only under the permutations that fix i, so it needs the
    per-point model of a built-in family, not its orbit model."""
    return any(t.kind == "name" and _V_NAME.fullmatch(t.text) for t in tokenize(text))


def evaluate_expr(expr: Evaluator, model: TorusModel) -> EquivariantClass:
    """The class a parsed expression names on ``model``."""
    return expr(model)
