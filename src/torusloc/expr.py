"""A small expression language for equivariant classes.

Grammar:

    expr     := ['-'] term (('+' | '-') term)*
    term     := [rational '*'] factor ('*' factor)*
    factor   := gen ['^' uint] | '(' expr ')' | 'weyl(' expr ')'
    gen      := 'L' | 'v' uint | 'line(' int (',' int)* ')'
    rational := int ['/' uint]

Exponents are nonnegative; 'weyl' may appear at most once and only as the
outermost factor of the whole expression (a leading rational scale is
allowed).  Parentheses and 'weyl(' nest at most MAX_NESTING deep.  Syntax
errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ClassSyntaxError
from .model import EquivariantClass, TorusModel, class_generator
from .localization import weyl_correct

# The parser recurses once per level of '(' or 'weyl(', so deeper input is
# refused at the opening token instead of exhausting the interpreter stack.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    line: int
    column: int


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


# ----------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Gen:
    kind: str  # "L", "v", "line"
    index: int | None = None
    direction: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Factor:
    base: Union[Gen, "Expr", "Weyl"]
    power: int = 1


@dataclass(frozen=True)
class Weyl:
    inner: "Expr"
    line: int = 1
    column: int = 1


@dataclass(frozen=True)
class Term:
    coefficient: Fraction | None
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class Expr:
    signs: tuple[int, ...]
    terms: tuple[Term, ...]


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def parse_nested(self, opener: Token) -> Expr:
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

    # grammar rules ----------------------------------------------------

    def parse_expr(self) -> Expr:
        signs = []
        terms = []
        sign = 1
        if self.peek().kind == "op" and self.peek().text in "+-":
            sign = -1 if self.advance().text == "-" else 1
        signs.append(sign)
        terms.append(self.parse_term())
        while self.peek().kind == "op" and self.peek().text in "+-":
            signs.append(-1 if self.advance().text == "-" else 1)
            terms.append(self.parse_term())
        return Expr(tuple(signs), tuple(terms))

    def parse_term(self) -> Term:
        coefficient = None
        if self.peek().kind == "int":
            coefficient = self.parse_rational()
            self.expect_op("*")
        factors = [self.parse_factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.parse_factor())
        return Term(coefficient, tuple(factors))

    def parse_rational(self) -> Fraction:
        num = int(self.advance().text)
        if self.peek().kind == "op" and self.peek().text == "/":
            self.advance()
            den_token = self.peek()
            if den_token.kind != "int":
                self.fail("expected a positive integer denominator")
            den = int(self.advance().text)
            if den == 0:
                raise ClassSyntaxError("zero denominator", den_token.line, den_token.column)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> Factor:
        token = self.peek()
        if token.kind == "op" and token.text == "(":
            return Factor(self.parse_nested(token), self.parse_power())
        if token.kind != "name":
            self.fail(f"expected a generator, found {token.text or 'end of input'!r}")
        name = self.advance().text
        if name == "weyl":
            inner = self.parse_nested(token)
            after = self.peek()
            if after.kind == "op" and after.text == "^":
                raise ClassSyntaxError("weyl(...) cannot carry a power", after.line, after.column)
            return Factor(Weyl(inner, token.line, token.column))
        if name == "L":
            return Factor(Gen("L"), self.parse_power())
        if name == "line":
            self.expect_op("(")
            direction = [self.parse_int()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                direction.append(self.parse_int())
            self.expect_op(")")
            return Factor(Gen("line", direction=tuple(direction)), self.parse_power())
        match = re.fullmatch(r"v(\d+)", name)
        if match:
            return Factor(Gen("v", index=int(match.group(1))), self.parse_power())
        raise ClassSyntaxError(f"unknown generator {name!r}", token.line, token.column)

    def parse_int(self) -> int:
        sign = 1
        token = self.peek()
        if token.kind == "op" and token.text in "+-":
            sign = -1 if self.advance().text == "-" else 1
            token = self.peek()
        if token.kind != "int":
            self.fail("expected an integer")
        return sign * int(self.advance().text)

    def parse_power(self) -> int:
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "int":
                self.fail("exponents must be nonnegative integers")
            return int(self.advance().text)
        return 1


def _check_weyl(expr: Expr, outermost: bool):
    """Raise at the first weyl(...) that is not the single factor of the
    single term of the whole expression."""
    for term in expr.terms:
        for factor in term.factors:
            base = factor.base
            if isinstance(base, Weyl):
                if not (outermost and len(expr.terms) == 1 and len(term.factors) == 1):
                    raise ClassSyntaxError(
                        "weyl(...) must be the outermost factor", base.line, base.column
                    )
                _check_weyl(base.inner, False)
            elif isinstance(base, Expr):
                _check_weyl(base, False)


def parse_class_expr(text: str) -> Expr:
    """Parse the expression language; raises ClassSyntaxError with position."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    token = parser.peek()
    if token.kind != "end":
        raise ClassSyntaxError(
            f"unexpected trailing input {token.text!r}", token.line, token.column
        )
    _check_weyl(expr, outermost=True)
    return expr


# ----------------------------------------------------------------------
# evaluation


def evaluate_expr(expr: Expr, model: TorusModel) -> EquivariantClass:
    total = None
    for sign, term in zip(expr.signs, expr.terms):
        value = _evaluate_term(term, model)
        if sign != 1:
            value = value * sign
        total = value if total is None else total + value
    return total


def _evaluate_term(term: Term, model: TorusModel) -> EquivariantClass:
    # Start from the first factor rather than the unit class, and scale
    # only by a written coefficient other than 1: each skipped step is a
    # pass over every restriction.
    value = None
    for factor in term.factors:
        base = factor.base
        if isinstance(base, Gen):
            if base.kind == "L":
                part = class_generator(model, "prequantum")
            elif base.kind == "v":
                part = class_generator(model, "v", index=base.index)
            else:
                part = class_generator(model, "line", direction=base.direction)
        elif isinstance(base, Weyl):
            part = weyl_correct(model, evaluate_expr(base.inner, model))
        else:
            part = evaluate_expr(base, model)
        if factor.power != 1:
            part = part**factor.power
        value = part if value is None else value * part
    if term.coefficient is not None and term.coefficient != 1:
        value = value * term.coefficient
    return value
