"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in d variables is stored as a dictionary mapping exponent
tuples (one nonnegative integer per variable) to nonzero Fraction
coefficients:

    u1^2 * u2 + 3/2   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

Zero coefficients are never stored; the zero polynomial has an empty term
dictionary.  One exponent unit corresponds to cohomological degree 2 (each
variable u_i has degree 2), so every degree computation below is in
exponent units.

Values are immutable after construction and all operations are pure, so
they can be shared freely across threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .errors import DimensionMismatch, ZeroConstantTerm

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class MultiPoly:
    """A sparse polynomial with Fraction coefficients in ``nvars`` variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise DimensionMismatch(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = Fraction(coeff)
                if c:
                    clean[exp] = clean.get(exp, Fraction(0)) + c
                    if not clean[exp]:
                        del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _make(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Internal constructor for terms already in canonical shape
        (tuple keys of the right length, Fraction values); only drops zeros."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "terms", {e: c for e, c in terms.items() if c})
        return obj

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> "MultiPoly":
        """The polynomial sum_i coeffs[i] * u_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exp = [0] * n
                exp[i] = 1
                terms[tuple(exp)] = Fraction(c)
        return cls._make(n, terms)

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; raises if nonconstant terms exist."""
        if any(sum(exp) for exp in self.terms):
            raise ValueError(f"polynomial is not constant: {self}")
        return self.constant_term()

    def total_degree(self) -> int:
        """Maximal total exponent present, or -1 for the zero polynomial."""
        return max((sum(exp) for exp in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(exp) for exp in self.terms}
        return len(degrees) <= 1

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise DimensionMismatch(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, _ZERO) + c
        return MultiPoly._make(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly._make(self.nvars, {e: v * c for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, _ZERO) + c1 * c2
        return MultiPoly._make(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # Computed on first use and kept: grouping by restriction hashes the
        # same shared polynomial once per fixed point.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # structure

    def truncate(self, order: int) -> "MultiPoly":
        """Drop all terms of total exponent greater than ``order``."""
        return MultiPoly._make(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order: by total degree, then earlier variables first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(self.sorted_terms())!r})"


def homogeneous_part(p: MultiPoly, e: int) -> MultiPoly:
    """The sum of terms of ``p`` with total exponent exactly ``e``."""
    return MultiPoly._make(p.nvars, {exp: c for exp, c in p.terms.items() if sum(exp) == e})


@lru_cache(maxsize=4096)
def _linear_form_power(coeffs: tuple[int, ...], e: int) -> MultiPoly:
    return MultiPoly.linear_form(coeffs) ** e


def linear_substitute(p: MultiPoly, basis: Sequence[Sequence[int]]) -> MultiPoly:
    """Substitute u_j by the linear form sum_i basis[i][j] * u'_i.

    This is the ring homomorphism induced by rewriting the torus in the
    basis of circle directions ``basis``; it distributes over sums and
    products by construction.
    """
    d = p.nvars
    if len(basis) != d or any(len(xi) != d for xi in basis):
        raise DimensionMismatch(f"basis must consist of {d} vectors of length {d}")
    image_coeffs = [tuple(int(basis[i][j]) for i in range(d)) for j in range(d)]
    out = MultiPoly.zero(d)
    for exp, coeff in p.terms.items():
        term = MultiPoly.const(d, coeff)
        for j, e in enumerate(exp):
            if e:
                term = term * _linear_form_power(image_coeffs[j], e)
        out = out + term
    return out


@dataclass(frozen=True)
class TruncSeries:
    """A polynomial together with the order through which it is trusted.

    All terms of total exponent greater than ``order`` have been dropped.
    """

    body: MultiPoly
    order: int

    def __post_init__(self):
        if self.body.total_degree() > self.order:
            raise ValueError("series body exceeds its truncation order")

    def piece(self, e: int) -> MultiPoly:
        """Graded piece of total exponent ``e`` (zero above the order)."""
        if e > self.order:
            raise ValueError(f"piece {e} beyond truncation order {self.order}")
        return homogeneous_part(self.body, e)


def series_invert(p: MultiPoly, order: int) -> TruncSeries:
    """Multiplicative inverse of ``p`` modulo terms of total exponent > order.

    Writing p = c0 * (1 + m) with m of positive valuation, the inverse is
    (1/c0) * sum_i (-m)^i, which terminates at i = order after truncation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = p.constant_term()
    if not c0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    m = ((p - c0) * (1 / c0)).truncate(order)
    acc = MultiPoly.const(p.nvars, 1)
    power = MultiPoly.const(p.nvars, 1)
    for _ in range(order):
        power = (power * (-m)).truncate(order)
        if power.is_zero():
            break
        acc = acc + power
    return TruncSeries((acc * (1 / c0)).truncate(order), order)


def poly_str(p: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Render a polynomial in canonical monomial order.

    Variables default to u1..ud (plain ``u`` when there is one variable).
    """
    if names is None:
        names = ["u"] if p.nvars == 1 else [f"u{i + 1}" for i in range(p.nvars)]
    if p.is_zero():
        return "0"
    parts = []
    for exp, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            text = str(coeff)
        elif coeff == 1:
            text = mono
        elif coeff == -1:
            text = f"-{mono}"
        else:
            text = f"{coeff}*{mono}"
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out
