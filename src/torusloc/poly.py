"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in d variables is stored as integer numerators over one
denominator: a read-only mapping from exponent tuples (one nonnegative
integer per variable) to nonzero ``int`` numerators, and an ``int``
``den >= 1`` with gcd(den, *numerators) == 1:

    u1^2 * u2 + 3/2   ->   numerators {(2, 1): 2, (0, 0): 3}, den 2

The storage is canonical, so equal polynomials have equal numerators and
denominators, and equality and hashing look at ints only.  Exact
coefficients enter through the public constructor (and ``const``,
``linear_form`` and scalar ``*``) and leave through ``terms``, which
reads numerators[e] / den with integral values as ``int``.  Every kernel
runs on the numerators directly.  The public accessors ``constant_term``
and ``as_constant`` always return a ``Fraction``.

The zero polynomial has no numerators and den 1.  One exponent unit
corresponds to cohomological degree 2 (each variable u_i has degree 2),
so every degree computation below is in exponent units.

Values are immutable after construction and all operations are pure, so
they can be shared freely across threads or worker processes; they pickle
and copy through the internal constructor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, PlanFormatError, ZeroConstantTerm

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def _int_product(left: dict, right: dict) -> dict:
    """Product of two integer term dictionaries (zeros are not dropped)."""
    out: dict[Exponent, int] = {}
    get = out.get
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


def _affine_terms(constant: Scalar, coeffs: Sequence[Scalar]) -> dict:
    """Terms of constant + sum_i coeffs[i] * u_i, zeros dropped."""
    n = len(coeffs)
    terms = {(0,) * n: constant} if constant else {}
    for i, c in enumerate(coeffs):
        if c:
            terms[(0,) * i + (1,) + (0,) * (n - i - 1)] = c
    return terms


@lru_cache(maxsize=None)
def _units(n: int) -> dict:
    """The unit exponents of n variables in variable order, as the keys of
    a dict so that they compare as a set: one tuple per variable, shared
    by every linear form in n variables."""
    return dict.fromkeys((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def _linear_power(coeffs: Sequence[int], m: int) -> dict:
    """Integer terms of (sum_i coeffs[i] * u_i)^m for integer coefficients,
    not all zero, and m >= 1, by the multinomial theorem: prod_i u_i^j_i has
    coefficient m!/prod_i j_i! * prod_i a_i^j_i.  Each exponent tuple is
    built from its prefix, one variable at a time, and the multinomial as
    binomials C(rest, j_i), each from the one before it, with a_i^j_i from
    one power list; a zero a_i takes j_i = 0 only, and the last nonzero
    one the rest.  No term is zero.
    """
    last = max(i for i, a in enumerate(coeffs) if a)
    partial = [((), 1, m)]  # exponent prefix, coefficient, degree left
    for a in coeffs[:last]:
        if not a:
            partial = [(exp + (0,), c, rest) for exp, c, rest in partial]
            continue
        powers = list(accumulate(repeat(a, m), mul, initial=1))
        grown = []
        for exp, c, rest in partial:
            for j in range(rest + 1):  # c runs through c * C(rest, j)
                grown.append((exp + (j,), c * powers[j], rest - j))
                c = c * (rest - j) // (j + 1)
        partial = grown
    a, tail = coeffs[last], (0,) * (len(coeffs) - last - 1)
    return {exp + (rest,) + tail: c * a**rest for exp, c, rest in partial}


def check_exponent(n) -> None:
    """Raise ValueError unless n is a nonnegative ``int``, as every power
    does, of a polynomial or of a class, before it computes anything; a
    ``bool`` is not an exponent."""
    if type(n) is not int or n < 0:
        raise ValueError("exponent must be a nonnegative integer")


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables with exact coefficients.

    Stored as ``numerators`` (a read-only mapping of nonzero ``int`` values
    by exponent) over one ``int`` ``den >= 1``, reduced so that
    gcd(den, *numerators) == 1; two polynomials are equal exactly when
    their values are.  ``terms`` reads the coefficients back, and
    ``constant_term`` and ``as_constant`` return ``Fraction``.
    """

    __slots__ = ("nvars", "numerators", "den", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise DimensionMismatch(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if not (type(coeff) is int or isinstance(coeff, Fraction)):
                    raise TypeError(f"coefficient of {exp} must be an int or a Fraction, got {coeff!r}")
                clean[exp] = clean[exp] + coeff if exp in clean else coeff
        den = lcm(*(c.denominator for c in clean.values()))
        self._store(nvars, {e: c.numerator * (den // c.denominator) for e, c in clean.items()}, den)

    def _store(self, nvars: int, numerators: dict, den: int):
        """Set the canonical storage of numerators / den (den != 0): zeros
        dropped, den made positive and divided with the numerators by their
        common gcd, and the numerators held behind a read-only view."""
        numerators = {e: v for e, v in numerators.items() if v}
        if den != 1:
            g = gcd(den, *numerators.values())
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                numerators = {e: v // g for e, v in numerators.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "numerators", MappingProxyType(numerators))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _make(cls, nvars: int, numerators: dict, den: int = 1) -> "MultiPoly":
        """Internal constructor for integer numerators over a nonzero integer
        den, keyed by tuples of length nvars; zeros may be present."""
        obj = object.__new__(cls)
        obj._store(nvars, numerators, den)
        return obj

    def __reduce__(self):
        return (MultiPoly._make, (self.nvars, dict(self.numerators), self.den))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        for name, value in (("nvars", nvars), ("index", index)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> "MultiPoly":
        """The polynomial sum_i coeffs[i] * u_i; zero entries are checked too."""
        return cls(len(coeffs), dict(zip(_units(len(coeffs)), coeffs)))

    # ------------------------------------------------------------------
    # queries

    @property
    def terms(self) -> dict[Exponent, Scalar]:
        """The coefficients numerators[e] / den, integral ones as ``int``."""
        den = self.den
        if den == 1:
            return dict(self.numerators)
        out = {}
        for e, v in self.numerators.items():
            q, r = divmod(v, den)
            out[e] = Fraction(v, den) if r else q
        return out

    def is_zero(self) -> bool:
        return not self.numerators

    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get((0,) * self.nvars, 0), self.den)

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; raises if nonconstant terms exist."""
        if any(sum(exp) for exp in self.numerators):
            raise ValueError(f"polynomial is not constant: {self}")
        return self.constant_term()

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
        den = lcm(self.den, other.den)
        scale, other_scale = den // self.den, den // other.den
        out = {e: v * scale for e, v in self.numerators.items()}
        get = out.get
        for e, v in other.numerators.items():
            out[e] = get(e, 0) + v * other_scale
        return MultiPoly._make(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.nvars, {e: -v for e, v in self.numerators.items()}, self.den)

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
            return MultiPoly._make(
                self.nvars,
                {e: v * c.numerator for e, v in self.numerators.items()},
                self.den * c.denominator,
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._make(
            self.nvars, _int_product(self.numerators, other.numerators), self.den * other.den
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        """The n-th power on integer numerators over den^n, by repeated
        squaring.  A power of a linear form is kept factored (``Factored``)
        and expanded by the multinomial theorem instead."""
        check_exponent(n)
        base, den = self.numerators, self.den**n
        result = {(0,) * self.nvars: 1}
        while n:
            if n & 1:
                result = _int_product(result, base)
            if n > 1:
                base = _int_product(base, base)
            n >>= 1
        return MultiPoly._make(self.nvars, result, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.den == other.den
            and self.numerators == other.numerators
        )

    def __hash__(self):
        # Computed on first use and kept: grouping by restriction hashes the
        # same shared polynomial once per fixed point.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, self.den, frozenset(self.numerators.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self) -> bool:
        return bool(self.numerators)

    # ------------------------------------------------------------------
    # structure

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in canonical order: by total degree, then earlier variables first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(self.sorted_terms())!r})"


class Factored:
    """A rational constant times a product of powers of linear forms,
    scale * prod_i <form_i, u>^k_i, kept unexpanded.

    The fields are canonical: each form is a primitive ``int`` tuple whose
    first nonzero entry is positive, the (form, k) factors are sorted with
    the exponents of equal forms merged and every k >= 1, and zero is
    scale 0 with no factor.  Linear forms are irreducible, so equal values
    have equal fields, and equality and the hash read the fields only.  A
    Factored value never equals a MultiPoly; compare expansions.

    ``*`` with a Factored value, a constant, or a MultiPoly that is a
    linear form or a constant, and ``**`` give a Factored value; ``+``,
    ``-`` and ``*`` with any other polynomial expand it first.  ``poly``
    is the expansion, made on first read and kept, and ``terms``,
    ``numerators`` and ``den`` read it.
    """

    __slots__ = ("nvars", "scale", "factors", "_hash", "_poly")

    @classmethod
    def _make(cls, nvars: int, scale: Fraction, factors: tuple) -> "Factored":
        """Internal constructor for factors in canonical order; zero drops
        them.  The hash is taken here, as every value made on the pairing
        path is hashed: as a grouping key or as the input of a power."""
        if not scale:
            factors = ()
        obj = object.__new__(cls)
        setfield = object.__setattr__
        setfield(obj, "nvars", nvars)
        setfield(obj, "scale", scale)
        setfield(obj, "factors", factors)
        # scale as ints: Fraction's own hash runs in Python
        setfield(obj, "_hash", hash((nvars, scale.numerator, scale.denominator, factors)))
        return obj

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar], den: int = 1) -> "Factored":
        """sum_i coeffs[i] * u_i / den, for ``int`` or ``Fraction`` coefficients."""
        common = lcm(*[c.denominator for c in coeffs])
        ints = [c.numerator * (common // c.denominator) for c in coeffs]
        g = gcd(*ints)
        if not g:
            return cls._make(len(ints), Fraction(0), ())
        if next(filter(None, ints)) < 0:
            g = -g
        return cls._make(len(ints), Fraction(g, den * common), ((tuple([a // g for a in ints]), 1),))

    def __setattr__(self, name, value):
        raise AttributeError("Factored is immutable")

    def __reduce__(self):
        return (Factored._make, (self.nvars, self.scale, self.factors))

    @property
    def poly(self) -> MultiPoly:
        try:
            return self._poly
        except AttributeError:
            p = MultiPoly.const(self.nvars, self.scale)
            for form, k in self.factors:
                p = p * MultiPoly._make(self.nvars, _linear_power(form, k))
            object.__setattr__(self, "_poly", p)
            return p

    terms = property(lambda self: self.poly.terms)
    numerators = property(lambda self: self.poly.numerators)
    den = property(lambda self: self.poly.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Factored._make(self.nvars, self.scale * other, self.factors)
        if not isinstance(other, (MultiPoly, Factored)):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionMismatch(f"mixing polynomials in {self.nvars} and {other.nvars} variables")
        other = factored(other)
        if type(other) is MultiPoly:
            return self.poly * other
        merged = dict(self.factors)
        for form, k in other.factors:
            merged[form] = merged.get(form, 0) + k
        return Factored._make(self.nvars, self.scale * other.scale, tuple(sorted(merged.items())))

    def __rmul__(self, other):
        if isinstance(other, MultiPoly) and other.nvars != self.nvars:
            raise DimensionMismatch(f"mixing polynomials in {other.nvars} and {self.nvars} variables")
        return self * other

    def __pow__(self, n: int) -> "Factored":
        check_exponent(n)
        factors = tuple([(form, k * n) for form, k in self.factors]) if n else ()
        return Factored._make(self.nvars, self.scale**n, factors)

    def __add__(self, other):
        return self.poly + other

    def __radd__(self, other):
        return other + self.poly

    def __sub__(self, other):
        return self.poly - other

    def __rsub__(self, other):
        return other - self.poly

    def __eq__(self, other) -> bool:
        if type(other) is not Factored:
            return NotImplemented
        return (self.nvars, self.scale, self.factors) == (other.nvars, other.scale, other.factors)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"Factored({self.nvars}, {self.scale!r}, {self.factors!r})"


def factored(p):
    """p as a Factored value if it is one, a linear form or a constant;
    any other polynomial as it is."""
    if type(p) is not MultiPoly:
        return p
    numerators, units = p.numerators, _units(p.nvars)
    if numerators.keys() <= units.keys():
        return Factored.linear([numerators.get(e, 0) for e in units], p.den)
    if len(numerators) == 1 and not any(next(iter(numerators))):
        return Factored._make(p.nvars, p.constant_term(), ())
    return p


def _graded(numerators: dict, order: int) -> list[dict]:
    """The terms split by total exponent: element n holds those of exponent
    n, for n = 0..order; higher terms are dropped."""
    pieces: list[dict] = [{} for _ in range(order + 1)]
    for e, v in numerators.items():
        n = sum(e)
        if n <= order:
            pieces[n][e] = v
    return pieces


def affine_product(nvars: int, factors: Iterable[tuple[int, Sequence[int]]]) -> MultiPoly:
    """The product over (constant, coeffs) of constant + sum_i coeffs[i] * u_i.

    Constants and coefficients are integers, and so is every intermediate
    coefficient.
    """
    terms = {(0,) * nvars: 1}
    for constant, coeffs in factors:
        terms = _int_product(terms, _affine_terms(constant, coeffs))
    return MultiPoly._make(nvars, terms)


def _monomial_image(exp: Exponent, basis: Sequence[Sequence[int]]) -> tuple:
    """Integer (exponent, coefficient) pairs of the image of prod_j u_j^exp[j]
    under u_j -> sum_i basis[i][j] * u'_i, in descending order of exponent,
    so of the exponent of u'_0 first.

    Each power of a form is a multinomial expansion, so a deep monomial
    costs no recursion and no squaring; a tuple, so no holder of a table
    of images can alter one.
    """
    image = {(0,) * len(exp): 1}
    for form, e in zip(zip(*basis), exp):
        if e:
            image = _int_product(image, _linear_power(form, e) if any(form) else {})
    return tuple(sorted(image.items(), reverse=True))


def _int_substitute(numerators: dict, basis: Sequence[Sequence[int]], low: int, images: dict) -> dict:
    """Integer core of ``linear_substitute``: the nonzero integer terms of
    the image of integer terms under u_j -> sum_i basis[i][j] * u'_i.

    Image terms whose exponent of u'_0 is below ``low`` are skipped: a
    first flag stage of r lines folds them to 0, so ``lambda_flag`` passes
    r - 1, and ``linear_substitute`` passes 0.

    ``images`` maps an exponent to its ``_monomial_image`` under this
    basis; a missing one is computed and stored.  The caller owns the
    table: ``lambda_flag`` passes the flag's own, which lives as long as
    the flag and serves every key with that flag, and ``linear_substitute``
    a new dict per call.
    """
    floor = (low,) if basis else ()  # e < (low,) is e[0] < low; () has no u'_0
    out: dict[Exponent, int] = {}
    get = out.get
    for exp, coeff in numerators.items():
        image = images.get(exp)
        if image is None:
            image = images[exp] = _monomial_image(exp, basis)
        for e, v in image:
            if e < floor:
                break
            out[e] = get(e, 0) + coeff * v
    return {e: v for e, v in out.items() if v}


def linear_substitute(p: MultiPoly, basis: Sequence[Sequence[int]]) -> MultiPoly:
    """Substitute u_j by the linear form sum_i basis[i][j] * u'_i.

    This is the ring homomorphism induced by rewriting the torus in the
    basis of circle directions ``basis``; it distributes over sums and
    products by construction.  ``_int_substitute`` forms the image on the
    integer numerators.  A basis or basis row that is not a list or tuple,
    or an entry that is not an ``int`` (a float, string or boolean), raises
    PlanFormatError instead of being truncated.
    """
    d = p.nvars
    if not isinstance(basis, (list, tuple)) or any(
        not isinstance(xi, (list, tuple)) or any(type(a) is not int for a in xi) for xi in basis
    ):
        raise PlanFormatError(f"basis entries must be integers in list or tuple rows, got {basis!r}")
    if len(basis) != d or any(len(xi) != d for xi in basis):
        raise DimensionMismatch(f"basis must consist of {d} vectors of length {d}")
    return MultiPoly._make(d, _int_substitute(p.numerators, basis, 0, {}), p.den)


def series_invert(p: MultiPoly, order: int) -> list[MultiPoly]:
    """Multiplicative inverse of ``p`` modulo terms of total exponent > order,
    as its graded pieces: element n, for n = 0..order, is the homogeneous
    part of total exponent n.

    With denominators cleared, p = (c0 + c_1 + c_2 + ...) / D, c_k the
    integer part of total exponent k.  The inverse's pieces s_n have
    s_0 = D/c0 and c0 s_n = -sum_{k=1..n} c_k s_{n-k}; with
    s_n = t_n D / c0^(n+1) this is the integer recurrence
    t_n = -sum_k c0^(k-1) c_k t_{n-k}, t_0 = 1.
    """
    if type(order) is not int:
        raise ValueError(f"order must be an int, got {order!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    pieces = _graded(p.numerators, order)
    zero = (0,) * p.nvars
    c0 = pieces[0].get(zero, 0)
    if not c0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    t = [{zero: 1}]
    for n in range(1, order + 1):
        acc: dict[Exponent, int] = {}
        get = acc.get
        for k in range(1, n + 1):
            if pieces[k] and t[n - k]:
                scale = -(c0 ** (k - 1))
                for e, v in _int_product(pieces[k], t[n - k]).items():
                    acc[e] = get(e, 0) + v * scale
        t.append({e: v for e, v in acc.items() if v})
    return [
        MultiPoly._make(p.nvars, {e: v * p.den for e, v in piece.items()}, c0 ** (n + 1))
        for n, piece in enumerate(t)
    ]


def poly_str(p: MultiPoly) -> str:
    """Render a polynomial in canonical monomial order, in the variables
    u1..ud (plain ``u`` when there is one variable)."""
    names = ["u"] if p.nvars == 1 else [f"u{i + 1}" for i in range(p.nvars)]
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
    return join_terms(parts)


def join_terms(parts: list[str]) -> str:
    """Rendered terms written as their sum, a term's leading '-' as a
    subtraction; "0" for no terms."""
    if not parts:
        return "0"
    signed = (f" - {part[1:]}" if part.startswith("-") else f" + {part}" for part in parts[1:])
    return parts[0] + "".join(signed)
