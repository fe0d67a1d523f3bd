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
from itertools import accumulate, compress, repeat
from math import comb, gcd, lcm
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


# A pairing reads one table per degree of its class power: one in each
# benchmark workload.  The bound keeps a long session that raises forms
# to many degrees from keeping every table, each of C(m + s - 1, s - 1)
# terms for degree m and s variables.
@lru_cache(maxsize=64)
def _power_table(nvars: int, support: tuple, m: int) -> tuple:
    """The terms of (sum of u_i over the nonempty increasing index tuple
    ``support``)^m in nvars variables, as three tuples: the exponents j,
    with sum m on the support and 0 elsewhere; their multinomials
    m!/prod_i j_i!; and the columns of the exponents, j_i over the terms
    for each variable i.

    The multinomials are built as binomials C(rest, j_i) over the support
    in turn; the last index takes the rest.  Each exponent tuple is built
    once, by extending its prefix with the zeros of the skipped variables
    and j_i.  Every power of a linear form with this support and degree
    reads one table and shares its tuples.
    """
    *lead, last = support
    partial = [((), 1, m)]
    done = 0  # exponent positions the prefixes fill
    for i in lead:
        pad = (0,) * (i - done)
        partial = [(exp + pad + (j,), c * comb(rest, j), rest - j)
                   for exp, c, rest in partial for j in range(rest + 1)]
        done = i + 1
    pad, tail = (0,) * (last - done), (0,) * (nvars - last - 1)
    exps = tuple(exp + pad + (rest,) + tail for exp, _, rest in partial)
    return exps, tuple(c for _, c, _ in partial), tuple(zip(*exps))


def _linear_power(coeffs: Sequence[int], m: int) -> dict:
    """Integer terms of (sum_i coeffs[i] * u_i)^m for integer coefficients,
    not all zero, and m >= 1, by the multinomial theorem: prod_i u_i^j_i has
    coefficient m!/prod_i j_i! * prod_i a_i^j_i.  A single nonzero
    coefficient a_i gives the one term a_i^m u_i^m.  Otherwise the exponents,
    multinomials and exponent columns come from ``_power_table`` for the
    nonzero coefficients, and each a_i^j_i from one power list
    a_i^0..a_i^m, a column at a time.  No term is zero.
    """
    n = len(coeffs)
    support = tuple(compress(range(n), coeffs))
    if len(support) == 1:  # one term, with no multinomial to share
        i = support[0]
        return {(0,) * i + (m,) + (0,) * (n - i - 1): coeffs[i] ** m}
    exps, values, columns = _power_table(n, support, m)
    for a, column in zip(coeffs, columns):
        if a:
            powers = list(accumulate(repeat(a, m), mul, initial=1))
            values = map(mul, values, map(powers.__getitem__, column))
    return dict(zip(exps, values))


def check_exponent(n) -> None:
    """Raise ValueError unless n is a nonnegative ``int``, as every power
    does, of a polynomial or of a class, before it computes anything."""
    if not isinstance(n, int) or n < 0:
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

    @classmethod
    def _canonical(cls, nvars: int, numerators: dict, den: int) -> "MultiPoly":
        """Internal constructor for storage already canonical: no zero
        numerator, den >= 1 and gcd(den, *numerators) == 1.  The callers
        (``linear_form`` and the power of a linear form) prove it."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "numerators", MappingProxyType(numerators))
        object.__setattr__(obj, "den", den)
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
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> "MultiPoly":
        """The polynomial sum_i coeffs[i] * u_i; zero entries are checked too.

        Entries that are all ``int`` or ``Fraction`` are stored directly, in
        canonical form: den is the lcm of their denominators, each nonzero
        entry a/q has numerator a * (den // q), and zero entries are left
        out.  Then gcd(den, *numerators) == 1: a prime p dividing den
        divides, to the full power it has in den, the denominator q of
        some entry, and neither a nor den // q is divisible by p.  Any
        other entry meets the constructor's check.
        """
        n = len(coeffs)
        units = _units(n)
        if all(type(c) is int or isinstance(c, Fraction) for c in coeffs):
            den = lcm(*(c.denominator for c in coeffs))
            return cls._canonical(
                n, {e: c.numerator * (den // c.denominator) for e, c in zip(units, coeffs) if c}, den
            )
        return cls(n, dict(zip(units, coeffs)))

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

    def total_degree(self) -> int:
        """Maximal total exponent present, or -1 for the zero polynomial."""
        return max((sum(exp) for exp in self.numerators), default=-1)

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
        """The n-th power on integer numerators over den^n: a homogeneous
        linear form by the multinomial theorem (``_linear_power``), any
        other polynomial by repeated squaring.

        The power of a linear form sum_i a_i u_i / den (n >= 1) is stored
        as built, because it is canonical already.  Its terms are
        multinomial(n; j) * prod_i a_i^j_i, one per exponent j, and none is
        zero, since canonical storage holds no zero a_i.  And
        gcd(den^n, *numerators) == 1: a prime p dividing den^n divides den,
        so it misses some a_i, and then it misses the term a_i^n of u_i^n.
        Every other power goes through ``_make``'s normalisation.
        """
        check_exponent(n)
        base, den = self.numerators, self.den**n
        units = _units(self.nvars)
        if n and base and base.keys() <= units.keys():
            coeffs = [base.get(e, 0) for e in units]
            return MultiPoly._canonical(self.nvars, _linear_power(coeffs, n), den)
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

    def truncate(self, order: int) -> "MultiPoly":
        """Drop all terms of total exponent greater than ``order``."""
        return MultiPoly._make(
            self.nvars, {e: v for e, v in self.numerators.items() if sum(e) <= order}, self.den
        )

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
