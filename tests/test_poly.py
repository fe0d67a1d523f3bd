import copy
import pickle
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusloc import (
    DimensionMismatch,
    MultiPoly,
    PlanFormatError,
    ZeroConstantTerm,
    linear_substitute,
    poly_str,
    series_invert,
)
from torusloc import poly
from torusloc.poly import _graded, _int_product

from helpers import (
    check_graded_prefix,
    exact_shape,
    mixed_coeffs,
    mixed_polys,
    ref_clean,
    ref_invert,
    ref_mul,
    ref_terms,
    total_degree,
    truncate,
    unimodular,
)


def P(nvars, terms):
    return MultiPoly(nvars, terms)


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        p = P(2, {(1, 0): 1})
        assert (p - p).is_zero()

    def test_mul_distributes(self):
        p = P(1, {(0,): 1, (1,): -1})
        q = P(1, {(0,): 1, (1,): 1})
        assert p * q == P(1, {(0,): 1, (2,): -1})

    def test_pow(self):
        one_plus_u = P(1, {(0,): 1, (1,): 1})
        assert one_plus_u**3 == P(1, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})

    @pytest.mark.parametrize("bad", [True, False, 2.0])
    def test_pow_takes_only_an_int(self, bad):
        # u ** True used to return u, and u ** False 1
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            MultiPoly.variable(1, 0) ** bad

    def test_scalar_ops(self):
        p = P(1, {(1,): 1})
        assert p * Fraction(1, 2) == P(1, {(1,): Fraction(1, 2)})
        assert p + 1 == P(1, {(0,): 1, (1,): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            P(1, {(1,): 1}) + P(2, {(1, 0): 1})


class TestSeriesInvert:
    def test_geometric_series(self):
        p = P(1, {(0,): 1, (1,): -1})
        assert sum(series_invert(p, 3)) == P(1, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})

    def test_constant_inverse(self):
        assert sum(series_invert(MultiPoly.const(1, -1), 5)) == MultiPoly.const(1, -1)

    def test_two_variable_inverse(self):
        p = P(2, {(0, 0): 2, (1, 0): 1, (0, 1): 1})
        expected = P(2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 4), (0, 1): Fraction(-1, 4)})
        assert sum(series_invert(p, 1)) == expected

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            series_invert(P(1, {(1,): 1}), 2)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_order_takes_only_an_int(self, bad):
        # True used to give order 1, and 2.0 a bare range() TypeError
        with pytest.raises(ValueError, match="order must be an int"):
            series_invert(P(1, {(0,): 1, (1,): 1}), bad)


class TestLinearSubstitute:
    BASIS = [(0, 1), (-1, 0)]

    def test_variable_image(self):
        u1 = MultiPoly.variable(2, 0)
        assert linear_substitute(u1, self.BASIS) == P(2, {(0, 1): -1})

    def test_multiplicativity(self):
        u1u2 = P(2, {(1, 1): 1})
        assert linear_substitute(u1u2, self.BASIS) == P(2, {(1, 1): -1})

    def test_identity_basis(self):
        p = P(2, {(2, 1): Fraction(3, 7), (0, 0): -2})
        assert linear_substitute(p, [(1, 0), (0, 1)]) == p

    def test_wrong_basis_size(self):
        with pytest.raises(DimensionMismatch):
            linear_substitute(MultiPoly.variable(2, 0), [(1, 0)])

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", Fraction(1), [1, 2], [(1, 0), 5]])
    def test_non_integer_basis_entry_is_rejected(self, bad):
        # int(1.7) used to turn u1 + 2*u2 into itself under [[1.7, 0], [0, 1]];
        # a list is a whole basis whose rows are not sequences (len() used to fail)
        basis = bad if isinstance(bad, list) else [[bad, 0], [0, 1]]
        with pytest.raises(PlanFormatError, match="basis entries must be integers"):
            linear_substitute(MultiPoly.linear_form([1, 2]), basis)

    @pytest.mark.parametrize("bad", [5, None, 1.5])
    def test_non_sequence_basis_is_rejected(self, bad):
        # used to end in a bare TypeError ("'int' object is not iterable")
        with pytest.raises(PlanFormatError, match="basis entries must be integers"):
            linear_substitute(MultiPoly.linear_form([1, 2]), bad)


def graded_pieces(p: MultiPoly, order: int) -> list[MultiPoly]:
    """The pieces of total exponent 0..order of p, split by ``_graded``."""
    return [MultiPoly._make(p.nvars, piece, p.den) for piece in _graded(p.numerators, order)]


class TestGraded:
    def test_binomial_cube(self):
        p = P(1, {(0,): 1, (1,): 1}) ** 3
        assert graded_pieces(p, 2)[2] == P(1, {(2,): 3})

    def test_absent_degree(self):
        assert graded_pieces(P(2, {(2, 0): 1, (0, 1): 1}), 5)[5].is_zero()

    def test_mixed(self):
        p = P(2, {(1, 1): 1, (1, 0): 2})
        assert graded_pieces(p, 1)[1] == P(2, {(1, 0): 2})


# ----------------------------------------------------------------------
# property tests

fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def polys(nvars, max_exp=3, max_terms=5):
    exponents = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exponents, fractions, max_size=max_terms).map(
        lambda terms: MultiPoly(nvars, terms)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(polys), st.integers(0, 8), fractions.filter(bool))
def test_series_inverse_multiplies_to_one(p, order, c0):
    p = p - p.constant_term() + c0  # force a nonzero constant term
    inverse = sum(series_invert(p, order))
    assert truncate(p * inverse, order) == MultiPoly.const(p.nvars, 1)


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_linear_substitute_is_ring_homomorphism(p, q):
    basis = [(1, 1), (0, 1)]  # determinant 1
    assert linear_substitute(p + q, basis) == linear_substitute(p, basis) + linear_substitute(
        q, basis
    )
    assert linear_substitute(p * q, basis) == linear_substitute(p, basis) * linear_substitute(
        q, basis
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(polys))
def test_graded_pieces_sum_back(p):
    total = MultiPoly.zero(p.nvars)
    for piece in graded_pieces(p, total_degree(p)):
        total = total + piece
    assert total == p


def test_poly_str_canonical_order():
    p = P(2, {(0, 0): 1, (1, 0): 2, (0, 1): -1, (2, 0): Fraction(1, 2)})
    assert poly_str(p) == "1 + 2*u1 - u2 + 1/2*u1^2"


# ----------------------------------------------------------------------
# integer kernels against a plain-Fraction reference
#
# The reference (here and in helpers.py) works on {exponent: Fraction}
# dictionaries with the schoolbook loops the kernels replace.  Inputs mix int, Fraction and
# integral Fraction (such as Fraction(2)) coefficients; the constructor
# brings all of them to the one storage, numerators over a reduced
# denominator, that the kernels read.


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, basis):
    d = len(basis)
    out = {}
    for exp, c in a.items():
        term = {(0,) * d: c}
        for j, e in enumerate(exp):
            form = {
                tuple(int(k == i) for k in range(d)): Fraction(basis[i][j])
                for i in range(d)
                if basis[i][j]
            }
            for _ in range(e):
                term = ref_mul(term, form)
        for e, v in term.items():
            out[e] = out.get(e, Fraction(0)) + v
    return ref_clean(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(mixed_polys(n), mixed_polys(n))))
def test_mul_matches_fraction_reference(pair):
    p, q = pair
    product = p * q
    assert product.terms == ref_mul(ref_terms(p), ref_terms(q))
    assert exact_shape(product)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: mixed_polys(n, max_exp=2, max_terms=3)), st.integers(0, 4))
def test_pow_matches_fraction_reference(p, n):
    power = p**n
    assert power.terms == ref_pow(ref_terms(p), n, p.nvars)
    assert exact_shape(power)


@st.composite
def linear_forms(draw):
    """sum_i a_i u_i in 1-3 variables; coefficients may be zero, and so may
    the whole form."""
    coeffs = st.one_of(st.just(0), mixed_coeffs)
    return MultiPoly.linear_form(draw(st.lists(coeffs, min_size=1, max_size=3)))


@settings(max_examples=100, deadline=None)
@given(linear_forms(), st.integers(0, 12))
def test_linear_form_power_is_the_repeated_product(form, m):
    # powers of a linear form expand by the multinomial theorem, not by squaring
    product = MultiPoly.const(form.nvars, 1)
    for _ in range(m):
        product = product * form
    power = form**m
    assert power == product and exact_shape(power)


def test_power_of_one_variable_reads_no_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a power of one variable read a power table")

    monkeypatch.setattr(poly, "_power_table", no_table)
    power = MultiPoly.linear_form([0, Fraction(3, 2), 0]) ** 5
    assert power == MultiPoly(3, {(0, 5, 0): Fraction(243, 32)}) and exact_shape(power)


def same_storage(p: MultiPoly, q: MultiPoly) -> bool:
    return (p.nvars, dict(p.numerators), p.den, hash(p)) == (q.nvars, dict(q.numerators), q.den, hash(q))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(0), mixed_coeffs), min_size=1, max_size=3), st.integers(0, 40))
def test_linear_form_and_its_power_are_stored_canonical(coeffs, m):
    # linear_form and the power of a linear form skip _store's normalisation;
    # both must store what the checking constructor stores, zeros dropped
    # and the denominator reduced
    n = len(coeffs)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    form = MultiPoly.linear_form(coeffs)
    assert same_storage(form, MultiPoly(n, dict(zip(units, coeffs))))
    raw = {(0,) * n: 1}
    for _ in range(m):
        raw = _int_product(raw, dict(form.numerators))
    den = form.den**m
    checked = MultiPoly(n, {e: Fraction(v, den) for e, v in raw.items()})
    assert same_storage(form**m, checked)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(mixed_polys(d), unimodular(d))))
def test_linear_substitute_matches_fraction_reference(case):
    p, basis = case
    image = linear_substitute(p, basis)
    assert image.terms == ref_substitute(ref_terms(p), basis)
    assert exact_shape(image)


def test_linear_substitute_of_a_deep_monomial():
    # u1 -> u1', u2 -> 2u1' - u2', so (3/7) u1^a u2^b expands binomially;
    # the image used to be built by one recursive call per degree
    a, b = 700, 800
    image = linear_substitute(P(2, {(a, b): Fraction(3, 7)}), [(1, 2), (0, -1)])
    reference = {
        (a + j, b - j): Fraction(3, 7) * comb(b, j) * 2**j * (-1) ** (b - j) for j in range(b + 1)
    }
    assert image.terms == reference
    assert exact_shape(image)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(mixed_polys), mixed_coeffs.filter(bool), st.integers(0, 5))
def test_series_invert_matches_fraction_reference(p, c0, order):
    p = p - p.constant_term() + c0
    inverse = sum(series_invert(p, order))
    assert inverse.terms == ref_invert(ref_terms(p), p.nvars, order)
    assert exact_shape(inverse)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(mixed_polys),
    mixed_coeffs.filter(bool),
    st.integers(0, 5),
    st.integers(1, 4),
)
def test_series_invert_pieces_are_graded_prefixes(p, c0, k, extra):
    # piece n is t_n D / c0^(n+1), whatever the order it was computed through
    p = p - p.constant_term() + c0
    check_graded_prefix(lambda order: series_invert(p, order), k, k + extra)


def sympy_invert(p: MultiPoly, order: int) -> dict:
    """Truncated inverse of p by sympy's ring series: u_i -> t*u_i grades p by
    total degree, and the inverse in t through t^order is read off at t = 1."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_inversion
    from sympy.polys.rings import ring

    R, t, *us = ring(",".join(["t"] + [f"u{i}" for i in range(p.nvars)]), sympy.QQ)
    q = R.zero
    for exp, c in p.terms.items():
        c = Fraction(c)
        monomial = t ** sum(exp)
        for u, e in zip(us, exp):
            monomial *= u**e
        q += sympy.QQ(c.numerator, c.denominator) * monomial
    inverse = rs_series_inversion(q, t, order + 1)
    return {
        exp[1:]: Fraction(int(c.numerator), int(c.denominator))
        for exp, c in inverse.terms()
        if exp[0] <= order  # at order 0 sympy also returns the t^1 term
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(mixed_polys), mixed_coeffs.filter(bool), st.integers(0, 5))
def test_series_invert_matches_sympy(p, c0, order):
    p = p - p.constant_term() + c0
    inverse = sum(series_invert(p, order))
    assert ref_terms(inverse) == sympy_invert(p, order)


def is_canonical(p: MultiPoly) -> bool:
    """Integer numerators, none zero, over an int den >= 1 sharing no factor with them."""
    values = p.numerators.values()
    return (
        type(p.den) is int
        and p.den >= 1
        and all(type(v) is int and v for v in values)
        and gcd(p.den, *values) == 1
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(mixed_polys(d, 2, 4), mixed_polys(d, 2, 4), unimodular(d))
    ),
    mixed_coeffs.filter(bool),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_every_result_is_canonical(case, c, n, order):
    p, q, basis = case
    pieces = series_invert(p - p.constant_term() + c, order)
    results = [
        p + q,
        p - q,
        p * q,
        p * Fraction(c),
        p**n,
        linear_substitute(p, basis),
        sum(pieces),
        *pieces,
    ]
    for r in results:
        assert is_canonical(r)
        # equal terms, built afresh, give equal storage and equal hashes
        twin = MultiPoly(r.nvars, {e: Fraction(v) for e, v in r.terms.items()})
        assert (twin.numerators, twin.den) == (r.numerators, r.den)
        assert hash(twin) == hash(r)
        if r.den > 1:  # the same numerators over another denominator hash apart
            assert hash(r) != hash(r * r.den)


class TestReadOnlyStorage:
    """A polynomial's storage cannot change under its cached hash, and it
    still crosses pickle and copy, as worker processes need."""

    POLYS = [
        MultiPoly.zero(2),
        MultiPoly.const(1, Fraction(-3, 4)),
        MultiPoly(2, {(1, 0): Fraction(1, 6), (0, 2): 3, (0, 0): -1}),
    ]

    @pytest.mark.parametrize("p", POLYS)
    def test_numerators_reject_assignment(self, p):
        hash(p)
        with pytest.raises(TypeError):
            p.numerators[(0,) * p.nvars] = 5
        with pytest.raises(AttributeError):
            p.numerators = {}

    @pytest.mark.parametrize("p", POLYS)
    def test_pickle_and_copy_round_trip(self, p):
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and hash(twin) == hash(p)
            assert is_canonical(twin) and twin.numerators == p.numerators


class TestCoefficientTypes:
    def test_integer_constructors_store_int(self):
        assert type(MultiPoly.const(2, 3).terms[(0, 0)]) is int
        assert type(MultiPoly.const(1, Fraction(4, 2)).terms[(0,)]) is int
        assert all(type(c) is int for c in MultiPoly.linear_form((1, Fraction(-2), 0)).terms.values())
        assert all(type(c) is int for c in P(2, {(1, 0): 5, (0, 1): Fraction(6, 3)}).terms.values())

    @pytest.mark.parametrize("bad", [0.1, "1/3", True, None, 1j])
    def test_inexact_coefficients_are_refused(self, bad):
        # 0.1 used to be stored as 3602879701896397/36028797018963968, and
        # "1/3" and True were read as rationals
        message = rf"coefficient of \(1,\) must be an int or a Fraction, got {re.escape(repr(bad))}"
        with pytest.raises(TypeError, match=message):
            MultiPoly(1, {(1,): bad})
        with pytest.raises(TypeError, match=r"coefficient of \(0, 0\)"):
            MultiPoly.const(2, bad)
        with pytest.raises(TypeError, match=r"coefficient of \(0, 1\)"):
            MultiPoly.linear_form((1, bad))
        with pytest.raises(TypeError, match=r"coefficient of \(1, 0\)"):
            MultiPoly.linear_form((0.0, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.just(Fraction(0)), mixed_coeffs), max_size=4))
    def test_linear_form_stores_what_the_checking_constructor_stores(self, coeffs):
        # int, Fraction and 0 entries take the integer path, straight to _make
        n = len(coeffs)
        form = MultiPoly.linear_form(coeffs)
        expected = MultiPoly(n, {(0,) * i + (1,) + (0,) * (n - i - 1): c for i, c in enumerate(coeffs)})
        assert dict(form.numerators) == dict(expected.numerators)
        assert form.den == expected.den
        assert hash(form) == hash(expected)
        assert is_canonical(form)

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_linear_form_refuses_any_other_entry(self, bad):
        message = rf"coefficient of \(0, 1\) must be an int or a Fraction, got {re.escape(repr(bad))}"
        with pytest.raises(TypeError, match=message):
            MultiPoly.linear_form((Fraction(1, 2), bad))
        with pytest.raises(TypeError, match=message):
            MultiPoly.linear_form((0, bad))

    def test_public_accessors_return_fraction(self):
        for p in (MultiPoly.const(2, 3), MultiPoly.const(2, Fraction(1, 3)), MultiPoly.zero(2)):
            assert type(p.constant_term()) is Fraction
            assert type(p.as_constant()) is Fraction
        assert type(P(1, {(1,): 2, (0,): 7}).constant_term()) is Fraction

    def test_division_by_constant_term_stays_exact(self):
        # an int constant term would turn int / int into a float here
        assert type(3 / MultiPoly.const(0, 2).constant_term()) is Fraction

    def test_equal_values_hash_alike_across_storage(self):
        as_int = MultiPoly(2, {(1, 0): 2, (0, 0): -1})
        as_fraction = MultiPoly(2, {(1, 0): Fraction(2), (0, 0): Fraction(-1)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert len({as_int, as_fraction}) == 1
