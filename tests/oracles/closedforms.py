"""Closed-form pairing values for the built-in model families.

These formulas are independent of the localization engine: they are plain
binomial sums evaluated with Fraction arithmetic, used as cross-checks in
the test suite and the survey scripts.  The sphere products' torus
pairing, ``sphere_torus_pairing``, is the one closed form kept in
``torusloc.closedforms``.

The binomial helper extends the usual coefficient by the falling-factorial
definition C(m, k) = m (m-1) ... (m-k+1) / k! for any integer m, with
C(m, k) = 0 for k < 0.  The projective-plane lambda values need this at
the degenerate corner where the relevant bundle is trivial (the displayed
lower index l-1 becomes -1 there); the displayed binomial is rewritten
with the Segre index j - (r - 1) as lower index, which agrees with the
display whenever l >= 1 and extends it correctly to l = 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial


def binom(m: int, k: int) -> int:
    """Generalized binomial coefficient with integer (possibly negative) top."""
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k) if k <= m else 0
    num = 1
    for i in range(k):
        num *= m - i
    return num // factorial(k) if k else 1


# ----------------------------------------------------------------------
# products of 2-spheres: the rotation-group quotient


def so3_pairing_subset_form(n: int, num_odd: int) -> Fraction:
    """Signed count over half-size subsets of {1..n-1}.

    Value of the rotation-group quotient pairing of a product of factor
    classes with num_odd odd exponents (total degree n-3), in the form of
    a sum of signs over the subsets K of {1..n-1} of size (n-1)/2.
    """
    q = (n - 1) // 2
    total = 0
    for subset in itertools.combinations(range(1, n), q):
        inter = sum(1 for element in subset if element <= num_odd)
        total += (-1) ** inter
    return Fraction(-total, 2) * (-1) ** q


def so3_pairing_binomial_form(n: int, num_odd: int) -> Fraction:
    """The same pairing as an explicit binomial sum."""
    q = (n - 1) // 2
    m = num_odd
    inner = sum(comb(m, 2 * j) * binom(n - 1 - m, q - 2 * j) for j in range(m // 2 + 1))
    return Fraction((-1) ** q, 2) * (comb(n - 1, q) - 2 * inner)


# ----------------------------------------------------------------------
# products of projective planes: lambda values of the two flags


def cp2_lambda_theta1(n: int, sizes: tuple[int, int, int], j1: int, j2: int) -> int:
    """Closed-form value of the first flag on u1^j1 u2^j2 at a partition
    of sizes (i1, i2, i3); zero off degree 2n-2 and below the threshold."""
    i1, i2, i3 = sizes
    if j1 + j2 != 2 * n - 2:
        return 0
    threshold = i1 + 2 * i2 + i3 - 1
    if j2 < threshold:
        return 0
    return (-1) ** (i1 + 1) * binom(j2 - i2 - i3, j2 - threshold)


def cp2_lambda_theta2(n: int, sizes: tuple[int, int, int], j1: int, j2: int) -> int:
    """Closed-form value of the second flag, mirror image of the first."""
    i1, i2, i3 = sizes
    if j1 + j2 != 2 * n - 2:
        return 0
    threshold = 2 * i1 + i2 + i3 - 1
    if j1 < threshold:
        return 0
    return (-1) ** (i2 + 1) * binom(j1 - i1 - i3, j1 - threshold)


# ----------------------------------------------------------------------
# projective-plane volume


def cp2_volume_monomials(n: int, sizes: tuple[int, int, int]):
    """Monomial expansion of the Weyl-corrected volume class restriction.

    Yields (j1, j2, coefficient) for the restriction of
    L^(2n-8)/(2n-8)! times (1/6) times the product of the six root classes
    at a partition of the given sizes.  The root product expands to
    2 u1^3 u2^3 - u1^4 u2^2 - u1^2 u2^4.
    """
    i1, i2, i3 = sizes
    alpha = n - 3 * i1
    beta = n - 3 * i2
    m = 2 * n - 8
    base = Fraction(1, 6 * factorial(m))
    for t in range(m + 1):
        coeff = base * comb(m, t) * alpha**t * beta ** (m - t)
        if not coeff:
            continue
        yield (t + 3, m + 3 - t, 2 * coeff)
        yield (t + 4, m + 2 - t, -coeff)
        yield (t + 2, m + 4 - t, -coeff)


def multinomial(n: int, sizes: tuple[int, int, int]) -> int:
    i1, i2, i3 = sizes
    return factorial(n) // (factorial(i1) * factorial(i2) * factorial(i3))


def cp2_volume_from_lambda_forms(n: int, variant: str = "swapped") -> Fraction:
    """Volume pairing assembled from the closed-form lambda values.

    The variant token selects which flag serves each region, exactly as in
    the plan generator.  Only "general" and "swapped" make sense here; the
    mirrored plan uses flags whose closed forms are not written out.
    """
    third = Fraction(n, 3)
    total = Fraction(0)
    for i1 in range(n + 1):
        for i2 in range(n + 1 - i1):
            i3 = n - i1 - i2
            sizes = (i1, i2, i3)
            in_high = i1 > third and i3 > third
            in_low = i2 < third and i3 < third
            if variant == "general":
                lam = cp2_lambda_theta1 if in_high else cp2_lambda_theta2 if in_low else None
            elif variant == "swapped":
                lam = cp2_lambda_theta2 if in_high else cp2_lambda_theta1 if in_low else None
            else:
                raise ValueError(f"no closed forms for variant {variant!r}")
            if lam is None:
                continue
            value = sum(
                (coeff * lam(n, sizes, j1, j2) for j1, j2, coeff in cp2_volume_monomials(n, sizes)),
                Fraction(0),
            )
            total += multinomial(n, sizes) * value
    return total


def cp2_volume_printed_double_sum(n: int, repair_base: bool = False) -> Fraction:
    """The final printed double-sum volume formula, transcribed verbatim.

    Any piece whose binomial factor vanishes is skipped wholesale, which
    also sidesteps the negative powers the raw expression would otherwise
    contain.  With repair_base the power base 3 i1 + 3 ix - n is read as
    3 i1 + 3 ix - 2n, the coefficient the binomial-expansion structure of
    the summand requires; under that reading the first region's summand
    agrees pointwise with the composed lambda closed forms (times the
    group-order factor 6 the display drops).  Kept for comparison; see the
    README for how it relates to the values the engine produces.
    """
    total = Fraction(0)
    third = Fraction(n, 3)
    for i1 in range(n + 1):
        for i3 in range(n + 1 - i1):
            if i1 > third and i3 > third:
                sign = (-1) ** (i1 + 1)
                weight = Fraction(factorial(n), factorial(i1) * factorial(i3) * factorial(n - i1 - i3))
                total += sign * weight * cp2_printed_summand(n, i1, i3, repair_base)
    for i1 in range(n + 1):
        for i2 in range(n + 1 - i1):
            if i1 < third and i2 < third:
                sign = (-1) ** (i1 + 1)
                weight = Fraction(factorial(n), factorial(i1) * factorial(i2) * factorial(n - i1 - i2))
                total += sign * weight * cp2_printed_summand(n, i1, i2, repair_base)
    return total


def cp2_printed_summand(n: int, i1: int, ix: int, repair_base: bool = False) -> Fraction:
    """One bracketed summand of the printed double sum.

    ix plays the role of i3 in the first region and i2 in the second.
    """
    m = 2 * n - 8
    s = i1 + ix
    a = n - 3 * i1
    b = 3 * i1 + 3 * ix - (2 * n if repair_base else n)
    acc = Fraction(0)
    c1 = binom(m, s - 4)
    if c1:
        acc += c1 * Fraction(a) ** (s - 4) * Fraction(b) ** (2 * n - 4 - s) * (2 + ix - n)
    c2 = binom(m, s - 3)
    if c2:
        acc -= c2 * Fraction(a) ** (s - 3) * Fraction(b) ** (2 * n - 5 - s)
    for j in range(s - 4):
        c3 = binom(n + i1 - 6 - j, n - ix - 3) * binom(m, j)
        if c3:
            acc -= c3 * Fraction(a) ** j * Fraction(b) ** (2 * n - 8 - j)
    return acc
