"""Weighted Chern and Segre classes of circle representations.

A WeightedSpace is a complex representation of a circle, split into lines,
each carrying a nonzero integer circle weight and an integer vector giving
the weights of a residual torus acting alongside the circle.  The circle
fixes only the origin, which is exactly the condition that every weighted
Chern class below has invertible (nonzero) constant term.

The quotient of the unit sphere of such a space by the circle is a
weighted projective space; the functions here compute its cohomology ring
relation and integrals over it.  Signed weights are used throughout with
no conjugation preprocessing, so orientation information stays in the
algebra.
"""

from __future__ import annotations

import math
from operator import add

from .errors import EmptyStage
from .frozen import Frozen
from .poly import MultiPoly, _graded, affine_product, series_invert

Line = tuple[int, tuple[int, ...]]


class WeightedSpace(Frozen):
    """A circle representation split into lines, with residual equivariance.

    ``lines`` is a sequence of (circle_weight, residual_vector) pairs; all
    residual vectors have length ``residual_count``.
    """

    _fields = ("lines", "residual_count")

    def __init__(self, lines: tuple[Line, ...], residual_count: int):
        norm = []
        for weight, residual in lines:
            if weight == 0:
                raise ValueError("circle weight 0: the circle must fix only the origin")
            if type(weight) is not int:
                raise ValueError(f"circle weight must be an integer, got {weight!r}")
            residual = tuple(residual)
            if any(type(r) is not int for r in residual):
                raise ValueError(f"residual vector {residual} must have integer entries")
            if len(residual) != residual_count:
                raise ValueError(
                    f"residual vector {residual} has length {len(residual)},"
                    f" expected {residual_count}"
                )
            norm.append((weight, residual))
        self._set(tuple(norm), residual_count)

    @property
    def rank(self) -> int:
        return len(self.lines)

    def is_empty(self) -> bool:
        return not self.lines


def weighted_chern(space: WeightedSpace) -> MultiPoly:
    """Product over all lines of (circle weight + residual linear form).

    The graded piece of exponent i is the i-th weighted Chern class; the
    constant term is the product of the circle weights, hence nonzero.
    Every coefficient is an ``int``.
    """
    return affine_product(space.residual_count, space.lines)


def weighted_segre(space: WeightedSpace, order: int) -> list[MultiPoly]:
    """Multiplicative inverse of the weighted Chern class through ``order``,
    as its graded pieces: element i, for i = 0..order, is the Segre piece
    s_i, homogeneous of total exponent i."""
    return series_invert(weighted_chern(space), order)


def weight_gcd(space: WeightedSpace) -> int:
    """Greatest common divisor of the absolute circle weights."""
    if space.is_empty():
        raise EmptyStage("weight gcd of an empty space")
    return math.gcd(*(abs(w) for w, _ in space.lines))


def _stage_fold(numerators: dict, lines: tuple[Line, ...], residual_count: int) -> tuple[dict, int]:
    """Integrate out the stage variable on integer numerators: the kernel
    behind stage_map and fiber_integrate_power, and lambda_flag's for every
    stage but the last two, which ``_finish_fold`` folds.

    ``lines`` are the nonempty stage's (circle weight, residual vector)
    pairs, as in WeightedSpace.  Variable 0 of each exponent is the stage
    variable.  Each term c * x^j * rest with j >= r-1 adds
    c * k * s_{j-r+1} * rest, with r the number of lines, k the gcd of
    their circle weights and s their weighted Segre pieces: the inverse of
    their Chern product through top, the largest index needed, each put
    over den = c0^(top+1), c0 the product of the circle weights.  Returns
    the nonzero numerators of the result and den, by which the input's
    denominator must be multiplied.
    """
    r = len(lines)
    top = max((e[0] for e in numerators), default=-1) - r + 1
    if top < 0:
        return {}, 1
    k = math.gcd(*(w for w, _ in lines))
    den = math.prod(w for w, _ in lines) ** (top + 1)
    pieces = [
        [(e, v * (den // piece.den)) for e, v in piece.numerators.items()]
        for piece in series_invert(affine_product(residual_count, lines), top)
    ]
    out: dict[tuple, int] = {}
    get = out.get
    for exp, c in numerators.items():
        i = exp[0] - r + 1
        if i < 0:
            continue
        rest = exp[1:]
        ck = c * k
        for e, v in pieces[i]:
            e = tuple(map(add, rest, e))
            out[e] = get(e, 0) + ck * v
    return {e: v for e, v in out.items() if v}, den


def _finish_fold(numerators: dict, stages: tuple) -> tuple[int, int]:
    """Fold the last two stages of a key on plain integers, or the one stage
    of a rank-1 key: the value's numerator, and the denominator by which the
    input's must be multiplied.

    ``stages`` holds the line tuples of those stages, and the exponents of
    ``numerators`` are (e0, e1), or (e1,) at rank 1.  The last stage has no
    residual variable, so of its Segre class only s_0 = 1/c1 is nonzero,
    times the gcd k1 of its circle weights, and only e1 + n = r1 - 1 is
    kept, with n the Segre index of the stage before.  That stage has one
    residual variable, so its piece n is one integer N_n over c0^(n+1),
    from a recurrence over the lines: if P_n / c^(n+1) are the pieces for
    the lines so far, c the product of their circle weights, one more line
    (a, (b,)) gives pieces N_n / (c a)^(n+1) with N_n = a^n P_n - c b N_(n-1),
    from (a + b u) S_new = S_old.  A term (e0, e1) with n = e0 - r0 + 1 >= 0
    adds its numerator times k0 N_n c0^(top-n), over c0^(top+1) c1, with
    top the largest n kept.  One pass over the terms gathers the kept ones
    and top, one over the last stage gives k1 and c1, and the recurrence's
    pass over the lines gives k0 and c0.
    """
    *before, last = stages
    r1 = len(last)
    k1, c1 = 0, 1
    for w, _ in last:
        k1 = math.gcd(k1, w)
        c1 *= w
    if not before:
        return numerators.get((r1 - 1,), 0) * k1, c1
    (lines,) = before
    low = len(lines) - 1
    total = low + r1 - 1
    kept, top = [], -1
    for (e0, e1), v in numerators.items():
        if e0 >= low and e0 + e1 == total:
            n = e0 - low
            kept.append((n, v))
            if n > top:
                top = n
    if not kept:
        return 0, 1
    segre = [1] + [0] * top
    c, k0 = 1, 0
    for a, (b,) in lines:
        cb = c * b
        scale = 1
        for n in range(1, top + 1):  # upwards, so segre[n-1] is already N_(n-1)
            scale *= a
            segre[n] = scale * segre[n] - cb * segre[n - 1]
        c *= a
        k0 = math.gcd(k0, a)
    value = sum(v * segre[n] * c ** (top - n) for n, v in kept)
    return value * k0 * k1, c ** (top + 1) * c1


def ring_relation(space: WeightedSpace) -> list[MultiPoly]:
    """Defining relation of the sphere-quotient cohomology ring.

    Returns [c0, c1, ..., cr] where the relation is
    c0*h^r + c1*h^(r-1) + ... + cr and r is the complex rank: the graded
    pieces of the weighted Chern class.  With all circle weights 1 and no
    residual action this degenerates to h^r, the classical projective-space
    relation.
    """
    pieces = _graded(weighted_chern(space).numerators, space.rank)
    return [MultiPoly._make(space.residual_count, piece) for piece in pieces]


def fiber_integrate_power(space: WeightedSpace, i: int) -> MultiPoly:
    """Integral of h^i over the fibers of the sphere quotient bundle.

    The stage fold applied to the monomial h^i: zero below exponent
    rank-1, above it the gcd of the circle weights times the weighted
    Segre piece i-rank+1.  An empty space has an empty sphere bundle, so
    every integral over it vanishes.
    """
    if type(i) is not int:
        raise ValueError(f"power must be an int, got {i!r}")
    if i < 0:
        raise ValueError("power must be nonnegative")
    n = space.residual_count
    if space.is_empty():
        return MultiPoly.zero(n)
    out, den = _stage_fold({(i,) + (0,) * n: 1}, space.lines, n)
    return MultiPoly._make(n, out, den)

