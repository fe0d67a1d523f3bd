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
from functools import lru_cache
from operator import add

from .errors import EmptyStage
from .frozen import Frozen
from .poly import (
    MultiPoly,
    _graded,
    affine_product,
    series_invert,  # noqa: F401  re-exported; instrumentation wraps it by this name
)

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


@lru_cache(maxsize=4096)
def _segre_numerators(lines: tuple[Line, ...], residual_count: int, order: int) -> tuple:
    """Graded integer numerators of the weighted Segre class through ``order``.

    Returns (pieces, den): pieces[i] holds the (exponent, numerator) pairs
    of total exponent i, and the Segre piece s_i is their sum over den =
    c0^(order+1), with c0 the product of the circle weights.  Tuples, so
    no caller can alter the cache.

    The class is the product of one geometric series per line, built with
    no Chern class and no inversion.  If P_n / c^(n+1) are the pieces for
    the lines so far, c the product of their circle weights, one more line
    (a, b) gives pieces N_n / (c a)^(n+1) with
    N_n = a^n P_n - c <b,u> N_(n-1), from (a + <b,u>) S_new = S_old.
    At the end N_n times c0^(order-n) puts every piece over den.
    """
    pieces: list[dict] = [{(0,) * residual_count: 1}] + [{} for _ in range(order)]
    c = 1
    for a, residual in lines:
        shifts = [(i, c * b) for i, b in enumerate(residual) if b]
        scale = 1
        for n in range(1, order + 1):  # upwards, so piece n-1 is already N_(n-1)
            scale *= a
            out = {e: v * scale for e, v in pieces[n].items()}
            if shifts:
                get = out.get
                for e, v in pieces[n - 1].items():
                    for i, cb in shifts:
                        e_up = e[:i] + (e[i] + 1,) + e[i + 1 :]
                        out[e_up] = get(e_up, 0) - cb * v
            pieces[n] = out
        c *= a
    rescale = [c ** (order - n) for n in range(order + 1)]
    return tuple(
        tuple((e, v * r) for e, v in piece.items() if v) for piece, r in zip(pieces, rescale)
    ), c ** (order + 1)


def weighted_segre(space: WeightedSpace, order: int) -> list[MultiPoly]:
    """Multiplicative inverse of the weighted Chern class through ``order``,
    as its graded pieces: element i, for i = 0..order, is the Segre piece
    s_i, homogeneous of total exponent i."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    pieces, den = _segre_numerators(space.lines, space.residual_count, order)
    return [MultiPoly._make(space.residual_count, dict(piece), den) for piece in pieces]


def weight_gcd(space: WeightedSpace) -> int:
    """Greatest common divisor of the absolute circle weights."""
    if space.is_empty():
        raise EmptyStage("weight gcd of an empty space")
    return math.gcd(*(abs(w) for w, _ in space.lines))


def _stage_fold(numerators: dict, lines: tuple[Line, ...], residual_count: int) -> tuple[dict, int]:
    """Integrate out the stage variable on integer numerators: the one kernel
    behind stage_map, lambda_flag and fiber_integrate_power.

    ``lines`` are the nonempty stage's (circle weight, residual vector)
    pairs, as in WeightedSpace.  Variable 0 of each exponent is the stage
    variable.  Each term c * x^j * rest with j >= r-1 adds
    c * k * s_{j-r+1} * rest, with r the number of lines, k the gcd of
    their circle weights and s the integer numerators of their weighted
    Segre pieces.  Returns the nonzero numerators of the result and the
    Segre denominator, by which the input's denominator must be multiplied.
    """
    r = len(lines)
    top = max((e[0] for e in numerators), default=-1) - r + 1
    if top < 0:
        return {}, 1
    pieces, den = _segre_numerators(lines, residual_count, top)
    k = math.gcd(*(w for w, _ in lines))
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
    if i < 0:
        raise ValueError("power must be nonnegative")
    n = space.residual_count
    if space.is_empty():
        return MultiPoly.zero(n)
    out, den = _stage_fold({(i,) + (0,) * n: 1}, space.lines, n)
    return MultiPoly._make(n, out, den)


def parse_weighted_space(text: str) -> WeightedSpace:
    """Parse the CLI syntax "w:r1,r2,...;w:..." into a WeightedSpace.

    A line with no residual components is written as a bare weight.  All
    lines must agree on the number of residual components.
    """
    lines = []
    residual_count = None
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty line in weighted space description")
        if ":" in chunk:
            head, tail = chunk.split(":", 1)
            residual = tuple(int(part) for part in tail.split(",")) if tail.strip() else ()
        else:
            head, residual = chunk, ()
        weight = int(head)
        if residual_count is None:
            residual_count = len(residual)
        elif residual_count != len(residual):
            raise ValueError("all lines must have the same number of residual components")
        lines.append((weight, residual))
    return WeightedSpace(tuple(lines), residual_count or 0)
