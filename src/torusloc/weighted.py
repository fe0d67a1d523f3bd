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
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyStage
from .poly import (
    MultiPoly,
    TruncSeries,
    _affine_pieces,
    _int_invert,
    _rational,
    affine_product,
    homogeneous_part,
    series_invert,  # noqa: F401  re-exported; instrumentation wraps it by this name
)

Line = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class WeightedSpace:
    """A circle representation split into lines, with residual equivariance.

    ``lines`` is a sequence of (circle_weight, residual_vector) pairs; all
    residual vectors have length ``residual_count``.
    """

    lines: tuple[Line, ...]
    residual_count: int

    def __post_init__(self):
        norm = []
        for weight, residual in self.lines:
            if weight == 0:
                raise ValueError("circle weight 0: the circle must fix only the origin")
            if type(weight) is not int:
                raise ValueError(f"circle weight must be an integer, got {weight!r}")
            residual = tuple(residual)
            if any(type(r) is not int for r in residual):
                raise ValueError(f"residual vector {residual} must have integer entries")
            if len(residual) != self.residual_count:
                raise ValueError(
                    f"residual vector {residual} has length {len(residual)},"
                    f" expected {self.residual_count}"
                )
            norm.append((weight, residual))
        object.__setattr__(self, "lines", tuple(norm))

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
    c0^(order+1), with c0 the product of the circle weights.  The Chern
    class is formed only through ``order``.  Tuples, so no caller can
    alter the cache.
    """
    chern = _affine_pieces(residual_count, lines, order)
    pieces, den = _int_invert(chern, residual_count, order)
    return tuple(tuple(piece.items()) for piece in pieces), den


def weighted_segre(space: WeightedSpace, order: int) -> TruncSeries:
    """Multiplicative inverse of the weighted Chern class through ``order``."""
    pieces, den = _segre_numerators(space.lines, space.residual_count, order)
    body = _rational({e: v for piece in pieces for e, v in piece}, den)
    return TruncSeries(MultiPoly._make(space.residual_count, body), order)


def weight_gcd(space: WeightedSpace) -> int:
    """Greatest common divisor of the absolute circle weights."""
    if space.is_empty():
        raise EmptyStage("weight gcd of an empty space")
    return math.gcd(*(abs(w) for w, _ in space.lines))


def ring_relation(space: WeightedSpace) -> list[MultiPoly]:
    """Defining relation of the sphere-quotient cohomology ring.

    Returns [c0, c1, ..., cr] where the relation is
    c0*h^r + c1*h^(r-1) + ... + cr and r is the complex rank.  With all
    circle weights 1 and no residual action this degenerates to h^r, the
    classical projective-space relation.
    """
    chern = weighted_chern(space)
    return [homogeneous_part(chern, i) for i in range(space.rank + 1)]


def equivariant_euler(space: WeightedSpace) -> MultiPoly:
    """Euler class with the circle variable appended as the last variable.

    Equals the product over lines of (weight * u_circ + residual form),
    whose expansion in powers of u_circ has the weighted Chern classes as
    coefficients.
    """
    return affine_product(
        space.residual_count + 1,
        ((0, residual + (weight,)) for weight, residual in space.lines),
    )


def fiber_integrate_power(space: WeightedSpace, i: int) -> MultiPoly:
    """Integral of h^i over the fibers of the sphere quotient bundle.

    Zero below exponent rank-1; above, the gcd of the circle weights times
    the appropriate weighted Segre piece.  An empty space has an empty
    sphere bundle, so every integral over it vanishes.
    """
    if i < 0:
        raise ValueError("power must be nonnegative")
    if space.is_empty():
        return MultiPoly.zero(space.residual_count)
    r = space.rank
    if i < r - 1:
        return MultiPoly.zero(space.residual_count)
    index = i - r + 1
    segre = weighted_segre(space, index)
    return segre.piece(index) * weight_gcd(space)


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
