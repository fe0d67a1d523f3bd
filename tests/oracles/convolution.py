"""Exact density of a sum of independent uniform variables on [-1, 1].

This is a verification oracle: it computes the same numbers as certain
rank-1 pairings but through repeated convolution of piecewise polynomials,
sharing no code with the localization machinery.

Densities are represented piecewise on the integer intervals [k, k+1) as
coefficient lists over the rationals.  Convolving against the box density
of one more uniform variable amounts to g(x) = (F(x+1) - F(x-1)) / 2 with
F a continuous antiderivative, which is again piecewise polynomial with
integer breakpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from torusloc.errors import TorusLocError

Piece = list[Fraction]  # coefficients, lowest degree first


def _eval_poly(coeffs: Piece, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _binomial_shift(coeffs: Piece, h: int) -> Piece:
    """Coefficients of p(x + h), computed term by term."""
    out = [Fraction(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        if not c:
            continue
        row = 1
        for i in range(j + 1):
            out[i] += c * row * h ** (j - i)
            row = row * (j - i) // (i + 1)
    return out


class PiecewiseDensity:
    """A compactly supported piecewise polynomial with integer breakpoints."""

    def __init__(self, pieces: dict[int, Piece]):
        self.pieces = {k: list(map(Fraction, coeffs)) for k, coeffs in pieces.items()}

    @classmethod
    def uniform(cls) -> "PiecewiseDensity":
        half = Fraction(1, 2)
        return cls({-1: [half], 0: [half]})

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if x.denominator == 1 and int(x) in self.pieces and int(x) - 1 in self.pieces:
            left = _eval_poly(self.pieces[int(x) - 1], x)
            right = _eval_poly(self.pieces[int(x)], x)
            if left != right:
                raise TorusLocError(f"density is discontinuous at the breakpoint {x}")
            return right
        k = math.floor(x)
        if k in self.pieces:
            return _eval_poly(self.pieces[k], x)
        return Fraction(0)

    def _antiderivative(self) -> dict[int, Piece]:
        """Continuous antiderivative vanishing left of the support."""
        out: dict[int, Piece] = {}
        if not self.pieces:
            return out
        running = Fraction(0)
        for k in range(min(self.pieces), max(self.pieces) + 1):
            coeffs = self.pieces.get(k, [])
            anti = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(coeffs)]
            anti[0] = running - _eval_poly(anti, Fraction(k))
            out[k] = anti
            running = _eval_poly(anti, Fraction(k + 1))
        return out

    def convolve_uniform(self) -> "PiecewiseDensity":
        """Convolve with one more uniform density on [-1, 1]."""
        anti = self._antiderivative()
        if not anti:
            return PiecewiseDensity({})
        lo, hi = min(anti), max(anti)
        total = _eval_poly(anti[hi], Fraction(hi + 1))
        half = Fraction(1, 2)
        pieces: dict[int, Piece] = {}
        for k in range(lo - 1, hi + 2):
            # On [k, k+1): F(x+1) uses piece k+1, F(x-1) uses piece k-1.
            upper = anti.get(k + 1)
            if upper is None:
                upper = [total] if k + 1 > hi else [Fraction(0)]
            lower = anti.get(k - 1)
            if lower is None:
                lower = [total] if k - 1 > hi else [Fraction(0)]
            shifted_upper = _binomial_shift(upper, 1)
            shifted_lower = _binomial_shift(lower, -1)
            width = max(len(shifted_upper), len(shifted_lower))
            coeffs = [
                half
                * (
                    (shifted_upper[i] if i < len(shifted_upper) else Fraction(0))
                    - (shifted_lower[i] if i < len(shifted_lower) else Fraction(0))
                )
                for i in range(width)
            ]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if coeffs:
                pieces[k] = coeffs
        return PiecewiseDensity(pieces)


def uniform_sum_density(n: int) -> PiecewiseDensity:
    if n < 1:
        raise ValueError("n must be a positive integer")
    density = PiecewiseDensity.uniform()
    for _ in range(n - 1):
        density = density.convolve_uniform()
    return density


def uniform_sum_density_at_zero(n: int) -> Fraction:
    """Exact density at 0 of the sum of n independent uniform[-1, 1] variables."""
    return uniform_sum_density(n).value(Fraction(0))
