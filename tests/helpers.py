"""Shared construction helpers for the test suite."""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import factorial, gcd

from hypothesis import strategies as st

from torusloc import (
    EmptyStage,
    EquivariantClass,
    FixedPoint,
    MultiPoly,
    NotRegular,
    OrientedFlag,
    Plan,
    PlanTerm,
    TorusModel,
    WeightedSpace,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    expand_orbits,
    linear_substitute,
    volume_class,
)
from torusloc.plans import THETA1, THETA1_MIRROR, THETA2, THETA2_MIRROR


# int() refuses decimal literals longer than this; 0 means no limit, as
# before Python 3.10.7 or with PYTHONINTMAXSTRDIGITS=0.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def point_sphere_product(n: int) -> TorusModel:
    """The per-point model of spheres:n: every fixed point, not one per orbit."""
    return expand_orbits(build_sphere_product(n))


def point_cp_product(k: int, n: int) -> TorusModel:
    """The per-point model of the n-fold product of (k-1)-dimensional projective spaces."""
    return expand_orbits(build_cp_product(k, n))


def point_cp2_plan(n: int, variant: str) -> Plan:
    """The cp2:n recipe plan with one term per partition, over point_cp_product(3, n)."""
    return cp2_plan(point_cp_product(3, n), variant)


def monomial_class(model: TorusModel, j1: int, j2: int) -> EquivariantClass:
    """The class restricting to u1^j1 u2^j2 at every fixed point of a rank-2 model."""
    poly = MultiPoly(2, {(j1, j2): 1})
    return EquivariantClass({fp.id: poly for fp in model.fixed_points})


def v_monomial(model: TorusModel, exponents) -> EquivariantClass:
    """Product of factor classes v_i^(exponents[i-1]) on a sphere-product model."""
    cls = EquivariantClass.constant(model, 1)
    for i, power in enumerate(exponents, start=1):
        if power:
            cls = cls * class_generator(model, "v", index=i) ** power
    return cls


def all_v_monomials(n: int, degree: int):
    """All exponent tuples (l1..ln) with sum equal to degree."""
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exponents = [0] * n
        for i in combo:
            exponents[i] += 1
        yield tuple(exponents)


def sizes_of(point_id: str) -> tuple[int, int, int]:
    """Recover the partition sizes from a projective-plane fixed point id."""
    groups = point_id[1:].split("|")
    return tuple(0 if g == "{}" else len(g.strip("{}").split(",")) for g in groups)


def cp2_volume_class(model: TorusModel) -> EquivariantClass:
    """Weyl-corrected volume class of a projective-plane product, divided by m!."""
    cls, m = volume_class(model, "weyl")
    return cls * Fraction(1, factorial(m))


# ----------------------------------------------------------------------
# partition-based reference builders: one frozenset partition per point,
# moments summed per point, ids from sorted sets


def partitions_of(n: int, k: int):
    """All ordered partitions (I_1, ..., I_k) of {1..n} into k disjoint groups."""
    for assignment in itertools.product(range(k), repeat=n):
        parts = [[] for _ in range(k)]
        for element, j in enumerate(assignment, start=1):
            parts[j].append(element)
        yield tuple(frozenset(part) for part in parts)


def ref_sphere_point_id(subset) -> str:
    return "f{" + ",".join(str(i) for i in sorted(subset)) + "}"


def ref_cp_point_id(partition) -> str:
    groups = ["{" + ",".join(str(i) for i in sorted(part)) + "}" for part in partition]
    return "F" + "|".join(groups)


def ref_build_sphere_product(n: int) -> TorusModel:
    points = []
    for bits in itertools.product((0, 1), repeat=n):
        subset = frozenset(i + 1 for i, b in enumerate(bits) if b)
        weights = tuple((-1,) if (i + 1) in subset else (1,) for i in range(n))
        points.append(
            FixedPoint(
                id=ref_sphere_point_id(subset),
                moment=(Fraction(n - 2 * len(subset)),),
                weights=weights,
            )
        )
    return TorusModel(
        rank=1, fixed_points=tuple(points), roots=((1,), (-1,)), weyl_order=2, family=("sphere", n)
    )


def ref_cp_vertex_moments(k: int) -> list[tuple[Fraction, ...]]:
    ones = [Fraction(1)] * (k - 1)
    vertices = []
    for j in range(1, k):
        v = list(ones)
        v[j - 1] -= k
        vertices.append(tuple(v))
    vertices.append(tuple(ones))
    return vertices


def ref_cp_vertex_weights(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """At each vertex v_j of the moment simplex, the weight toward each other
    vertex v_i in order, (v_j - v_i) / k as an integer vector."""
    vertices = ref_cp_vertex_moments(k)
    out = []
    for j, vj in enumerate(vertices):
        weights = []
        for i, vi in enumerate(vertices):
            if i != j:
                w = [(a - b) / k for a, b in zip(vj, vi)]
                assert all(c.denominator == 1 for c in w)
                weights.append(tuple(int(c) for c in w))
        out.append(tuple(weights))
    return out


def ref_build_cp_product(k: int, n: int) -> TorusModel:
    vertices = ref_cp_vertex_moments(k)
    vertex_weights = ref_cp_vertex_weights(k)
    points = []
    for partition in partitions_of(n, k):
        moment = tuple(
            sum((len(part) * v[i] for part, v in zip(partition, vertices)), Fraction(0))
            for i in range(k - 1)
        )
        weights = []
        for element in range(1, n + 1):
            j = next(idx for idx, part in enumerate(partition) if element in part)
            weights.extend(vertex_weights[j])
        points.append(
            FixedPoint(id=ref_cp_point_id(partition), moment=moment, weights=tuple(weights))
        )
    roots = weyl = None
    if k == 3:
        roots = ((1, -1), (-1, 1), (1, 0), (-1, 0), (0, 1), (0, -1))
        weyl = 6
    return TorusModel(
        rank=k - 1, fixed_points=tuple(points), roots=roots, weyl_order=weyl, family=("cp", k, n)
    )


def ref_cp2_plan(n: int, variant: str) -> Plan:
    """The two-region recipe, with each predicate tested on each partition."""
    third = Fraction(n, 3)
    high = lambda i1, i2, i3: i1 > third and i3 > third
    low = lambda i1, i2, i3: i2 < third and i3 < third
    predicates = {
        "general": ((high, THETA1), (low, THETA2)),
        "swapped": ((high, THETA2), (low, THETA1)),
        "mirror": (
            (lambda i1, i2, i3: i2 > third and i3 > third, THETA2_MIRROR),
            (lambda i1, i2, i3: i1 < third and i3 < third, THETA1_MIRROR),
        ),
    }[variant]
    terms = []
    for partition in partitions_of(n, 3):
        sizes = tuple(len(part) for part in partition)
        for predicate, flag in predicates:
            if predicate(*sizes):
                terms.append(PlanTerm(1, ref_cp_point_id(partition), flag))
                break
    return Plan(tuple(terms))


def ref_rank1_plan(model: TorusModel, p0, direction: int) -> Plan:
    """The rank-1 path plan with the wall check and side test run on every point."""
    p0 = Fraction(p0)
    if any(fp.moment[0] == p0 for fp in model.fixed_points):
        raise NotRegular(f"{p0} is a wall value")
    flag = OrientedFlag(((direction,),))
    return Plan(tuple(
        PlanTerm(1, fp.id, flag)
        for fp in model.fixed_points
        if (fp.moment[0] - p0) * direction > 0
    ))


def ref_wall_entries(model: TorusModel, xi) -> tuple:
    """Wall values against xi, summed afresh at every point, with their point ids."""
    groups: dict[Fraction, list[str]] = {}
    for fp in model.fixed_points:
        value = sum((c * m for c, m in zip(xi, fp.moment)), Fraction(0))
        groups.setdefault(value, []).append(fp.id)
    return tuple((value, tuple(groups[value])) for value in sorted(groups))


# ----------------------------------------------------------------------
# plain-Fraction polynomial reference for the integer kernels


def ref_terms(p: MultiPoly) -> dict:
    """The terms of p with every coefficient as a Fraction."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_degree_part(p: MultiPoly, e: int) -> MultiPoly:
    """The terms of p of total exponent exactly e, filtered from ``terms``."""
    return MultiPoly(p.nvars, {exp: c for exp, c in p.terms.items() if sum(exp) == e})


def check_graded_prefix(pieces_through, k: int, big: int):
    """Assert that pieces_through(order) gives order + 1 polynomials, piece n
    holding only exponents of total n, and that the pieces through k are the
    first k + 1 of those through big."""
    short, long = pieces_through(k), pieces_through(big)
    assert len(short) == k + 1 and len(long) == big + 1
    assert short == long[: k + 1]
    for n, piece in enumerate(long):
        assert isinstance(piece, MultiPoly)
        assert all(sum(e) == n for e in piece.numerators)


def ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    """Product of two {exponent: Fraction} dictionaries, zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_invert(a: dict, nvars: int, order: int) -> dict:
    """Coefficients of 1/a through total degree ``order`` by the recurrence
    a * s = 1, solved degree by degree."""
    zero = (0,) * nvars
    c0 = a[zero]
    monomials = [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]
    s = {}
    for e in sorted(monomials, key=sum):
        acc = Fraction(int(e == zero))
        for f, c in a.items():
            g = tuple(x - y for x, y in zip(e, f))
            if f != zero and min(g) >= 0:
                acc -= c * s.get(g, Fraction(0))
        s[e] = acc / c0
    return ref_clean(s)


def ref_segre(space: WeightedSpace, order: int) -> dict:
    """The weighted Segre class through ``order`` as {exponent: Fraction}: the
    full Chern product over the lines, each w + sum_i r_i u_i, inverted by
    ref_invert.  Shares no code with the engine."""
    n = space.residual_count
    chern = {(0,) * n: Fraction(1)}
    for w, residual in space.lines:
        form = {(0,) * n: Fraction(w)}
        for i, a in enumerate(residual):
            if a:
                form[tuple(int(i == j) for j in range(n))] = Fraction(a)
        chern = ref_mul(chern, form)
    return ref_invert(chern, n, order)


# ----------------------------------------------------------------------
# per-power reference for the integer stage fold: the stage map built as
# one product per stage-variable power against the Fraction Segre class
# above, and the fold over the flag split computed afresh


def ref_stage_map(p: MultiPoly, space: WeightedSpace) -> MultiPoly:
    """gcd * sum_{j >= r-1} a_j s_{j-r+1}, one product per power j."""
    if space.is_empty():
        raise EmptyStage("stage map over an empty space")
    if p.nvars != space.residual_count + 1:
        raise ValueError(
            f"polynomial has {p.nvars} variables, expected {space.residual_count + 1}"
        )
    r = space.rank
    coefficients: dict[int, dict] = {}
    for exp, coeff in p.terms.items():
        coefficients.setdefault(exp[0], {})[exp[1:]] = Fraction(coeff)
    max_index = max(coefficients, default=-1) - r + 1
    if max_index < 0:
        return MultiPoly.zero(space.residual_count)
    segre = ref_segre(space, max_index)
    k = gcd(*(w for w, _ in space.lines))
    out: dict = {}
    for j, residual_terms in coefficients.items():
        if j < r - 1:
            continue
        piece = {e: c for e, c in segre.items() if sum(e) == j - r + 1}
        for e, c in ref_mul(residual_terms, piece).items():
            out[e] = out.get(e, Fraction(0)) + c * k
    return MultiPoly(space.residual_count, ref_clean(out))


def ref_lambda_flag(model: TorusModel, fp_id: str, flag, cls: EquivariantClass) -> Fraction:
    """lambda_flag with its own flag split and ref_stage_map folded on
    MultiPoly values."""
    d = flag.rank
    stage_lines = [[] for _ in range(d)]
    for weight in model.fixed_point(fp_id).weights:
        transformed = tuple(sum(a * x for a, x in zip(weight, stage)) for stage in flag.stages)
        j = next(i for i, c in enumerate(transformed) if c)
        stage_lines[j].append((transformed[j], transformed[j + 1 :]))
    if not all(stage_lines):
        return Fraction(0)
    current = linear_substitute(cls.at(fp_id), flag.stages)
    for j, lines in enumerate(stage_lines):
        current = ref_stage_map(current, WeightedSpace(tuple(lines), d - j - 1))
    return current.as_constant() * model.global_stabilizer_order


# ----------------------------------------------------------------------
# Hypothesis strategies shared by the kernel tests


def exact_shape(p: MultiPoly) -> bool:
    """Every coefficient `terms` reads is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values()
    )


mixed_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
    st.integers(-6, 6).map(Fraction),  # integral, but stored as Fraction
)


def mixed_polys(nvars, max_exp=3, max_terms=5):
    exponents = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exponents, mixed_coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(nvars, terms)
    )


@st.composite
def unimodular(draw, d):
    """A random integer basis of determinant +-1, built from row operations."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        k = draw(st.integers(-2, 2))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[0] = [-a for a in rows[0]]
    return [tuple(row) for row in rows]


# ----------------------------------------------------------------------
# class-expression trees for the parser properties
#
# An expression is a tuple of (op, term) pairs, op "" / "-" / "+" for the
# first term and "+" / "-" after it; a term is (coefficient, factors) with
# coefficient None or a (numerator, denominator or None) pair; a factor is
# ("gen", text, power, kind, index, direction), ("group", expression, power)
# or ("weyl", expression), with power None when no exponent is written and
# kind, index and direction the arguments of class_generator.


def render_expr(expr, sep: str = " ") -> tuple[str, list[int]]:
    """The text of an expression tree, with sep between tokens, and the
    offset of each weyl(...) in source order."""
    out: list[str] = []
    weyls: list[int] = []

    def expr_text(expr):
        for i, (op, term) in enumerate(expr):
            if i:
                out.append(sep)
            if op:
                out.extend((op, sep))
            coefficient, factors = term
            if coefficient is not None:
                num, den = coefficient
                out.append(f"{num}*" if den is None else f"{num}/{den}*")
            for j, factor in enumerate(factors):
                if j:
                    out.append("*")
                if factor[0] == "gen":
                    out.append(factor[1])
                elif factor[0] == "group":
                    out.append("(")
                    expr_text(factor[1])
                    out.append(")")
                else:
                    weyls.append(len("".join(out)))
                    out.append("weyl(")
                    expr_text(factor[1])
                    out.append(")")
                    continue
                if factor[2] is not None:
                    out.append(f"^{factor[2]}")

    expr_text(expr)
    return "".join(out), weyls


def misplaced_weyl(expr) -> int | None:
    """Source-order index of the first weyl(...) that is not the single
    factor of the single term of the whole expression, or None: the
    placement rule of the class language, walked on the tree."""
    count = 0

    def walk(expr, outermost):
        nonlocal count
        for _, (_, factors) in expr:
            for factor in factors:
                if factor[0] == "weyl":
                    index = count
                    count += 1
                    if not (outermost and len(expr) == 1 and len(factors) == 1):
                        return index
                if factor[0] != "gen":
                    found = walk(factor[1], False)
                    if found is not None:
                        return found
        return None

    return walk(expr, True)


def line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of an offset into text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
