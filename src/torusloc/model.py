"""Torus action models given by isolated fixed-point data.

A model records, for a rank-d torus action, the finite list of fixed
points, each with its moment image in t* and the integer weights of the
action on its tangent space.  Optional root data (closed under negation,
with the Weyl group order) supports reduction from a nonabelian group to
its maximal torus.

The two built-in families are products of 2-spheres rotated diagonally by
a circle, and products of projective planes acted on by the rank-2 maximal
torus of the projective unitary group.  Both are n-fold products of one
toric factor, and permuting the n factors maps fixed points to fixed
points.  The builders return the orbit model: one representative point
per orbit, that is per group-size vector, which records how many points
its orbit holds.  Every class that is invariant under permuting the
factors pairs the same on it, with the orbit sizes as plan coefficients,
as on the whole product.  ``expand_orbits`` lists every point, for plan
files and the per-factor ``v`` classes.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, prod
from typing import IO, Sequence, Union

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ModelFormatError,
    ModelTooLarge,
    TorusLocError,
    UnknownGenerator,
    Unsupported,
)
from .frozen import Frozen
from .poly import MultiPoly, check_exponent

Weight = tuple[int, ...]
Moment = tuple[Fraction, ...]

# An orbit model may hold at most this many orbit types times factors
# (spheres:1023 and cp2:127 are the largest legal sizes), and a per-point
# expansion at most this many points (spheres:20 and cp2:12).
MAX_FIXED_POINTS = 2**20


class _SortedWeights:
    """``FixedPoint.sorted_weights``: the weights as a canonical multiset;
    flag evaluations depend only on it.  The builders set it when they
    make a point, once per size vector.  A loaded point computes it on
    its first read and keeps it in its instance dict, which shadows this
    descriptor from then on; unlike ``cached_property`` no lock is taken.
    """

    def __get__(self, fp, owner=None):
        if fp is None:
            return self
        value = fp.__dict__["sorted_weights"] = tuple(sorted(fp.weights))
        return value


class FixedPoint(Frozen):
    """An isolated fixed point: identifier, moment image, tangent weights.

    The id must be a ``str``.  Each weight must be a list or tuple of
    ``int``; a float, string or boolean entry raises ModelFormatError
    instead of being truncated, and so does a zero weight, since the point
    would not be isolated.  Moment entries go through _parse_rational: a
    float or boolean, a string read_number does not read as a rational
    ("p/0", "x", " 3", "1_000") or any other type raises too.
    """

    _fields = ("id", "moment", "weights")

    def __init__(self, id: str, moment: Moment, weights: tuple[Weight, ...]):
        if not isinstance(id, str):
            raise ModelFormatError(f"fixed point id must be a string, got {id!r}")
        if type(moment) is not tuple or {*map(type, moment)} - {Fraction}:
            moment = tuple(moment)
            if any(isinstance(m, (float, bool)) for m in moment):
                raise ModelFormatError(
                    f"fixed point {id!r}: moment {moment!r} has a float or boolean entry"
                )
            try:
                moment = tuple(map(_parse_rational, moment))
            except ModelFormatError as err:
                raise ModelFormatError(f"fixed point {id!r}: {err}") from None
        weights = tuple(weights)
        kinds = {*map(type, weights)}
        # One pass over all entries; only a failing point pays the per-weight
        # check, which names the first bad weight.
        if kinds <= {tuple, list} and {*map(type, itertools.chain.from_iterable(weights))} <= {int}:
            if list in kinds:
                weights = tuple(map(tuple, weights))
        else:
            what = f"fixed point {id!r}: weight"
            weights = tuple(strict_int_vector(w, what) for w in weights)
        if not all(map(any, weights)):
            raise ModelFormatError(f"fixed point {id!r}: zero tangent weight")
        # set one by one, as _make sets them: load_model makes a point per entry
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "moment", moment)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _make(cls, id: str, moment: Moment, weights: tuple[Weight, ...],
              sorted_weights: tuple[Weight, ...]) -> "FixedPoint":
        """Internal constructor for checked parts, with ``tuple(sorted(weights))``
        given; fields are set in order so the instance dicts share their keys."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "id", id)
        object.__setattr__(obj, "moment", moment)
        object.__setattr__(obj, "weights", weights)
        object.__setattr__(obj, "sorted_weights", sorted_weights)
        return obj

    sorted_weights = _SortedWeights()


class TorusModel(Frozen):
    """A rank-d torus action described entirely by its fixed points; family
    is the builder tag, e.g. ("sphere", n) or ("cp", k, n).  orbit_sizes[i]
    is the number of points fixed_points[i] stands for: 1 for every point
    by default, as in a loaded model, and multinomial(n; sizes) for an
    orbit representative of a builder.  Models compare and hash by
    identity."""

    _fields = ("rank", "fixed_points", "roots", "weyl_order", "global_stabilizer_order",
               "family", "orbit_sizes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rank: int, fixed_points: tuple[FixedPoint, ...],
                 roots: tuple[Weight, ...] | None = None, weyl_order: int | None = None,
                 global_stabilizer_order: int = 1, family: tuple | None = None,
                 orbit_sizes: tuple[int, ...] | None = None):
        fixed_points = tuple(fixed_points)
        if orbit_sizes is None:
            orbit_sizes = (1,) * len(fixed_points)
        else:
            orbit_sizes = tuple(orbit_sizes)
            if len(orbit_sizes) != len(fixed_points) or not all(
                type(size) is int and size > 0 for size in orbit_sizes
            ):
                raise ModelFormatError("orbit_sizes must hold one positive integer per fixed point")
        self._set(rank, fixed_points, roots, weyl_order, global_stabilizer_order, family, orbit_sizes)
        strict_int(rank, "rank")
        strict_int(global_stabilizer_order, "global_stabilizer_order")
        if weyl_order is not None:
            strict_int(weyl_order, "weyl_order")
        if rank < 1:
            raise ModelFormatError("rank must be a positive integer")
        if global_stabilizer_order < 1:
            raise ModelFormatError("global_stabilizer_order must be positive")
        if weyl_order is not None and weyl_order < 1:
            raise ModelFormatError("weyl_order must be positive")
        self._scan_points()
        if roots is not None:
            if not isinstance(roots, (list, tuple)):
                raise ModelFormatError(f"roots must be a list, got {roots!r}")
            roots = tuple(strict_int_vector(r, "root") for r in roots)
            object.__setattr__(self, "roots", roots)
            if len(roots) % 2:
                raise ModelFormatError("root list must have even length")
            for r in roots:
                if len(r) != rank:
                    raise ModelFormatError(f"root {r} has length {len(r)}, expected {rank}")
                if tuple(-a for a in r) not in roots:
                    raise ModelFormatError(f"root list is not closed under negation: {r}")

    @classmethod
    def _make(cls, *fields) -> "TorusModel":
        """Internal constructor for fields in ``_fields`` order that are
        already checked, such as a builder's points: no point is scanned."""
        obj = object.__new__(cls)
        obj._set(*fields)
        return obj

    def _scan_points(self):
        """Raise ModelFormatError naming the first fixed point that fails a check."""
        seen = set()
        n_weights = None
        for fp in self.fixed_points:
            if fp.id in seen:
                raise ModelFormatError(f"duplicate fixed point id {fp.id!r}")
            seen.add(fp.id)
            if len(fp.moment) != self.rank:
                raise ModelFormatError(
                    f"fixed point {fp.id!r}: moment has length {len(fp.moment)}, expected {self.rank}"
                )
            if n_weights is None:
                n_weights = len(fp.weights)
            elif len(fp.weights) != n_weights:
                raise ModelFormatError(
                    f"fixed point {fp.id!r}: {len(fp.weights)} weights, expected {n_weights}"
                )
            for w in fp.weights:
                if len(w) != self.rank:
                    raise ModelFormatError(
                        f"fixed point {fp.id!r}: weight {w} has length {len(w)}, expected {self.rank}"
                    )

    @cached_property
    def _by_id(self) -> dict[str, FixedPoint]:
        return {fp.id: fp for fp in self.fixed_points}

    def fixed_point(self, fp_id: str) -> FixedPoint:
        return self._by_id[fp_id]

    def has_fixed_point(self, fp_id: str) -> bool:
        return fp_id in self._by_id

    def map_moments(self, fn) -> list:
        """fn(fp.moment) for every fixed point, in point order, with fn run once
        per distinct moment object, in order of first appearance.  The builders
        hand every point of a size vector one moment tuple, and keying by
        identity spares an expansion hashing Fractions at every point.  The
        points keep their moments alive, so no id is reused while keys live."""
        keys = [id(fp.moment) for fp in self.fixed_points]
        results = {key: fn(fp.moment) for key, fp in dict(zip(keys, self.fixed_points)).items()}
        return [results[key] for key in keys]

    @cached_property
    def has_orbits(self) -> bool:
        """Whether some point stands for more than one; see expand_orbits."""
        return any(size != 1 for size in self.orbit_sizes)

    @property
    def weights_per_point(self) -> int:
        return len(self.fixed_points[0].weights) if self.fixed_points else 0


# A class worked out on read reads its inputs' restrictions at the same
# point, three Python frames per operation down the chain.  An operation
# whose input is this many operations deep reads out every restriction of
# that input first, so a long sum or product such as L + L + ... + L stays
# far below the recursion limit.
MAX_LAZY_DEPTH = 64


class _Restrictions(Mapping):
    """A class's restrictions by fixed point id, each worked out by
    ``compute(fp_id)`` on its first read and kept.

    ``ids`` is the keys view of the dict the ids come from, so it is
    shared down a chain of operations and compared at C speed.  A
    restriction is never None, and ``depth`` is the number of operations
    down to a dict class.
    """

    __slots__ = ("_ids", "_compute", "_values", "depth")

    def __init__(self, ids, compute, depth: int):
        self._ids, self._compute, self._values, self.depth = ids, compute, {}, depth

    def get(self, fp_id, default=None):
        value = self._values.get(fp_id)
        if value is None:
            if fp_id not in self._ids:
                return default
            value = self._values[fp_id] = self._compute(fp_id)
        return value

    def __getitem__(self, fp_id):
        value = self.get(fp_id)
        if value is None:
            raise KeyError(fp_id)
        return value

    def keys(self):
        return self._ids

    def __contains__(self, fp_id):
        return fp_id in self._ids

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)

    def __repr__(self):
        return repr(dict(self))


def _shallow(restrictions):
    """The restrictions as they are, or read out into a dict if they are
    MAX_LAZY_DEPTH operations deep."""
    if type(restrictions) is _Restrictions and restrictions.depth >= MAX_LAZY_DEPTH:
        return dict(restrictions)
    return restrictions


class EquivariantClass(Frozen):
    """A cohomology class stored as one polynomial restriction per fixed point.

    A class given as a dict, as the generators give theirs, keeps a copy
    of it, checked once, here: a restriction that is not a MultiPoly
    raises TypeError, and restrictions in more than one number of
    variables DimensionMismatch.  The arithmetic returns classes whose
    restrictions are worked out when a point is first read
    (``_Restrictions``), so a pairing computes only the restrictions at
    the points its plan names.  Arithmetic runs once per distinct
    restriction (or pair of them), and points with equal inputs share the
    result object.  Each operator still raises at its call on operands
    that do not fit: ``**`` checks its exponent, and ``+``, ``-``, ``*``
    and ``weyl_correct`` work out their first point at once, which fails
    if any point does.  Equality, ``repr``, pickling and copying read
    every restriction; a pickle or copy holds a plain dict.
    """

    _fields = ("restrictions",)

    def __init__(self, restrictions: dict[str, MultiPoly]):
        restrictions = dict(restrictions)
        values = restrictions.values()
        # two passes at C speed; only a failing class pays the loop naming its first bad point
        if {*map(type, values)} - {MultiPoly} or len({*map(operator.attrgetter("nvars"), values)}) > 1:
            first = next(iter(values))
            for fp_id, p in restrictions.items():
                if not isinstance(p, MultiPoly):
                    raise TypeError(f"restriction at fixed point {fp_id!r} must be a MultiPoly, got {p!r}")
                if p.nvars != first.nvars:
                    raise DimensionMismatch(f"restriction at fixed point {fp_id!r} has {p.nvars} variables,"
                                            f" but the first restriction has {first.nvars}")
        self._set(restrictions)

    def __reduce__(self):
        return (EquivariantClass, (dict(self.restrictions),))

    def at(self, fp_id: str) -> MultiPoly:
        return self.restrictions[fp_id]

    def pointwise(self, op, other: "EquivariantClass | None" = None) -> "EquivariantClass":
        """The class restricting to op(self.at(F)), or op(self.at(F), other.at(F)).

        Only the fixed-point sets are compared at the call (ValueError if
        they differ); op runs when a point is first read, once per
        distinct input polynomial or pair of them, keyed by value, and each
        result is kept; a result that is not a MultiPoly raises TypeError
        naming the point.  An input MAX_LAZY_DEPTH operations deep is read
        out at the call.  The operators call ``_checked`` on the result
        so that their errors are raised at their own call.
        """
        ids = self.restrictions.keys()
        if other is not None and other.restrictions.keys() != ids:
            raise ValueError("classes restrict to different fixed-point sets")
        first = _shallow(self.restrictions)
        second = None if other is None else _shallow(other.restrictions)
        depth = 1 + max(getattr(first, "depth", 0), getattr(second, "depth", 0))
        memo: dict = {}  # by the input, or the pair of inputs

        def compute(fp_id):
            key = first[fp_id] if second is None else (first[fp_id], second[fp_id])
            value = memo.get(key)
            if value is None:
                value = op(key) if second is None else op(*key)
                if not isinstance(value, MultiPoly):
                    raise TypeError(f"op result at fixed point {fp_id!r} must be a MultiPoly, got {value!r}")
                memo[key] = value
            return value

        obj = object.__new__(EquivariantClass)
        obj._set(_Restrictions(ids, compute, depth))
        return obj

    def _checked(self) -> "EquivariantClass":
        """This class, with its first restriction worked out, so that an
        operation whose operands do not fit raises now, at its call."""
        next(iter(self.restrictions.values()), None)
        return self

    def __add__(self, other):
        if isinstance(other, EquivariantClass):
            return self.pointwise(operator.add, other)._checked()
        return self.pointwise(lambda p: p + other)._checked()

    def __sub__(self, other):
        if isinstance(other, EquivariantClass):
            return self.pointwise(operator.sub, other)._checked()
        return self.pointwise(lambda p: p - other)._checked()

    def __mul__(self, other):
        if isinstance(other, EquivariantClass):
            return self.pointwise(operator.mul, other)._checked()
        return self.pointwise(lambda p: p * other)._checked()

    __rmul__ = __mul__

    def __pow__(self, n: int):
        check_exponent(n)
        return self.pointwise(lambda p: p**n)


# ----------------------------------------------------------------------
# built-in families


def check_family_size(name: str, k: int, n: int):
    """Raise ModelTooLarge if the k**n points of a per-point expansion
    exceed MAX_FIXED_POINTS.

    Every family has k >= 2, so k**e exceeds the limit already at
    e = MAX_FIXED_POINTS.bit_length(); capping the exponent there gives
    the same answer and keeps a huge n cheap.
    """
    if k ** min(n, MAX_FIXED_POINTS.bit_length()) > MAX_FIXED_POINTS:
        raise ModelTooLarge(
            f"{name}:{n} has {k}^{n} fixed points, more than the limit {MAX_FIXED_POINTS}"
        )


def check_orbit_size(name: str, k: int, n: int):
    """Raise ModelTooLarge if an orbit model would hold more than
    MAX_FIXED_POINTS factor vertices: C(n+k-1, k-1) orbit types of n each.

    Each representative holds n blocks of vertex weights, so this bounds
    the memory of the model, and of the classes and plans over it.
    """
    types = comb(n + k - 1, k - 1)
    if types * n > MAX_FIXED_POINTS:
        raise ModelTooLarge(
            f"{name}:{n} has {types} orbit types of fixed points with {n} factors each,"
            f" more than the limit {MAX_FIXED_POINTS}"
        )


def orbit_types(n: int, k: int):
    """Each size vector of the elements 1..n in k groups, as (sizes, groups,
    orbit size) for the first word with these sizes in product order.

    That word puts the groups in consecutive blocks, 1..sizes[0] in group
    0 and so on; groups[j] is the comma-joined labels of group j, as
    group_walk joins them.  Size vectors come in the order their first
    words do, and the orbit size is the multinomial(n; sizes) words with
    these sizes.
    """
    labels = [str(i) for i in range(1, n + 1)]
    for word in itertools.combinations_with_replacement(range(k), n):
        sizes = tuple(map(word.count, range(k)))
        ends = itertools.accumulate(sizes)
        groups = tuple(",".join(labels[end - size : end]) for size, end in zip(sizes, ends))
        yield sizes, groups, factorial(n) // prod(map(factorial, sizes))


def group_walk(n: int, k: int, pieces: Sequence[tuple]):
    """Every assignment of the elements 1..n to k groups, as (joined, groups, sizes).

    Words run over {0..k-1}^n in itertools.product order; element i goes
    to group word[i-1].  joined is pieces[word[0]] + ... + pieces[word[-1]],
    groups[j] the comma-joined decimal labels of the elements in group j
    in increasing order, ready for a point id, and sizes[j] their count.
    A depth-first walk extends the three tuples of a prefix by one element
    at a time, so a word costs a few tuple and string joins and no list,
    and the words stream: the stack holds at most k entries per level.
    """
    labels = [str(i) for i in range(1, n + 1)]
    later = ["," + label for label in labels]
    forward, backward = range(k), range(k - 1, -1, -1)
    stack = [(0, (), ("",) * k, (0,) * k)]
    while stack:
        depth, joined, groups, sizes = stack.pop()
        label, clabel = labels[depth], later[depth]
        depth += 1
        leaf = depth == n
        # Inner nodes push their children last to first, so they pop in
        # product order.
        for j in forward if leaf else backward:
            group = groups[j]
            child = (
                joined + pieces[j],
                groups[:j] + ((group + clabel) if group else label,) + groups[j + 1 :],
                sizes[:j] + (sizes[j] + 1,) + sizes[j + 1 :],
            )
            if leaf:
                yield child
            else:
                stack.append((depth, *child))


def cp_label_id(groups: Sequence[str]) -> str:
    """Id of the projective-product point with these joined label groups, "F{1,2}|{}|{3}"."""
    return "F{" + "}|{".join(groups) + "}"


def product_factor(family: tuple):
    """The toric factor of a builder's family tag, as (name, k, vertex
    weights, moment of a size vector, point id of the label groups).

    A point puts each factor at one of the k vertices; its weights are its
    vertices' weights laid end to end, and its moment depends only on how
    many factors sit at each vertex.
    """
    n = family[-1]
    if family[0] == "sphere":
        return ("spheres", 2, (((1,),), ((-1,),)),
                lambda sizes: (Fraction(n - 2 * sizes[1]),),
                lambda groups: "f{" + groups[1] + "}")
    k = family[1]
    return (f"cp{k - 1}", k, cp_vertex_weights(k),
            lambda sizes: tuple(Fraction(n - k * size) for size in sizes[:-1]),
            cp_label_id)


def family_orbits(family: tuple):
    """(sizes, point id, orbit size) for each orbit type of a family tag,
    in the order of its orbit model; a size check_orbit_size refuses
    raises ModelTooLarge here, before the first one."""
    name, k, _, _, point_id = product_factor(family)
    n = family[-1]
    check_orbit_size(name, k, n)
    return ((sizes, point_id(groups), orbit_size) for sizes, groups, orbit_size in orbit_types(n, k))


def _build_orbits(family: tuple, rank: int, roots, weyl_order) -> TorusModel:
    """The orbit model of a family tag, with these model fields: per size
    vector, the first point of its orbit in product order, with its orbit
    size.  The builder makes every field checked, so no point is scanned."""
    _, _, vertex_weights, moment_of_sizes, _ = product_factor(family)
    points, orbit_sizes = [], []
    for sizes, fp_id, orbit_size in family_orbits(family):
        weights = tuple(itertools.chain.from_iterable(
            block * size for block, size in zip(vertex_weights, sizes)
        ))
        points.append(FixedPoint._make(fp_id, moment_of_sizes(sizes), weights, tuple(sorted(weights))))
        orbit_sizes.append(orbit_size)
    return TorusModel._make(rank, tuple(points), roots, weyl_order, 1, family, tuple(orbit_sizes))


def expand_orbits(model: TorusModel) -> TorusModel:
    """The per-point model of a builder's orbit model: the points in product
    order, each with its representative's moment and sorted-weight tuples.
    A plan for it comes from running a recipe on it.  A model without
    orbits, such as a loaded one, comes back as it is; a size above the
    per-point limit raises ModelTooLarge before a point is made."""
    if not model.has_orbits:
        return model
    if model.family is None:
        raise Unsupported("only the orbit models of the built-in families expand")
    name, k, vertex_weights, _, point_id = product_factor(model.family)
    n = model.family[-1]
    check_family_size(name, k, n)
    reps = {sizes: fp for (sizes, _, _), fp in zip(orbit_types(n, k), model.fixed_points)}
    make = FixedPoint._make
    points = []
    for weights, groups, sizes in group_walk(n, k, vertex_weights):
        rep = reps[sizes]
        points.append(make(point_id(groups), rep.moment, weights, rep.sorted_weights))
    # the builder made every point, and the orbit model's fields are checked
    return TorusModel._make(model.rank, tuple(points), model.roots, model.weyl_order,
                            model.global_stabilizer_order, model.family, (1,) * len(points))


def build_sphere_product(n: int) -> TorusModel:
    """The orbit model of the n-fold product of 2-spheres under the
    diagonal circle rotation.

    The k = 2 product with vertices north (weight +1) and south (weight -1):
    the point "f{I}" has the factors in I at the south pole and moment value
    n - 2|I|.  The orbit of |I| = s has C(n, s) points, and its
    representative is "f{n-s+1,...,n}".  Root data for the ambient rotation
    group (roots +1, -1 and Weyl order 2) is attached.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")
    return _build_orbits(("sphere", n), 1, ((1,), (-1,)), 2)


def cp_vertex_weights(k: int) -> list[tuple[Weight, ...]]:
    """Tangent weights at each coordinate fixed point of one projective factor.

    At vertex j they are the edge directions e_i - e_j of the moment
    simplex, for i != j in order, with e_1, ..., e_{k-1} the lattice basis
    and e_k = 0.
    """
    e = [tuple(int(i == a) for a in range(k - 1)) for i in range(k)]
    return [
        tuple(tuple(a - b for a, b in zip(e[i], e[j])) for i in range(k) if i != j)
        for j in range(k)
    ]


def build_cp_product(k: int, n: int) -> TorusModel:
    """The orbit model of the n-fold product of (k-1)-dimensional
    projective spaces.

    The acting torus is the rank k-1 maximal torus of the projective
    unitary group; fixed points are indexed by ordered partitions of
    {1..n} into k groups, one per coordinate point of the factor.  The
    j-th coordinate point has moment (1, ..., 1) - k e_j (the last one
    (1, ..., 1)), so a point whose groups have sizes (i_1, ..., i_k) has
    moment (n - k i_1, ..., n - k i_{k-1}).  Its orbit has
    multinomial(n; i_1, ..., i_k) points, and its representative has the
    groups in consecutive blocks, "F{1,2}|{3}|{4}".  For k = 3 the six
    roots and Weyl order 6 are attached.
    """
    if type(k) is not int or k < 2:
        raise ValueError("k must be an integer of at least 2")
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")
    roots = None
    weyl = None
    if k == 3:
        roots = ((1, -1), (-1, 1), (1, 0), (-1, 0), (0, 1), (0, -1))
        weyl = 6
    return _build_orbits(("cp", k, n), k - 1, roots, weyl)


# ----------------------------------------------------------------------
# class generators


def class_generator(model: TorusModel, kind: str, index: int | None = None,
                    direction: Sequence[int] | None = None) -> EquivariantClass:
    """Return one of the standard generating classes of a model.

    kind "prequantum": restriction <moment(F), u> at each F.
    kind "v": per-point sphere products only; the i-th factor class
        restricting to +u off the subset and -u on it, for an ``int``
        index i in 1..n.  On an orbit model it raises Unsupported.
    kind "line": the constant linear form <direction, u> at every point;
        direction is a list or tuple of ``int`` or ``Fraction`` entries.
    A bad index or direction raises IndexOutOfRange.
    """
    if kind == "prequantum":  # points holding one moment tuple share one form
        forms = model.map_moments(MultiPoly.linear_form)
        return EquivariantClass({fp.id: form for fp, form in zip(model.fixed_points, forms)})
    if kind == "line":
        if not isinstance(direction, (list, tuple)) or len(direction) != model.rank:
            raise IndexOutOfRange(f"line class needs a direction of length {model.rank}")
        form = MultiPoly.linear_form(
            [strict_rational(a, "line direction entry", IndexOutOfRange) for a in direction]
        )
        return EquivariantClass({fp.id: form for fp in model.fixed_points})
    if kind == "v":
        if not (model.family and model.family[0] == "sphere"):
            raise UnknownGenerator("v classes exist only on sphere-product models")
        n = model.family[1]
        if index is None or not 1 <= strict_int(index, "v index", IndexOutOfRange) <= n:
            raise IndexOutOfRange(f"v index must lie in 1..{n}")
        if model.has_orbits:
            # v<i> is invariant only under the permutations fixing i
            raise Unsupported(
                "v classes need the per-point model; expand the orbit model with expand_orbits"
            )
        u = MultiPoly.variable(1, 0)
        restrictions = {}
        for fp in model.fixed_points:
            sign = fp.weights[index - 1][0]  # +1 off the subset, -1 on it
            restrictions[fp.id] = u * sign
        return EquivariantClass(restrictions)
    raise UnknownGenerator(f"unknown class generator {kind!r}")


# ----------------------------------------------------------------------
# model files


def _parse_rational(value) -> Fraction:
    """An int or Fraction, or a string read_number reads as a rational, as a
    Fraction; any other value or text raises ModelFormatError."""
    if isinstance(value, str):
        return read_number(value, f"rational value {value!r}", Fraction, error=ModelFormatError)
    return strict_rational(value, "rational value", ModelFormatError)


def read_number(text: str, what: str, kind: type = int, signed: bool = True,
                error: type[Exception] = ValueError):
    """The int, or with kind=Fraction the rational ("p/q" or a decimal), that
    text writes; what names the text, as "--xi '1,x': each entry".  int()
    and Fraction() also take whitespace, '_' and digits other than 0-9;
    those, a sign unless signed, and text kind cannot read raise error
    naming what, and a number with a part too long for int() the digit
    count of its longest part."""
    if text.isascii() and "_" not in text and text.split() == [text] and (signed or text.isdigit()):
        try:
            return kind(text)
        except ZeroDivisionError:
            raise error(f"{what} has a zero denominator") from None
        except ValueError:
            shape = "[0-9]+" if kind is int else r"(?=\.?[0-9])[0-9]*(/[0-9]+|\.?[0-9]*(e[+-]?[0-9]+)?)"
            if re.fullmatch("[+-]?" + shape, text, re.IGNORECASE):  # well formed, so a part is too long
                digits = max(map(len, re.findall("[0-9]+", text)))  # for int(); left out of the message
                raise error(f"{what.replace(text, '...')} has {digits} digits, too many to read") from None
    raise error(f"{what} must be written in the digits 0-9")


def strict_int(value, what: str, error: type[TorusLocError] = ModelFormatError) -> int:
    """A JSON integer taken as is; floats, strings and booleans are rejected."""
    if type(value) is int:
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def strict_rational(value, what: str, error: type[TorusLocError]) -> Fraction:
    """An ``int`` or ``Fraction`` as a Fraction; floats, strings and booleans
    are rejected rather than coerced."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    raise error(f"{what} must be an int or a Fraction, got {value!r}")


def strict_int_vector(value, what: str, error: type[TorusLocError] = ModelFormatError) -> tuple[int, ...]:
    """A list or tuple of integers as a tuple, checked as strict_int checks one."""
    if isinstance(value, (list, tuple)) and all(type(a) is int for a in value):
        return tuple(value)
    raise error(f"{what} must be a list of integers, got {value!r}")


def read_json(source: Union[str, IO[str]], error: type[TorusLocError]):
    """Parse a JSON file path or open text stream; text that is not UTF-8
    JSON, nests deeper than the interpreter recurses or holds an integer
    longer than int() reads raises error."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as err:
        raise error(f"malformed JSON: {err}") from None


def load_model(source: Union[str, IO[str]]) -> TorusModel:
    """Load a model from a JSON file path or open text stream.

    Ids must be JSON strings, moments JSON lists and integer fields JSON
    integers; FixedPoint and TorusModel check every field they hold.
    Validation failures report the first offending fixed point id.
    """
    data = read_json(source, ModelFormatError)
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    try:
        rank = data["rank"]
        raw_points = data["fixed_points"]
    except KeyError as missing:
        raise ModelFormatError(f"model file is missing field {missing}")
    if not isinstance(raw_points, list):
        raise ModelFormatError("fixed_points must be a list")
    parsed: dict[str, Fraction] = {}  # str keys only: True == 1 must not reuse an entry

    def rational(x) -> Fraction:
        if type(x) is not str:
            return _parse_rational(x)
        value = parsed.get(x)
        if value is None:
            value = parsed[x] = _parse_rational(x)
        return value

    points = []
    for entry in raw_points:
        try:
            fp_id = entry["id"]
        except (TypeError, KeyError):
            raise ModelFormatError("each fixed point needs an 'id' field")
        try:
            moment = entry["moment"]
            if not isinstance(moment, list):
                raise ModelFormatError(f"moment must be a list, got {moment!r}")
            moment = tuple(map(rational, moment))
            weights = tuple(entry["weights"])
        except (ModelFormatError, KeyError, TypeError, ValueError) as err:
            raise ModelFormatError(f"fixed point {fp_id!r}: {err}")
        points.append(FixedPoint(id=fp_id, moment=moment, weights=weights))
    return TorusModel(
        rank=rank,
        fixed_points=tuple(points),
        roots=data.get("roots"),
        weyl_order=data.get("weyl_order"),
        global_stabilizer_order=data.get("global_stabilizer_order", 1),
    )
