"""Value semantics of the engine's immutable value classes: construction by
position and keyword, immutability, equality and hashing, pickle and copy,
and an engine import that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import io
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torusloc
from torusloc import (
    EquivariantClass,
    FixedPoint,
    MultiPoly,
    OrientedFlag,
    Plan,
    PlanTerm,
    TorusModel,
    WeightedSpace,
    build_cp_product,
    build_sphere_product,
    class_generator,
    cp2_plan,
    dump_plan,
    evaluate_plan,
    load_plan,
    rank1_plan,
)
from torusloc import localization
from torusloc.expr import Token

U = MultiPoly(1, {(1,): 1})
FLAG = OrientedFlag(((1, 1), (0, 1)))


def point(fp_id="p", moment=(1, Fraction(1, 2)), weights=((1, 0), (0, -1))):
    return FixedPoint(fp_id, moment, weights)


def term(coefficient=2, fp_id="p", flag=FLAG):
    return PlanTerm(coefficient, fp_id, flag)


# One factory per class; each call makes a new instance of the same value.
VALUES = {
    "FixedPoint": point,
    "EquivariantClass": lambda: EquivariantClass({"p": U, "q": U * 2}),
    "OrientedFlag": lambda: OrientedFlag(((1, 1), (0, 1))),
    "PlanTerm": term,
    "Plan": lambda: Plan((term(), term(-1, "q"))),
    "WeightedSpace": lambda: WeightedSpace(((2, (1,)), (-1, (0,))), 1),
    "Token": lambda: Token("int", "12", 1, 3),
}

# A different value of each class.
OTHERS = {
    "FixedPoint": lambda: point(weights=((1, 0), (0, 1))),
    "EquivariantClass": lambda: EquivariantClass({"p": U, "q": U * 3}),
    "OrientedFlag": lambda: OrientedFlag(((1, 0), (0, 1))),
    "PlanTerm": lambda: term(3),
    "Plan": lambda: Plan((term(),)),
    "WeightedSpace": lambda: WeightedSpace(((2, (1,)), (-1, (1,))), 1),
    "Token": lambda: Token("int", "12", 1, 4),
}

FIELDS = {
    "FixedPoint": ("id", "moment", "weights"),
    "TorusModel": ("rank", "fixed_points", "roots", "weyl_order", "global_stabilizer_order", "family"),
    "EquivariantClass": ("restrictions",),
    "OrientedFlag": ("stages",),
    "PlanTerm": ("coefficient", "fixed_point_id", "flag"),
    "Plan": ("terms",),
    "WeightedSpace": ("lines", "residual_count"),
    "Token": ("kind", "text", "line", "column"),
}

HASHABLE = [name for name in VALUES if name != "EquivariantClass"]


def fields_of(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj).__name__])


def model():
    return TorusModel(2, (point("p"), point("q", (0, 0))), ((1, 0), (-1, 0)), 2, 3, ("test",))


class TestConstruction:
    def test_fixed_point(self):
        by_keyword = FixedPoint(weights=[[1, 0], (0, -1)], moment=["1", "1/2"], id="p")
        assert fields_of(by_keyword) == fields_of(point()) == (
            "p", (Fraction(1), Fraction(1, 2)), ((1, 0), (0, -1)))
        assert type(by_keyword.moment[0]) is Fraction

    def test_torus_model_defaults(self):
        fp = point()
        for m in (TorusModel(2, [fp]), TorusModel(fixed_points=(fp,), rank=2)):
            assert fields_of(m) == (2, (fp,), None, None, 1, None)

    def test_torus_model_all_fields(self):
        fp = point()
        positional = TorusModel(2, (fp,), [[1, 0], [-1, 0]], 2, 3, ("cp", 3, 1))
        keyword = TorusModel(family=("cp", 3, 1), global_stabilizer_order=3, weyl_order=2,
                             roots=[[1, 0], [-1, 0]], fixed_points=[fp], rank=2)
        for m in (positional, keyword):
            assert fields_of(m) == (2, (fp,), ((1, 0), (-1, 0)), 2, 3, ("cp", 3, 1))

    def test_equivariant_class_copies_its_mapping(self):
        restrictions = {"p": U}
        cls = EquivariantClass(restrictions=restrictions)
        restrictions["q"] = U
        assert cls.restrictions == {"p": U} == EquivariantClass({"p": U}).restrictions

    def test_flag(self):
        assert OrientedFlag(stages=[[1, 1], [0, 1]]).stages == FLAG.stages == ((1, 1), (0, 1))

    def test_plan_term_and_plan(self):
        keyword = PlanTerm(flag=FLAG, fixed_point_id="p", coefficient=2)
        assert fields_of(keyword) == fields_of(term()) == (2, "p", FLAG)
        assert Plan(terms=[keyword]).terms == Plan((keyword,)).terms == (keyword,)

    def test_weighted_space(self):
        keyword = WeightedSpace(residual_count=1, lines=[(2, [1])])
        assert fields_of(keyword) == fields_of(WeightedSpace([(2, (1,))], 1)) == (((2, (1,)),), 1)

    def test_token(self):
        keyword = Token(column=3, line=1, text="12", kind="int")
        assert fields_of(keyword) == fields_of(Token("int", "12", 1, 3)) == ("int", "12", 1, 3)


def every_instance():
    yield "TorusModel", model()
    for name, make in VALUES.items():
        yield name, make()


class TestImmutability:
    @pytest.mark.parametrize("name, obj", list(every_instance()))
    def test_fields_cannot_be_assigned_or_deleted(self, name, obj):
        for field in FIELDS[name]:
            before = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, before)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is before

    @pytest.mark.parametrize("name, obj", list(every_instance()))
    def test_no_new_attributes(self, name, obj):
        with pytest.raises(AttributeError):
            obj.extra = 1


class TestEqualityAndHashing:
    @pytest.mark.parametrize("name", VALUES)
    def test_equal_values_compare_equal(self, name):
        a, b, other = VALUES[name](), VALUES[name](), OTHERS[name]()
        assert a is not b
        assert a == b and not a != b
        assert a != other and not a == other
        assert a != fields_of(a)

    @pytest.mark.parametrize("name", HASHABLE)
    def test_equal_values_hash_equal(self, name):
        a, b = VALUES[name](), VALUES[name]()
        assert hash(a) == hash(b)
        assert len({a, b, OTHERS[name]()}) == 2

    def test_equivariant_class_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(VALUES["EquivariantClass"]())

    def test_fixed_point_equality_ignores_the_weight_cache(self):
        a, b = point(), point()
        a.sorted_weights
        assert "sorted_weights" in vars(a) and "sorted_weights" not in vars(b)
        assert a == b and hash(a) == hash(b)

    def test_torus_model_compares_by_identity(self):
        a, b = model(), model()
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b, a}) == 2
        assert build_sphere_product(3) != build_sphere_product(3)


def lambda_keys(monkeypatch, m, plan, cls) -> tuple[Fraction, int]:
    """The plan's value and the number of lambda_flag calls evaluate_plan makes."""
    calls = []
    inner = localization.lambda_flag

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(localization, "lambda_flag", counted)
    return evaluate_plan(m, plan, cls), len(calls)


def reloaded(plan: Plan) -> Plan:
    sink = io.StringIO()
    dump_plan(plan, sink)
    return load_plan(io.StringIO(sink.getvalue()))


class TestLoadedFlagsShareKeys:
    """A flag loaded from a file equals the recipe's flag object, so both
    plans' terms fall into the same evaluate_plan keys."""

    @pytest.mark.parametrize(
        "m, plan",
        [
            (build_sphere_product(5), rank1_plan(build_sphere_product(5), 0, 1)),
            (build_sphere_product(5), rank1_plan(build_sphere_product(5), 0, -1)),
            (build_cp_product(3, 4), cp2_plan(4, "swapped")),
            (build_cp_product(3, 4), cp2_plan(4, "mirror")),
        ],
    )
    def test_mixed_plan(self, monkeypatch, m, plan):
        loaded = reloaded(plan)
        for ours, theirs in zip(plan.terms, loaded.terms):
            assert ours.flag is not theirs.flag
            assert ours.flag == theirs.flag and hash(ours.flag) == hash(theirs.flag)
            assert ours == theirs
        cls = class_generator(m, "prequantum") ** (m.weights_per_point - m.rank)
        value, keys = lambda_keys(monkeypatch, m, plan, cls)
        mixed = Plan(plan.terms + loaded.terms)
        assert lambda_keys(monkeypatch, m, mixed, cls) == (2 * value, keys)


def round_trips(obj):
    yield pickle.loads(pickle.dumps(obj))
    yield pickle.loads(pickle.dumps(obj, protocol=0))
    yield copy.copy(obj)
    yield copy.deepcopy(obj)


class TestPickleAndCopy:
    @pytest.mark.parametrize("name", VALUES)
    def test_round_trip_equal_and_frozen(self, name):
        obj = VALUES[name]()
        for back in round_trips(obj):
            assert type(back) is type(obj)
            assert back == obj
            if name in HASHABLE:
                assert hash(back) == hash(obj)
            with pytest.raises(AttributeError):
                setattr(back, FIELDS[name][0], getattr(obj, FIELDS[name][0]))

    @pytest.mark.parametrize("read_cache", [False, True])
    def test_fixed_point(self, read_cache):
        fp = build_cp_product(3, 2).fixed_points[4]
        fresh = point()
        if read_cache:
            fresh.sorted_weights
        for obj in (fp, fresh):
            for back in round_trips(obj):
                assert back == obj and vars(back) == vars(obj)
                assert back.sorted_weights == tuple(sorted(obj.weights))

    def test_torus_model(self):
        for m in (model(), build_sphere_product(3)):
            m.fixed_point(m.fixed_points[0].id)  # fills the id index
            for back in round_trips(m):
                assert back != m
                assert fields_of(back) == fields_of(m)
                assert back.fixed_point(m.fixed_points[-1].id) == m.fixed_points[-1]
                with pytest.raises(AttributeError):
                    back.rank = 3

    def test_pickled_plan_evaluates_alike(self):
        m = build_sphere_product(5)
        plan = rank1_plan(m, 0, 1)
        cls = class_generator(m, "prequantum") ** 4
        value = evaluate_plan(m, plan, cls)
        back_m, back_plan, back_cls = pickle.loads(pickle.dumps((m, plan, cls)))
        assert evaluate_plan(back_m, back_plan, back_cls) == value


def test_engine_import_loads_no_dataclasses_or_inspect():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import torusloc, torusloc.cli, torusloc.expr\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(torusloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    added = set(json.loads(out.strip().splitlines()[-1]))
    assert "torusloc.expr" in added
    assert not added & {"dataclasses", "inspect"}
