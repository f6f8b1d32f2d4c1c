"""Record classes: their fields, equality, hashing, immutability and
copies, and the hand-written ``Snapshot``."""

import copy
import pickle
from importlib import import_module

import pytest

from dbnet import bisim, cpn, dsl, fo, freshness, lts, model, queries, relational
from dbnet.corpus import build_shopping_cart
from dbnet.cpn import Kernel
from dbnet.fo import TRUE
from dbnet.freshness import FreshPolicy
from dbnet.lts import Lts
from dbnet.model import Snapshot
from dbnet.record import Record, factory, replace
from dbnet.relational import DataType, Schema, ValidationError, Variable

translate = import_module("dbnet.translate")  # the package attribute is the function

# Every record class of the package with its fields in order; a pair is
# a field with its default, ``factory(f)`` a default built by ``f()``.
FIELDS = {
    relational.DataType: ["name", "kind"],
    relational.Variable: ["name", "dtype", ("fresh", False)],
    relational.RelationSchema: ["name", "column_types"],
    relational.PrimaryKey: ["relation", "cols"],
    relational.ForeignKey: ["source", "source_cols", "target", "target_cols"],
    relational.DomainConstraint: ["relation", "col", "allowed"],
    relational.Schema: ["relations", ("constraints", ())],
    relational.Action: ["name", "params", ("adds", ()), ("dels", ())],
    fo.Atom: ["relation", "terms"],
    fo.Compare: ["op", "left", "right"],
    fo.Not: ["sub"],
    fo.And: ["parts"],
    fo.Or: ["parts"],
    fo.Exists: ["var", "sub"],
    fo.Forall: ["var", "sub"],
    fo.Truth: [],
    queries.Conjunct: ["atoms", ("filters", ())],
    queries.UcqQuery: ["name", "head", "disjuncts"],
    freshness.FreshPolicy: [("mode", "recycling"), ("width", 1)],
    lts.Lts: [("states", factory(list)), ("edges", factory(list)), ("truncated", False)],
    model.ControlPlace: ["name", "column_types"],
    model.ViewPlace: ["name", "query"],
    model.Transition: ["name", ("inputs", ()), ("views", ()), ("guard", TRUE), ("action", None),
                       ("outputs", ()), ("rollbacks", ())],
    model.DbNet: ["name", "types", "schema", "queries", "actions", "control_places",
                  "view_places", "transitions", "initial_instance", "initial_marking",
                  ("samples", factory(dict)), ("default_policy", factory(FreshPolicy))],
    model.TransitionScope: ["input_vars", "view_vars", "fresh_vars", "external_vars", "order"],
    cpn.CpnPlace: ["name", "column_types"],
    cpn.Emit: ["transition", "outcome", "var_names"],
    cpn.CpnTransition: ["name", ("inputs", ()), ("reads", ()), ("guard", TRUE), ("outputs", ()),
                        ("priority", cpn.P_NORMAL), ("emit", None)],
    cpn.NuCpn: ["name", "types", "places", "transitions", "initial_marking",
                ("samples", factory(dict)), ("default_policy", factory(FreshPolicy)),
                ("place_classes", factory(dict))],
    cpn._Entry: ["transition", "position", "rank", "level", "later_inputs", "inputs_and_reads",
                 "fresh", "external", "problem"],
    cpn.Kernel: [("states", factory(list)), ("edges", factory(list)), ("truncated", False),
                 ("dead_ends", factory(dict)), ("divergences", factory(dict)),
                 ("largest_search", 0), ("searched", 0)],
    translate.UpdateComponent: ["kind", "index", "relation", "terms", "entry", "exit",
                                "done_place", "exists", "not_exists"],
    translate.CheckStage: ["kind", "entry", "exit", "names"],
    translate.UndoComponent: ["kind", "entry", "exit", "done_place", "do", "skip"],
    translate.GadgetInfo: ["transition", "entered", "bound", "guard_ok", "updated", "constr_ok",
                           "enter", "cond", "cancels", "compute_stages", "update_components",
                           "check_stages", "undo_components", "commit", "rollback"],
    translate.TranslationOutput: ["net", "place_classes", "provenance", "lock_place",
                                  "relation_places", "gadgets", "ctl_type"],
    bisim.WeakBisimResult: ["verdict", ("witness", None), ("relation", None), ("trace", ()),
                            ("stats", factory(dict))],
    dsl.ModelFile: ["kind", "model", ("column_names", factory(dict))],
}
MUTABLE = {lts.Lts, cpn.Kernel, model.DbNet, cpn.NuCpn, translate.TranslationOutput,
           bisim.WeakBisimResult, dsl.ModelFile}


def _comparable(default):
    return ("factory", default.make) if isinstance(default, factory) else ("value", default)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_lists_every_record_class():
    assert set(_subclasses(Record)) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_the_declared_ones(cls):
    declared = FIELDS[cls]
    assert cls._fields == tuple(f if isinstance(f, str) else f[0] for f in declared)
    defaults = {n: _comparable(d) for n, d in cls._defaults.items()}
    assert defaults == {f[0]: _comparable(f[1]) for f in declared if not isinstance(f, str)}
    assert cls._frozen == (cls not in MUTABLE)


def test_factory_defaults_are_built_per_record():
    a, b = Lts(), Lts()
    a.states.append(1)
    assert b.states == [] and Kernel().dead_ends == {}
    assert FreshPolicy() == FreshPolicy("recycling", 1)


def test_equality_holds_within_one_class_only():
    assert Lts() == Lts() and Kernel() == Kernel()
    assert Kernel() != Lts() and Lts() != Kernel()
    assert Variable("x", "int") != ("x", "int", False)


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(Lts())


def test_frozen_records_refuse_assignment_and_deletion():
    v = Variable("x", "int")
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        del v.dtype
    with pytest.raises(AttributeError):
        v.extra = 1
    assert (v.name, v.dtype, v.fresh) == ("x", "int", False)


def test_equal_frozen_records_hash_equal():
    a, b = Variable("x", "int"), Variable("x", "int")
    assert a is not b and a == b
    # the hash of the field tuple, as the dataclass computed it
    assert hash(a) == hash(b) == hash(("x", "int", False))
    assert hash(a) == hash(a)
    assert hash(fo.Truth()) == hash(())
    assert hash(fo.Not(TRUE)) == hash((TRUE,))


class _EqualsAll:
    def __eq__(self, other):
        return True


def test_other_classes_decide_their_own_equality(shop_2x2):
    assert Variable("x", "int") == _EqualsAll() and _EqualsAll() == Variable("x", "int")
    assert shop_2x2[0].initial_snapshot() == _EqualsAll()


def test_init_takes_positions_then_keywords_then_defaults():
    assert Variable("x", dtype="int", fresh=True) == Variable("x", "int", True)
    with pytest.raises(TypeError, match="missing required argument: 'dtype'"):
        Variable("x")
    with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
        Variable("x", "int", kind=1)
    with pytest.raises(TypeError, match="multiple values for argument 'name'"):
        Variable("x", "int", name="y")
    with pytest.raises(TypeError, match="takes 3 arguments, got 4"):
        Variable("x", "int", False, 1)


def test_repr_keeps_the_dataclass_format():
    assert repr(DataType("t", "int")) == "DataType(name='t', kind='int')"
    assert repr(fo.Truth()) == "Truth()"


def test_replace_runs_post_init_again():
    dt = DataType("t", "int")
    assert replace(dt, name="u") == DataType("u", "int")
    with pytest.raises(ValidationError):
        replace(dt, kind="bogus")
    key = replace(relational.PrimaryKey("R", (0,)), cols=(2, 1, 2))
    assert key.cols == (1, 2)
    with pytest.raises(TypeError):
        replace(dt, width=1)


def test_caches_are_not_fields():
    schema = Schema({})
    schema._well_formed.add("seen")
    assert schema == Schema({}) and "_well_formed" not in repr(schema)
    net = build_shopping_cart(1, 1)
    out = translate.translate(net)
    cpn.cpn_enabled(out.net, out.net.initial_marking)
    assert out.net._table is not None
    assert out.net == replace(out.net) and replace(out.net)._table is None
    assert "_table" not in repr(out.net)


@pytest.fixture(scope="module")
def shop_2x2():
    net = build_shopping_cart(2, 2)
    return net, translate.translate(net)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_nets_and_translations_survive_copies(shop_2x2, duplicate):
    for obj in shop_2x2:
        twin = duplicate(obj)
        assert twin == obj and type(twin) is type(obj)


def test_snapshot_is_a_slotted_immutable_value(shop_2x2):
    net, _ = shop_2x2
    snap = net.initial_snapshot()
    assert not hasattr(snap, "__dict__")
    with pytest.raises(AttributeError):
        snap.marking = None
    twin = Snapshot(net.initial_instance, net.initial_marking)
    assert twin == snap and hash(twin) == hash(snap)
    assert hash(snap) == hash((net.initial_instance, net.initial_marking))
    assert snap != (net.initial_instance, net.initial_marking)
    assert pickle.loads(pickle.dumps(snap)) == snap == copy.deepcopy(snap)
    assert repr(snap).startswith("Snapshot(instance=Instance(")
