"""Compilation of database-coupled nets into prioritized coloured nets."""

import hashlib

import pytest

from dbnet.corpus import build_shopping_cart
from dbnet.cpn import (
    EPS, P_HIGH, P_LOW, P_NORMAL, CpnTransition, cpn_build_lts, cpn_enabled, cpn_fire,
)
from dbnet.dsl import print_model
from dbnet.fo import Atom, Compare
from dbnet.marking import Marking
from dbnet.model import ControlPlace, DbNet, Transition, ViewPlace
from dbnet.queries import Conjunct, UcqQuery
from dbnet.relational import (
    Action,
    ContractError,
    DataType,
    Instance,
    RelationSchema,
    Schema,
    ValidationError,
    Variable,
    make_value,
)
from dbnet.translate import _Builder, translate

from conftest import BOUNDED1, CORPUS_NAMES, RECYCLING, load_corpus

INT = DataType("int", "int")


def iv(n):
    return make_value(INT, n)


# ---------------------------------------------------------------------------
# shared skeleton


def test_one_place_per_relation_with_the_right_colours(shop, shop_translation):
    out = shop_translation
    assert set(out.relation_places) == set(shop.schema.relations)
    for rname, pname in out.relation_places.items():
        place = out.net.places[pname]
        assert place.column_types == shop.schema.relations[rname].column_types
        assert out.place_classes[pname] == "relation"


def test_original_places_survive_verbatim(shop, shop_translation):
    for name in shop.control_places:
        assert shop_translation.place_classes[name] == "original-control"
        assert shop_translation.net.places[name].column_types == shop.control_places[name].column_types


def test_initial_marking_holds_facts_control_and_one_lock(shop, shop_translation):
    out = shop_translation
    m = out.net.initial_marking
    assert m.total(out.lock_place) == 1
    for rname, pname in out.relation_places.items():
        rows = shop.initial_instance.facts[rname]
        assert m.total(pname) == len(rows)
        for row in rows:
            assert m.count(pname, row) == 1
    for place in shop.initial_marking.places_marked():
        for tok, n in shop.initial_marking.tokens(place):
            assert m.count(place, tok) == n


def test_every_place_is_classified_and_attributed(shop_translation):
    out = shop_translation
    shared = {"original-control", "relation", "lock"}
    for name in out.net.places:
        assert name in out.place_classes
        if out.place_classes[name] not in shared:
            assert name in out.provenance, name
    for t in out.net.transitions:
        assert t.name in out.provenance
        source, phase = out.provenance[t.name]
        assert source in {g.transition for g in out.gadgets.values()}
        assert phase in {"enter", "binding", "guard", "update", "check", "undo", "finish"}


def test_labels_only_on_the_two_exits(shop_translation):
    out = shop_translation
    for g in out.gadgets.values():
        for t in out.net.transitions:
            name, emit = t.name, t.emit
            if not name.startswith(g.transition + "."):
                continue
            if name in (g.commit, g.rollback):
                assert emit is not None
                assert emit.transition == g.transition
                assert emit.outcome == ("commit" if name == g.commit else "rollback")
            else:
                assert emit is None


def test_ctl_type_dodges_existing_names(shop):
    renamed = DbNet(
        name=shop.name,
        types=dict(shop.types, ctl=DataType("ctl", "string")),
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=shop.control_places,
        view_places=shop.view_places,
        transitions=shop.transitions,
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    out = translate(renamed)
    assert out.ctl_type != "ctl"
    assert out.ctl_type in out.net.types


def test_gadget_place_collision_is_reported(shop):
    # a control place that happens to carry a gadget-shaped name
    hijack = ControlPlace("LogIn.Entered", ("int",))
    model = DbNet(
        name=shop.name,
        types=shop.types,
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=dict(shop.control_places, **{hijack.name: hijack}),
        view_places=shop.view_places,
        transitions=shop.transitions,
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    with pytest.raises(ContractError, match="collision"):
        translate(model)


def test_a_duplicate_transition_name_is_refused():
    b = _Builder()
    b.transition(CpnTransition("T.enter"), "T", "enter")
    with pytest.raises(ContractError, match="translated transition name collision: 'T.enter'"):
        b.transition(CpnTransition("T.enter"), "T", "enter")


# sha256 of the printed translated net followed by its provenance lines, for
# every corpus net and the shop at users x products; the encoding is pinned
TRANSLATION_DIGESTS = {
    "domviol": "db7a79fadfdb3ed1bc49a3095c3c1b83b16e9992d474e8807144152529a7ca28",
    "empty": "e6eb0d2b2d3d518286c0532acdb584c12f6acce47c91c648393ea51f7584b884",
    "fk": "2474ea64f4c6ebecc3f1578791ec8fb8656e619d9a0592f497fba1bf2f298011",
    "guarded": "42a8c3d2730730f865480ed94c83690287b800e69e28d27eab0b1609b3b64b5c",
    "selfref": "f4b92fa884f09a13742aa873b224dd5c4b690bd6f07396e832daace771c355da",
    "shopping-cart": "5803b403b2d709994ce9aec4367bdc2cf94f73dac50d3b0256c25c8c21706221",
    "touch": "67e93eabba29fc893132333cb82eb6cb75d0ae47074c27291a81d494b781a238",
    (1, 1): "5803b403b2d709994ce9aec4367bdc2cf94f73dac50d3b0256c25c8c21706221",
    (2, 2): "5c899b9dc22a43783e25da14cbad4c9bb6045c0dcf4ad41ce95c9d8b564f7c3b",
    (3, 3): "1732495180052aa9942a17d2b5efa18acffe1f9d2eb2995644d4aadff5b138d9",
}


def test_every_corpus_net_has_a_pinned_translation():
    assert sorted(k for k in TRANSLATION_DIGESTS if isinstance(k, str)) == CORPUS_NAMES


@pytest.mark.parametrize(
    "key", TRANSLATION_DIGESTS,
    ids=lambda key: key if isinstance(key, str) else "shop-%dx%d" % key,
)
def test_translation_prints_as_pinned(key):
    model = load_corpus(key) if isinstance(key, str) else build_shopping_cart(*key)
    out = translate(model)
    text = print_model(out.net) + out.provenance_jsonl()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRANSLATION_DIGESTS[key]


def test_translate_rejects_invalid_models(shop):
    broken = DbNet(
        name="broken",
        types=shop.types,
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=shop.control_places,
        view_places=shop.view_places,
        transitions=(Transition("Ghost", inputs=(("nowhere", (Variable("x", "int"),)),)),),
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    with pytest.raises(ValidationError):
        translate(broken)


# ---------------------------------------------------------------------------
# gadget structure


def test_structural_counts_per_transition(shop, shop_translation):
    for t in shop.transitions:
        g = shop_translation.gadgets[t.name]
        assert len(g.compute_stages) == len(t.views)
        if t.action is None:
            assert g.update_components == ()
            assert g.check_stages == ()
        else:
            action = shop.actions[t.action[0]]
            assert len(g.update_components) == len(action.dels) + len(action.adds)
            assert len(g.check_stages) == len(shop.schema.constraints)
        # one cancel per view stage plus the final one
        assert len(g.cancels) == len(t.views) + 1


def test_degenerate_gadget_collapses_its_stages(shop_translation):
    g = shop_translation.gadgets["CheckOut"]  # no views, no action
    assert g.bound == g.entered
    assert g.updated == g.guard_ok
    assert g.constr_ok == g.updated


def test_deletions_precede_additions(shop, shop_translation):
    g = shop_translation.gadgets["ChangeBonus"]  # change: one del, one add
    kinds = [c.kind for c in g.update_components]
    assert kinds == ["del", "add"]
    # and the undo net walks adds first, in reverse
    assert [c.kind for c in g.undo_components] == ["add", "del"]


def test_add_component_shape(shop, shop_translation):
    g = shop_translation.gadgets["AcquireBonus"]  # addb: a single add
    (comp,) = g.update_components
    assert comp.kind == "add"
    assert comp.relation == "WithBonus"
    net = shop_translation.net
    exists = net.transition(comp.exists)
    absent = net.transition(comp.not_exists)
    rel_place = shop_translation.relation_places["WithBonus"]
    assert exists.priority == P_HIGH
    assert exists.reads and exists.reads[0][0] == rel_place  # presence test only
    assert all(p != rel_place for p, _ in exists.outputs)
    assert absent.priority == P_LOW
    assert any(p == rel_place for p, _ in absent.outputs)  # inserts the fact


def test_compute_stage_reads_every_atom_and_filters_in_guard(shop, shop_translation):
    g = shop_translation.gadgets["AddProduct"]
    ((stage_name,),) = (g.compute_stages,)
    (compute,) = [shop_translation.net.transition(n) for n in stage_name]
    read_places = sorted(p for p, _ in compute.reads)
    assert read_places == sorted(
        [
            shop_translation.relation_places["Product"],
            shop_translation.relation_places["InWarehouse"],
        ]
    )
    from dbnet.fo import Truth, free_variables

    assert not isinstance(compute.guard, Truth)  # the null filter lands here
    assert "c" in free_variables(compute.guard)
    assert compute.priority == P_NORMAL


def test_check_stage_order_follows_declaration(shop, shop_translation):
    g = shop_translation.gadgets["AcquireBonus"]
    kinds = [s.kind for s in g.check_stages]
    declared = []
    for c in shop.schema.constraints:
        declared.append(type(c).__name__)
    want = {"PrimaryKey": "key", "ForeignKey": "ref", "DomainConstraint": "domain"}
    assert kinds == [want[d] for d in declared]
    # stages are chained: each exit feeds the next entry
    for earlier, later in zip(g.check_stages, g.check_stages[1:]):
        assert earlier.exit == later.entry
    assert g.check_stages[0].entry == g.updated
    assert g.check_stages[-1].exit == g.constr_ok


def test_self_reference_gets_the_second_scan(selfref, shop_translation):
    out = translate(selfref)
    (g,) = [g for g in out.gadgets.values() if g.check_stages]
    ref_stages = [s for s in g.check_stages if s.kind == "ref"]
    assert ref_stages
    for s in ref_stages:
        roles = [role for role, _ in s.names]
        assert "scan-self" in roles
    # the shop's references are between distinct relations: no self scan
    for g in shop_translation.gadgets.values():
        for s in g.check_stages:
            if s.kind == "ref":
                assert "scan-self" not in [role for role, _ in s.names]


def test_two_view_transitions_chain_stages():
    # a dedicated two-view model; the corpus keeps one view per transition
    sch = Schema(relations={"R": RelationSchema("R", ("int",))})
    x, y = Variable("x", "int"), Variable("y", "int")
    q1 = UcqQuery("Q1", (x,), (Conjunct((Atom("R", (x,)),)),))
    q2 = UcqQuery("Q2", (y,), (Conjunct((Atom("R", (y,)),)),))
    model = DbNet(
        name="twoview",
        types={"int": INT},
        schema=sch,
        queries={"Q1": q1, "Q2": q2},
        actions={},
        control_places={"p": ControlPlace("p", ()), "q": ControlPlace("q", ("int", "int"))},
        view_places={"V1": ViewPlace("V1", "Q1"), "V2": ViewPlace("V2", "Q2")},
        transitions=(
            Transition("Pair", inputs=(("p", ()),), views=(("V1", (x,)), ("V2", (y,))), outputs=(("q", (x, y)),)),
        ),
        initial_instance=Instance(sch, {"R": [(iv(1),), (iv(2),)]}),
        initial_marking=Marking.from_tokens([("p", ())]),
    )
    out = translate(model)
    g = out.gadgets["Pair"]
    assert len(g.compute_stages) == 2
    assert "Pair.V1Computed" in out.net.places
    assert g.bound == "Pair.Bound"
    assert len(g.cancels) == 3
    # behaviour: both answers of both views, so four Pair bindings commit
    lts = cpn_build_lts(out.net, RECYCLING)
    obs = {label for _, label, _ in lts.edges if label != EPS}
    assert {(l[1], l[3]) for l in obs} == {("Pair", "commit")}
    assert len(obs) == 4


# ---------------------------------------------------------------------------
# behaviour of single gadgets


def test_cancel_restores_the_start_marking():
    net = load_corpus("guarded")
    out = translate(net)
    m0 = out.net.initial_marking
    g = out.gadgets["G"]
    enter = out.net.transition(g.enter)
    ((_, theta),) = [
        (t, th) for t, th in cpn_enabled(out.net, m0, RECYCLING) if t.name == g.enter
    ]
    m1, label = cpn_fire(out.net, m0, enter, theta, RECYCLING)
    assert label == EPS
    assert m1 != m0
    # the guard g != 1 rejects the only token, so only the cancel can run
    pairs = cpn_enabled(out.net, m1, RECYCLING)
    names = {t.name for t, _ in pairs}
    assert g.cond not in names
    (cancel_pair,) = [(t, th) for t, th in pairs if t.name in g.cancels]
    m2, label = cpn_fire(out.net, m1, cancel_pair[0], cancel_pair[1], RECYCLING)
    assert label == EPS
    assert m2 == m0


def test_touch_gadget_walks_to_a_commit(touch):
    out = translate(touch)
    lts = cpn_build_lts(out.net, RECYCLING)
    assert not lts.truncated
    obs = sorted({(l[1], l[3]) for _, l, _ in lts.edges if l != EPS})
    assert obs == [("Refresh", "commit"), ("Touch", "commit")]


def test_interior_excludes_the_lock(shop_translation, shop_cpn_lts):
    out = shop_translation
    shared = {"original-control", "relation", "lock"}
    interior = {n for n, cls in out.place_classes.items() if cls not in shared}
    for m in shop_cpn_lts.states:
        has_lock = m.total(out.lock_place) > 0
        busy = any(m.total(p) > 0 for p in interior)
        assert has_lock != busy  # exactly one of the two


def test_relation_places_stay_duplicate_free(shop_translation, shop_cpn_lts):
    for m in shop_cpn_lts.states:
        for pname in shop_translation.relation_places.values():
            for tok, n in m.tokens(pname):
                assert n == 1, (pname, tok)
