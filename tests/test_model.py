"""The database-coupled net layer: enabling, firing, exploration."""

import pytest

import dbnet.model
from dbnet.corpus import build_shopping_cart
from dbnet.dsl import parse_model
from dbnet.fo import Atom, Compare
from dbnet.freshness import FreshPolicy
from dbnet.marking import Marking
from dbnet.model import (
    ControlPlace,
    DbNet,
    Snapshot,
    Transition,
    ViewPlace,
    analyze_transition,
    binding_label,
    build_lts,
    enabled_bindings,
    fire,
    render_snapshot,
    validate,
)
from dbnet.queries import Conjunct, UcqQuery, eval_ucq
from dbnet.relational import (
    Action,
    ContractError,
    DataType,
    Instance,
    RelationSchema,
    Schema,
    Variable,
    active_domain,
    make_value,
)

from conftest import BOUNDED1, RECYCLING

INT = DataType("int", "int")


def iv(n):
    return make_value(INT, n)


def find(bindings, tname):
    return [theta for t, theta in bindings if t.name == tname]


# ---------------------------------------------------------------------------
# scopes


def test_scope_classifies_every_variable(shop):
    scope = analyze_transition(shop.transition("LogIn"))
    assert scope.categories("s") == "input"
    assert scope.categories("uid") == "view"
    assert scope.categories("cid") == "fresh"
    assert [v.name for v in scope.order] == ["cid", "s", "uid"]

    scope = analyze_transition(shop.transition("AcquireBonus"))
    assert scope.categories("bt") == "external"
    with pytest.raises(ContractError):
        scope.categories("nope")


# ---------------------------------------------------------------------------
# validate


def test_shop_validates_cleanly(shop, shop22):
    assert validate(shop) == []
    assert validate(shop22) == []


def test_validate_flags_view_used_at_wrong_colour(shop):
    bad = Transition(
        "BadView",
        inputs=(("session", (Variable("s", "int"),)),),
        views=(("Users", (Variable("uid", "string"),)),),
        outputs=(),
    )
    model = DbNet(
        name=shop.name,
        types=shop.types,
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=shop.control_places,
        view_places=shop.view_places,
        transitions=shop.transitions + (bad,),
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    assert any("BadView" in p and "uid" in p for p in validate(model))


def test_validate_flags_guard_variable_out_of_scope(shop):
    bad = Transition(
        "BadGuard",
        inputs=(("session", (Variable("s", "int"),)),),
        guard=Compare("!=", Variable("ghost", "int"), iv(0)),
        outputs=(),
    )
    model = DbNet(
        name=shop.name,
        types=shop.types,
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=shop.control_places,
        view_places=shop.view_places,
        transitions=shop.transitions + (bad,),
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    assert any("ghost" in p for p in validate(model))


def test_validate_flags_fresh_variable_on_input(shop):
    bad = Transition("BadFresh", inputs=(("session", (Variable("s", "int", fresh=True),)),))
    model = DbNet(
        name=shop.name,
        types=shop.types,
        schema=shop.schema,
        queries=shop.queries,
        actions=shop.actions,
        control_places=shop.control_places,
        view_places=shop.view_places,
        transitions=shop.transitions + (bad,),
        initial_instance=shop.initial_instance,
        initial_marking=shop.initial_marking,
        samples=shop.samples,
    )
    assert validate(model)


# ---------------------------------------------------------------------------
# enabling


def test_login_binds_view_input_and_fresh(shop):
    snap = shop.initial_snapshot()
    thetas = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    assert len(thetas) == 1
    (theta,) = thetas
    assert theta["s"] == iv(0)
    assert theta["uid"] == iv(1)
    # the cart id is the first integer not used anywhere in the snapshot
    used = set(active_domain(snap.instance, INT))
    used.update(v for v in snap.marking.all_values() if v.dtype == "int")
    expected = RECYCLING.candidates(INT, used)
    assert [theta["cid"]] == expected
    assert theta["cid"] not in used


def test_wider_policy_branches_only_on_the_fresh_variable(shop):
    snap = shop.initial_snapshot()
    thetas = find(enabled_bindings(shop, snap, FreshPolicy.parse("bounded:3")), "LogIn")
    assert len(thetas) == 3
    assert len({th["cid"] for th in thetas}) == 3
    assert {(th["s"], th["uid"]) for th in thetas} == {(iv(0), iv(1))}


def test_enabled_bindings_all_fireable(shop):
    snap = shop.initial_snapshot()
    for t, theta in enabled_bindings(shop, snap, BOUNDED1):
        fire(shop, snap, t, theta)  # must not raise


def test_false_guard_disables(guarded):
    snap = guarded.initial_snapshot()
    bindings = enabled_bindings(guarded, snap, RECYCLING)
    assert find(bindings, "G") == []  # token carries 1, guard wants != 1
    assert len(find(bindings, "H")) == 1


def test_empty_view_disables(shop):
    # ChangeBonus joins the rebonus token with the BonusHolders view,
    # which is empty before any bonus was acquired.
    snap = Snapshot(shop.initial_instance, Marking.from_tokens([("rebonus", (iv(1), iv(5)))]))
    bindings = enabled_bindings(shop, snap, RECYCLING)
    assert find(bindings, "ChangeBonus") == []
    assert len(find(bindings, "KeepBonus")) == 1


def test_missing_input_token_disables(shop):
    snap = Snapshot(shop.initial_instance, Marking.from_tokens([]))
    assert enabled_bindings(shop, snap, RECYCLING) == []


def test_each_reached_view_arc_is_queried_once(monkeypatch):
    # Both joins two tokens with the view, so two partial bindings reach
    # its view arc; Idle's input place is empty, so its view arc is never
    # reached.
    model = parse_model(
        'dbnet "views";\ntype int = int;\nrelation R(a: int);\n'
        "query Q(a: int) := R(a);\nplace p(int);\nplace q(int);\nview V := Q;\n"
        "transition Both {\n  in p(x);\n  read V(y);\n  out p(x);\n}\n"
        "transition Idle {\n  in q(x);\n  read V(y);\n  out q(x);\n}\n"
        "init {\n  fact R(1);\n  fact R(2);\n  token p(1);\n  token p(2);\n}\n"
    ).model
    asked = []

    def counted(instance, query):
        asked.append(query.name)
        return eval_ucq(instance, query)

    monkeypatch.setattr(dbnet.model, "eval_ucq", counted)
    bindings = enabled_bindings(model, model.initial_snapshot(), RECYCLING)
    pairs = sorted((th["x"].payload, th["y"].payload) for th in find(bindings, "Both"))
    assert pairs == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert find(bindings, "Idle") == []
    assert asked == ["Q"]


# ---------------------------------------------------------------------------
# firing


def test_fire_commit_moves_token_and_keeps_instance(shop):
    snap = shop.initial_snapshot()
    (theta,) = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    nxt, outcome = fire(shop, snap, shop.transition("LogIn"), theta)
    assert outcome == "commit"
    assert nxt.instance == snap.instance  # no action on LogIn
    assert nxt.marking.count("session", (iv(0),)) == 0
    assert nxt.marking.count("logged", (theta["uid"], theta["cid"])) == 1


def test_fire_runs_the_action(shop):
    snap = shop.initial_snapshot()
    (login,) = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    snap, _ = fire(shop, snap, shop.transition("LogIn"), login)
    acquire = find(enabled_bindings(shop, snap, RECYCLING), "AcquireBonus")
    theta = min(acquire, key=lambda th: th["bt"].sort_key())
    nxt, outcome = fire(shop, snap, shop.transition("AcquireBonus"), theta)
    assert outcome == "commit"
    assert nxt.instance.contains("WithBonus", (theta["uid"], theta["bt"]))


def test_fire_rollback_routes_to_rollback_arcs(shop):
    snap = shop.initial_snapshot()
    (login,) = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    snap, _ = fire(shop, snap, shop.transition("LogIn"), login)
    acquire = sorted(
        find(enabled_bindings(shop, snap, RECYCLING), "AcquireBonus"),
        key=lambda th: th["bt"].sort_key(),
    )
    snap, outcome = fire(shop, snap, shop.transition("AcquireBonus"), acquire[0])
    assert outcome == "commit"
    # a second bonus of another kind collides on the key of WithBonus
    again = sorted(
        find(enabled_bindings(shop, snap, RECYCLING), "AcquireBonus"),
        key=lambda th: th["bt"].sort_key(),
    )
    other = [th for th in again if th["bt"] != acquire[0]["bt"]]
    before = snap.instance
    nxt, outcome = fire(shop, snap, shop.transition("AcquireBonus"), other[0])
    assert outcome == "rollback"
    assert nxt.instance == before  # unchanged, to the fact
    assert nxt.marking.total("rebonus") == 1
    assert nxt.marking.total("logged") == 0


def test_fire_rejects_disabled_binding(shop):
    snap = shop.initial_snapshot()
    (theta,) = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    bad = dict(theta)
    bad["cid"] = iv(1)  # 1 is user 1's id, not fresh
    with pytest.raises(ContractError):
        fire(shop, snap, shop.transition("LogIn"), bad)


def test_binding_label_renders_sorted_pairs(shop):
    snap = shop.initial_snapshot()
    (theta,) = find(enabled_bindings(shop, snap, RECYCLING), "LogIn")
    scope = analyze_transition(shop.transition("LogIn"))
    label = binding_label("LogIn", scope, theta, "commit")
    assert label[0] == "obs"
    assert label[1] == "LogIn"
    assert [p[0] for p in label[2]] == ["cid", "s", "uid"]
    assert label[3] == "commit"


# ---------------------------------------------------------------------------
# exploration


def naive_explore(model, policy):
    """Second, deliberately simple explorer used as a cross-check:
    depth-first, recursion over a dict, no frontier bookkeeping."""
    states = {}
    edges = set()

    def visit(snap):
        key = render_snapshot(snap)
        if key in states:
            return
        states[key] = snap
        for t, theta in enabled_bindings(model, snap, policy):
            nxt, outcome = fire(model, snap, t, theta)
            scope = analyze_transition(t)
            edges.add((key, binding_label(t.name, scope, theta, outcome), render_snapshot(nxt)))
            visit(nxt)

    visit(model.initial_snapshot())
    return states, edges


def test_two_state_net(touch):
    lts = build_lts(touch, RECYCLING)
    assert lts.state_count == 2
    assert lts.edge_count == 2  # Touch, then the Refresh self-loop
    assert not lts.truncated
    labels = sorted(label[1] for _, label, _ in lts.edges)
    assert labels == ["Refresh", "Touch"]


def test_empty_net_single_state(empty_net):
    lts = build_lts(empty_net, RECYCLING)
    assert lts.state_count == 1
    assert lts.edge_count == 0


def test_shop_state_space_matches_naive_explorer(shop, shop_lts):
    states, edges = naive_explore(shop, BOUNDED1)
    assert shop_lts.state_count == len(states)
    assert shop_lts.edge_count == len(edges)
    st = shop_lts.states
    got = {(render_snapshot(st[s]), l, render_snapshot(st[d])) for s, l, d in shop_lts.edges}
    assert got == edges


def test_explorers_agree_on_every_small_net(touch, guarded, domviol, fk_net, selfref):
    for net in (touch, guarded, domviol, fk_net, selfref):
        lts = build_lts(net, BOUNDED1)
        states, edges = naive_explore(net, BOUNDED1)
        assert lts.state_count == len(states), net.name
        assert lts.edge_count == len(edges), net.name


def test_unbounded_exploration_is_refused(shop):
    with pytest.raises(ContractError, match="unbounded"):
        build_lts(shop, FreshPolicy.parse("unbounded"))


def test_truncation_is_flagged(shop):
    lts = build_lts(shop, BOUNDED1, max_states=5)
    assert lts.truncated
    assert lts.state_count <= 5


def test_depth_cut_is_flagged(shop):
    lts = build_lts(shop, BOUNDED1, max_depth=2)
    assert lts.truncated


# ---------------------------------------------------------------------------
# audits over the reachable states


def test_every_commit_lands_in_a_legal_instance(shop, shop_lts):
    from dbnet.relational import check_constraint

    for _, label, dst in shop_lts.edges:
        if label[3] == "commit":
            for c in shop.schema.constraints:
                assert check_constraint(shop_lts.states[dst].instance, c)


def test_every_rollback_preserves_the_instance(shop_lts):
    for src, label, dst in shop_lts.edges:
        if label[3] == "rollback":
            assert shop_lts.states[src].instance == shop_lts.states[dst].instance


def test_views_are_never_stored(shop, shop_lts):
    view_names = set(shop.view_places)
    for snap in shop_lts.states:
        assert not (set(snap.marking.places_marked()) & view_names)


def test_fresh_bindings_are_always_new(shop, shop_lts):
    for snap in shop_lts.states:
        for t, theta in enabled_bindings(shop, snap, BOUNDED1):
            scope = analyze_transition(t)
            for var in scope.fresh_vars:
                used = set(active_domain(snap.instance, var.dtype))
                used.update(
                    v for v in snap.marking.all_values() if v.dtype == var.dtype
                )
                assert theta[var.name] not in used
