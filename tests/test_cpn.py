"""Prioritized coloured nets with read arcs and name creation."""

import pytest

from dbnet import cpn
from dbnet.cpn import (
    EPS,
    P_HIGH,
    P_LOW,
    P_NORMAL,
    CpnPlace,
    CpnTransition,
    Emit,
    NuCpn,
    cpn_build_lts,
    cpn_enabled,
    cpn_fire,
    cpn_validate,
    _cpn_scope,
)
from dbnet.corpus import build_shopping_cart
from dbnet.fo import Compare
from dbnet.freshness import FreshPolicy
from dbnet.marking import Marking
from dbnet.mutations import MUTATIONS, apply_mutation
from dbnet.relational import ContractError, DataType, Variable, make_value
from dbnet.translate import translate

from conftest import BOUNDED1, RECYCLING

INT = DataType("int", "int")
STR = DataType("string", "string")


def iv(n):
    return make_value(INT, n)


def x(name="x", fresh=False):
    return Variable(name, "int", fresh)


def small_net(transitions, marking_tokens, extra_places=(), samples=None):
    places = {
        "a": CpnPlace("a", ("int",)),
        "b": CpnPlace("b", ("int",)),
        "c": CpnPlace("c", ("int",)),
    }
    for p in extra_places:
        places[p.name] = p
    return NuCpn(
        name="toy",
        types={"int": INT, "string": STR},
        places=places,
        transitions=tuple(transitions),
        initial_marking=Marking.from_tokens(marking_tokens),
        samples=samples or {},
    )


def names(pairs):
    return sorted(t.name for t, _ in pairs)


# ---------------------------------------------------------------------------
# priorities


def test_higher_priority_shadows_lower_globally():
    net = small_net(
        [
            CpnTransition("hi", inputs=(("a", (x(),)),), outputs=(("b", (x(),)),), priority=P_HIGH),
            CpnTransition("lo", inputs=(("c", (x(),)),), outputs=(("b", (x(),)),), priority=P_LOW),
        ],
        [("a", (iv(1),)), ("c", (iv(2),))],
    )
    # both are token-enabled, on different tokens even — only hi may fire
    assert names(cpn_enabled(net, net.initial_marking, RECYCLING)) == ["hi"]


def test_lower_level_appears_once_higher_is_done():
    net = small_net(
        [
            CpnTransition("hi", inputs=(("a", (x(),)),), outputs=(("b", (x(),)),), priority=P_HIGH),
            CpnTransition("lo", inputs=(("c", (x(),)),), outputs=(("b", (x(),)),), priority=P_LOW),
        ],
        [("c", (iv(2),))],
    )
    assert names(cpn_enabled(net, net.initial_marking, RECYCLING)) == ["lo"]


def test_fire_refuses_a_binding_dominated_by_a_higher_level():
    net = small_net(
        [
            CpnTransition("lo", inputs=(("c", (x(),)),), outputs=(("b", (x(),)),), priority=P_LOW),
            CpnTransition("mid", inputs=(("a", (x(),)),), priority=P_NORMAL),
            CpnTransition("hi", inputs=(("a", (x(),)),), priority=P_HIGH),
        ],
        [("a", (iv(1),)), ("c", (iv(2),))],
    )
    with pytest.raises(ContractError, match="lo: blocked by higher-priority mid"):
        cpn_fire(net, net.initial_marking, net.transition("lo"), {"x": iv(2)}, RECYCLING)
    with pytest.raises(ContractError, match="mid: blocked by higher-priority hi"):
        cpn_fire(net, net.initial_marking, net.transition("mid"), {"x": iv(1)}, RECYCLING)
    after, _ = cpn_fire(net, net.initial_marking, net.transition("hi"), {"x": iv(1)}, RECYCLING)
    assert after == Marking.from_tokens([("c", (iv(2),))])


def test_unknown_priority_level_is_never_enabled():
    # cpn_validate rejects such a transition; enabling and firing ignore it
    t = CpnTransition("odd", inputs=(("a", (x(),)),), priority=7)
    lo = CpnTransition("lo", inputs=(("a", (x(),)),), priority=P_LOW)
    net = small_net([t, lo], [("a", (iv(1),))])
    offered = cpn_enabled(net, net.initial_marking, RECYCLING)
    assert names(offered) == ["lo"]
    for tr, theta in offered:
        after, _ = cpn_fire(net, net.initial_marking, tr, theta, RECYCLING)
        assert after.count("a", (iv(1),)) == 0


def test_normal_sits_between():
    mk = [("a", (iv(1),))]
    three = [
        CpnTransition("hi", inputs=(("a", (x(),)),), priority=P_HIGH, guard=Compare("!=", x(), iv(1))),
        CpnTransition("mid", inputs=(("a", (x(),)),), priority=P_NORMAL),
        CpnTransition("lo", inputs=(("a", (x(),)),), priority=P_LOW),
    ]
    net = small_net(three, mk)
    # hi's guard rejects its only binding, so the normal level wins
    assert names(cpn_enabled(net, net.initial_marking, RECYCLING)) == ["mid"]


# ---------------------------------------------------------------------------
# read arcs


def test_read_arc_requires_presence():
    t = CpnTransition("r", inputs=(("a", (x(),)),), reads=(("b", (x("y"),)),))
    net = small_net([t], [("a", (iv(1),))])
    assert cpn_enabled(net, net.initial_marking, RECYCLING) == []
    with_b = net.initial_marking.plus([("b", (iv(7),))])
    assert names(cpn_enabled(net, with_b, RECYCLING)) == ["r"]


def test_read_arc_does_not_consume():
    t = CpnTransition(
        "r", inputs=(("a", (x(),)),), reads=(("b", (x("y"),)),), outputs=(("c", (x(),)),)
    )
    net = small_net([t], [("a", (iv(1),)), ("b", (iv(7),))])
    ((_, theta),) = cpn_enabled(net, net.initial_marking, RECYCLING)
    after, label = cpn_fire(net, net.initial_marking, t, theta, RECYCLING)
    assert after.count("b", (iv(7),)) == 1  # still there
    assert after.count("a", (iv(1),)) == 0
    assert after.count("c", (iv(1),)) == 1
    assert label == EPS


def test_one_token_serves_many_readers():
    # two transitions read the same single token; both are enabled at once
    ts = [
        CpnTransition("r1", inputs=(("a", (x(),)),), reads=(("b", (x("y"),)),)),
        CpnTransition("r2", inputs=(("c", (x(),)),), reads=(("b", (x("y"),)),)),
    ]
    net = small_net(ts, [("a", (iv(1),)), ("c", (iv(2),)), ("b", (iv(7),))])
    assert names(cpn_enabled(net, net.initial_marking, RECYCLING)) == ["r1", "r2"]


def test_consuming_twice_needs_two_copies():
    # same token demanded twice on input arcs: multiset inclusion
    t = CpnTransition("two", inputs=(("a", (iv(1),)), ("a", (iv(1),))))
    net = small_net([t], [("a", (iv(1),))])
    assert cpn_enabled(net, net.initial_marking, RECYCLING) == []
    doubled = net.initial_marking.plus([("a", (iv(1),))])
    assert names(cpn_enabled(net, doubled, RECYCLING)) == ["two"]


def test_constants_in_input_inscriptions_select_tokens():
    t = CpnTransition("pick", inputs=(("a", (iv(2),)),), outputs=(("b", (iv(2),)),))
    net = small_net([t], [("a", (iv(1),))])
    assert cpn_enabled(net, net.initial_marking, RECYCLING) == []
    netv = small_net([t], [("a", (iv(2),))])
    assert names(cpn_enabled(netv, netv.initial_marking, RECYCLING)) == ["pick"]


# ---------------------------------------------------------------------------
# fresh variables


def test_fresh_binds_outside_the_whole_marking():
    t = CpnTransition("mint", inputs=(("a", (x(),)),), outputs=(("b", (x("f", fresh=True),)),))
    net = small_net([t], [("a", (iv(1),)), ("c", (iv(2),))])
    ((_, theta),) = cpn_enabled(net, net.initial_marking, RECYCLING)
    # 1 and 2 are in the marking (any place counts), so the stream gives 3
    assert theta["f"] == iv(3)


def test_fresh_branching_follows_the_policy():
    t = CpnTransition("mint", inputs=(("a", (x(),)),), outputs=(("b", (x("f", fresh=True),)),))
    net = small_net([t], [("a", (iv(1),))])
    got = cpn_enabled(net, net.initial_marking, FreshPolicy.parse("bounded:2"))
    assert sorted((th["f"] for _, th in got), key=lambda v: v.sort_key()) == [iv(2), iv(3)]


def test_two_fresh_variables_get_distinct_values():
    two = CpnPlace("two", ("int", "int"))
    t = CpnTransition(
        "mint2",
        inputs=(("a", (x(),)),),
        outputs=(("two", (x("f", fresh=True), x("g", fresh=True))),),
    )
    net = small_net([t], [("a", (iv(1),))], extra_places=[two])
    ((_, theta),) = cpn_enabled(net, net.initial_marking, RECYCLING)
    assert theta["f"] != theta["g"]


def test_fire_rejects_stale_fresh_value():
    t = CpnTransition("mint", inputs=(("a", (x(),)),), outputs=(("b", (x("f", fresh=True),)),))
    net = small_net([t], [("a", (iv(1),))])
    with pytest.raises(ContractError):
        cpn_fire(net, net.initial_marking, t, {"x": iv(1), "f": iv(1)}, RECYCLING)


# ---------------------------------------------------------------------------
# external variables and labels


def test_external_variable_ranges_over_samples():
    t = CpnTransition(
        "ext",
        inputs=(("a", (x(),)),),
        outputs=(("b", (x("e"),)),),
        emit=Emit("ext", "commit", ("e", "x")),
    )
    net = small_net([t], [("a", (iv(1),))], samples={"int": (iv(8), iv(9))})
    got = cpn_enabled(net, net.initial_marking, RECYCLING)
    assert sorted((th["e"] for _, th in got), key=lambda v: v.sort_key()) == [iv(8), iv(9)]
    theta = min((th for _, th in got), key=lambda th: th["e"].sort_key())
    after, label = cpn_fire(net, net.initial_marking, t, theta, RECYCLING)
    assert label == ("obs", "ext", (("e", "8"), ("x", "1")), "commit")


def test_fire_refuses_when_not_enabled():
    t = CpnTransition("move", inputs=(("a", (x(),)),), outputs=(("b", (x(),)),))
    net = small_net([t], [("a", (iv(1),))])
    with pytest.raises(ContractError):
        cpn_fire(net, net.initial_marking, t, {"x": iv(5)}, RECYCLING)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_the_toys():
    t = CpnTransition("move", inputs=(("a", (x(),)),), outputs=(("b", (x(),)),))
    assert cpn_validate(small_net([t], [("a", (iv(1),))])) == []


def test_validate_rejects_fresh_on_input_arc():
    t = CpnTransition("bad", inputs=(("a", (x("f", fresh=True),)),))
    probs = cpn_validate(small_net([t], []))
    assert any("fresh" in p for p in probs)


def test_validate_rejects_unknown_place_and_bad_arity():
    t = CpnTransition("bad", inputs=(("nowhere", (x(),)),))
    assert any("unknown place" in p for p in cpn_validate(small_net([t], [])))
    t2 = CpnTransition("bad2", inputs=(("a", (x(), x("y"))),))
    assert any("arity" in p for p in cpn_validate(small_net([t2], [])))


def test_validate_rejects_unsampled_external():
    t = CpnTransition("bad", inputs=(("a", (x(),)),), outputs=(("b", (x("e"),)),))
    probs = cpn_validate(small_net([t], []))
    assert any("sample domain" in p for p in probs)


def test_validate_rejects_type_mismatch_in_marking():
    t = CpnTransition("move", inputs=(("a", (x(),)),))
    net = small_net([t], [("a", (make_value(STR, "oops"),))])
    assert any("does not fit" in p for p in cpn_validate(net))


# ---------------------------------------------------------------------------
# exploration


def test_cpn_state_space_is_exact():
    t1 = CpnTransition("ab", inputs=(("a", (x(),)),), outputs=(("b", (x(),)),))
    t2 = CpnTransition("bc", inputs=(("b", (x(),)),), outputs=(("c", (x(),)),))
    net = small_net([t1, t2], [("a", (iv(1),))])
    lts = cpn_build_lts(net, RECYCLING)
    assert lts.state_count == 3
    assert lts.edge_count == 2
    assert not lts.truncated


def test_cpn_exploration_refuses_unbounded():
    t = CpnTransition("move", inputs=(("a", (x(),)),))
    net = small_net([t], [("a", (iv(1),))])
    with pytest.raises(ContractError, match="unbounded"):
        cpn_build_lts(net, FreshPolicy.parse("unbounded"))


def level_only(net, prio):
    """The same net restricted to one priority level, so that plain
    enabling can be asked per level without the global filter."""
    return NuCpn(
        name=net.name,
        types=net.types,
        places=net.places,
        transitions=tuple(t for t in net.transitions if t.priority == prio),
        initial_marking=net.initial_marking,
        samples=net.samples,
        default_policy=net.default_policy,
        place_classes=net.place_classes,
    )


def test_priority_audit_on_a_translated_net(shop_translation, shop_cpn_lts):
    # Re-derive the firing rule state by state: the enabled set must be
    # exactly the highest non-empty priority level, and the explored
    # edges exactly its firings.
    net = shop_translation.net
    levels = {p: level_only(net, p) for p in (P_HIGH, P_NORMAL, P_LOW)}
    outgoing = {}
    st = shop_cpn_lts.states
    for src, label, dst in shop_cpn_lts.edges:
        outgoing.setdefault(st[src], set()).add((label, st[dst]))
    for state in shop_cpn_lts.states:
        expected = []
        for p in (P_HIGH, P_NORMAL, P_LOW):
            expected = cpn_enabled(levels[p], state, BOUNDED1)
            if expected:
                break
        got = cpn_enabled(net, state, BOUNDED1)
        key = lambda pair: (
            pair[0].name,
            sorted((n, v.sort_key()) for n, v in pair[1].items()),
        )
        assert sorted(got, key=key) == sorted(expected, key=key)
        succ = set()
        for t, theta in got:
            m2, label = cpn_fire(net, state, t, theta, BOUNDED1)
            succ.add((label, m2))
        assert outgoing.get(state, set()) == succ


# ---------------------------------------------------------------------------
# enabling against a plain reference scan


def one_transition_nets(net):
    """One single-transition copy of ``net`` per transition, in net order."""
    return [
        (t, NuCpn(
            name=net.name,
            types=net.types,
            places=net.places,
            transitions=(t,),
            initial_marking=net.initial_marking,
            samples=net.samples,
            default_policy=net.default_policy,
        ))
        for t in net.transitions
    ]


def reference_enabled(singles, marking, policy):
    """Every transition, highest priority level first, net order within a
    level: the first level with any binding wins.  Each transition is
    asked alone, in a net of its own, so the answer cannot depend on the
    index or on the other transitions."""
    for prio in (P_HIGH, P_NORMAL, P_LOW):
        level = [
            pair
            for t, alone in singles
            if t.priority == prio
            for pair in cpn_enabled(alone, marking, policy)
        ]
        if level:
            return level
    return []


def assert_enabling_matches_reference(net, lts):
    singles = one_transition_nets(net)
    for state in lts.states:
        assert cpn_enabled(net, state, BOUNDED1) == reference_enabled(singles, state, BOUNDED1)


@pytest.mark.parametrize(
    "name", ["shop", "touch", "guarded", "domviol", "fk_net", "selfref", "empty_net"]
)
def test_enabling_matches_the_reference_scan_on_the_corpus(request, name):
    net = translate(request.getfixturevalue(name)).net
    lts = cpn_build_lts(net, BOUNDED1)
    assert not lts.truncated
    assert_enabling_matches_reference(net, lts)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_enabling_matches_the_reference_scan_on_mutants(mutation):
    net = apply_mutation(translate(build_shopping_cart(1, 2)), mutation).net
    assert_enabling_matches_reference(net, cpn_build_lts(net, BOUNDED1, max_states=1500))


# ---------------------------------------------------------------------------
# the exploration's firings memo against the plain token game


def assert_edges_match_the_token_game(net, lts):
    """Every explored state's outgoing edges are exactly what firing its
    ``cpn_enabled`` bindings with ``cpn_fire`` gives.  Neither call sees
    the memo that exploration keeps."""
    kept = set(lts.states)
    outgoing = {}
    for src, label, dst in lts.edges:
        outgoing.setdefault(lts.states[src], set()).add((label, lts.states[dst]))
    for state in lts.states:
        succ = set()
        for t, theta in cpn_enabled(net, state, BOUNDED1):
            m2, label = cpn_fire(net, state, t, theta, BOUNDED1)
            if m2 in kept:  # a capped exploration drops the states past the cap
                succ.add((label, m2))
        assert outgoing.get(state, set()) == succ


@pytest.mark.parametrize(
    "name", ["shop", "touch", "guarded", "domviol", "fk_net", "selfref", "empty_net"]
)
def test_explored_edges_match_the_token_game_on_the_corpus(request, name):
    net = translate(request.getfixturevalue(name)).net
    lts = cpn_build_lts(net, BOUNDED1, max_states=1500)  # the largest has 531
    assert not lts.truncated
    assert_edges_match_the_token_game(net, lts)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_explored_edges_match_the_token_game_on_mutants(mutation):
    net = apply_mutation(translate(build_shopping_cart(1, 2)), mutation).net
    assert_edges_match_the_token_game(net, cpn_build_lts(net, BOUNDED1, max_states=1500))


def test_fresh_values_are_never_memoised():
    # ``mint`` sees the same token on ``a`` in every state while ``b``
    # fills up: each fresh value avoids the values of its own state.
    t = CpnTransition(
        "mint", inputs=(("a", (x(),)),), outputs=(("a", (x(),)), ("b", (x("f", fresh=True),)))
    )
    net = small_net([t], [("a", (iv(1),))])
    lts = cpn_build_lts(net, BOUNDED1, max_states=4)
    assert len(lts.edges) >= 3
    for s, _, d in lts.edges:
        src, dst = lts.states[s], lts.states[d]
        (new,) = {tok for tok, _ in dst.tokens("b")} - {tok for tok, _ in src.tokens("b")}
        assert new[0] not in set(src.all_values())


def test_bindings_are_computed_once_per_local_marking(monkeypatch):
    # Locality: without fresh variables, a transition's bindings depend on
    # the tokens of its input and read places only, so exploration binds
    # it once per distinct content of those places.  Counted, not timed.
    net = translate(build_shopping_cart(1, 2)).net
    calls = []
    real = cpn.bind_transition

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(cpn, "bind_transition", counting)
    lts = cpn_build_lts(net, BOUNDED1)
    monkeypatch.undo()

    levels = (P_HIGH, P_NORMAL, P_LOW)
    fresh = {t.name for t in net.transitions if _cpn_scope(t)[1]}
    keys, fresh_calls, visits = set(), 0, 0
    for state in lts.states:
        # the scan visits every level down to the first one that fires
        enabled = cpn_enabled(net, state, BOUNDED1)
        floor = enabled[0][0].priority if enabled else P_LOW
        for t in net.transitions:
            if t.priority not in levels or t.priority < floor:
                continue
            if not all(state.tokens(place) for place, _ in t.inputs):
                continue
            visits += 1
            if t.name in fresh:
                fresh_calls += 1
            else:
                local = {place for place, _ in tuple(t.inputs) + tuple(t.reads)}
                keys.add((t.name, state.restrict(local)))
    assert fresh and fresh_calls
    assert len(calls) == len(keys) + fresh_calls
    assert 4 * len(calls) < visits
