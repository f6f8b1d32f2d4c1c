"""Prioritized coloured nets with read arcs and name creation."""

import gc
import logging
import re
import weakref
from collections import Counter

import pytest

import dbnet.lts
import dbnet.marking
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

from conftest import BOUNDED1, RECYCLING, unit_net

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
    with_b = net.initial_marking.update((), [("b", (iv(7),))])
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
    doubled = net.initial_marking.update((), [("a", (iv(1),))])
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
    with pytest.raises(ContractError, match="mint: value for f is not fresh"):
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
    with pytest.raises(ContractError, match="move: input tokens not available"):
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
# the kernel of stable markings: one local search per expansion


def locked(marking):
    return marking.total("lock") >= 1


def edges_by_marking(lts):
    st = lts.states
    return {(st[s], label, st[d]) for s, label, d in lts.edges}


def units(*places):
    return Marking.from_tokens([(p, ()) for p in places])


LEAVE = ("obs", "LEAVE", (), "commit")


def test_a_silent_chain_folds_into_the_step_that_entered_it():
    net = unit_net({
        "enter": (["lock"], ["a"]),
        "on": (["a"], ["b"]),
        "LEAVE": (["b"], ["c"]),
        "exit": (["c"], ["lock"]),
    })
    full = cpn_build_lts(net, RECYCLING)
    assert full.state_count == 4
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    # the gadget run enter, on, LEAVE, exit is one weak move, named by
    # its observable
    assert kernel.states == [units("lock")]
    assert edges_by_marking(kernel) == {(units("lock"), LEAVE, units("lock"))}
    assert kernel.largest_search == 4  # the lock's marking, a, b and c
    assert kernel.dead_ends == kernel.divergences == {}
    assert not kernel.truncated


def test_a_search_reports_its_first_dead_end():
    net = unit_net({
        "enter": (["lock"], ["a"]),
        "on": (["a"], ["b"]),
        "left": (["b"], ["lock"]),
        "right": (["b"], ["d"]),
        "stuck": (["d"], ["e"]),
    })
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.states == [units("lock")]
    # left rolls back to the root: a silent move that eps_targets holds
    # already, so it gets no edge
    assert kernel.edges == []
    # by its root: the firings from it, and the dead marking
    assert kernel.dead_ends == {units("lock"): ((EPS, EPS, EPS, EPS), units("e"))}
    assert kernel.divergences == {}


def test_a_silent_cycle_stays_a_cycle():
    # a leads into the cycle b -> c -> b, so the witness is b or c, never a
    net = unit_net({
        "enter": (["lock"], ["a"]),
        "ab": (["a"], ["b"]),
        "bc": (["b"], ["c"]),
        "cb": (["c"], ["b"]),
    })
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.states == [units("lock")]
    assert kernel.edges == []
    (root, (labels, marking)), = kernel.divergences.items()
    assert root == units("lock")
    assert marking in (units("b"), units("c"))
    assert len(labels) == (2 if marking == units("b") else 3)
    assert kernel.dead_ends == {}


def test_a_stable_marking_behind_two_observables_is_explored_without_an_edge():
    # IN and OUT are two observables between the stable markings, and
    # from the second one, sink takes the lock into a dead end
    net = unit_net({
        "IN": (["lock", "t"], ["a"]),
        "OUT": (["a"], ["lock", "s"]),
        "sink": (["s", "lock"], ["d"]),
    }, marked=("lock", "t"))
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.states == [units("lock", "t"), units("lock", "s")]
    assert kernel.edges == []
    assert kernel.dead_ends == {units("lock", "s"): ((EPS,), units("d"))}


def test_each_search_reports_its_own_dead_end():
    # TICK leads from the first stable marking to the second; each one's
    # search meets a dead end of its own, and reports the first it meets
    net = unit_net({
        "enter": (["lock"], ["a"]),
        "stuck": (["a"], ["d"]),
        "TICK": (["lock", "t"], ["lock", "s"]),
        "sink": (["s", "lock"], ["e"]),
    }, marked=("lock", "t"))
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.states == [units("lock", "t"), units("lock", "s")]
    assert kernel.dead_ends == {
        units("lock", "t"): ((EPS, EPS), units("d", "t")),
        units("lock", "s"): ((EPS,), units("e")),  # before a, s and then d, s
    }
    assert kernel.divergences == {}


def test_bindings_with_one_effect_are_one_step_of_a_chain():
    # ``on`` reads either token on r and moves a's token to b: two
    # bindings with one effect, which reach one marking of the search
    def unit(name, ins, outs, emit=None):
        return CpnTransition(name, inputs=tuple((p, ()) for p in ins),
                             outputs=tuple((p, ()) for p in outs), emit=emit)

    def with_r(*places):
        return Marking.from_tokens([(p, ()) for p in places] + [("r", (iv(1),)), ("r", (iv(2),))])

    leave = Emit("LEAVE", "commit", ())
    net = NuCpn(
        name="one-effect",
        types={"int": INT},
        places=dict({p: CpnPlace(p, ()) for p in ("lock", "a", "b", "c")},
                    r=CpnPlace("r", ("int",))),
        transitions=(
            unit("enter", ["lock"], ["a"]),
            CpnTransition("on", inputs=(("a", ()),), reads=(("r", (x(),)),), outputs=(("b", ()),)),
            unit("LEAVE", ["b"], ["c"], emit=leave),
            unit("exit", ["c"], ["lock"]),
        ),
        initial_marking=with_r("lock"),
    )
    at_a = cpn_enabled(net, with_r("a"), RECYCLING)
    assert len(at_a) == 2
    assert {cpn_fire(net, with_r("a"), t, theta, RECYCLING) for t, theta in at_a} == {
        (with_r("b"), EPS)
    }
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.states == [with_r("lock")]
    assert edges_by_marking(kernel) == {(with_r("lock"), LEAVE, with_r("lock"))}
    assert kernel.largest_search == 4
    assert not kernel.truncated


@pytest.mark.parametrize("limit", [{"max_states": 100}, {"max_depth": 5}])
def test_a_runaway_walk_is_cut_at_the_cap(limit):
    # the only firing inside is a silent grow, so the bag on q never stops
    # growing and the search never ends by itself
    net = unit_net({"enter": (["lock"], ["p"]), "grow": (["p"], ["p", "q"])})
    kernel = cpn_build_lts(net, RECYCLING, keep=locked, **limit)
    assert kernel.truncated
    assert kernel.states == [units("lock")]
    assert kernel.edges == []
    # 100 markings, or the root and the 5 markings within 5 firings
    assert kernel.largest_search == limit.get("max_states", 6)


def test_the_searches_share_one_budget_of_markings(monkeypatch):
    # every stable marking's search runs away, and TICK leads on to a new
    # stable marking each time.  The first search spends the budget of
    # 100 markings, so the second is cut at its first interior marking
    # and no stable marking after it is found: the work stays within the
    # cap, where a cap per search would allow 100 markings per stable one.
    net = unit_net({
        "enter": (["lock"], ["g"]),
        "grow": (["g"], ["g", "q"]),
        "TICK": (["lock"], ["lock", "s"]),
    })
    scans = []
    real = cpn._prioritised
    monkeypatch.setattr(cpn, "_prioritised", lambda *a: scans.append(1) or real(*a))
    kernel = cpn_build_lts(net, RECYCLING, keep=locked, max_states=100)
    assert kernel.truncated
    assert kernel.states == [units("lock"), units("lock", "s")]
    tick = ("obs", "TICK", (), "commit")
    assert edges_by_marking(kernel) == {(units("lock"), tick, units("lock", "s"))}
    assert kernel.largest_search == 100
    assert len(scans) == 101  # the first search, and the second one's root


def test_the_kernel_logs_progress_every_so_many_markings(monkeypatch, caplog):
    # three stable markings: the first search visits its root, a and b,
    # the second its root and c, the third its root only
    monkeypatch.setattr(dbnet.lts, "PROGRESS_EVERY", 2)
    caplog.set_level(logging.INFO, logger="dbnet.cpn")
    net = unit_net({
        "enter": (["lock", "p0"], ["a"]),
        "ab": (["a"], ["b"]),
        "LEAVE": (["b"], ["lock", "p1"]),
        "again": (["lock", "p1"], ["c"]),
        "BACK": (["c"], ["lock", "p2"]),
    }, marked=("lock", "p0"))
    kernel = cpn_build_lts(net, RECYCLING, keep=locked)
    assert kernel.state_count == 3
    assert kernel.largest_search == 3
    lines = [re.sub(r"[\d.]+ s$", "T s", r.getMessage()) for r in caplog.records]
    assert lines == [
        "kernel: 2 markings visited, largest search 2, T s",
        "kernel: 4 markings visited, largest search 3, T s",
        "kernel: 6 markings visited, largest search 3, T s",
    ]


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


def lock_is_home(out):
    return lambda marking: out.lock_place in marking.marked()


def weak_moves_by_the_token_game(net, root, keep):
    """The weak moves out of the stable marking ``root`` as a plain search
    with ``cpn_enabled`` and ``cpn_fire`` finds them: ``(label, target)``
    for each stable target reached across at most one observable, bar a
    silent move back to ``root``; and every stable marking reached."""
    moves, reached = set(), set()
    seen = {(root, EPS)}
    queue = [(root, EPS)]
    for marking, weak in queue:
        for t, theta in cpn_enabled(net, marking, BOUNDED1):
            after, label = cpn_fire(net, marking, t, theta, BOUNDED1)
            now = weak if label == EPS else label if weak == EPS else "two"
            if keep(after):
                reached.add(after)
                if now != "two" and (now != EPS or after != root):
                    moves.add((now, after))
            elif (after, now) not in seen:
                seen.add((after, now))
                queue.append((after, now))
    return moves, reached


@pytest.mark.parametrize(
    "name", ["shop", "touch", "guarded", "domviol", "fk_net", "selfref", "empty_net"]
)
def test_kernel_edges_match_the_token_game_on_the_corpus(request, name):
    out = translate(request.getfixturevalue(name))
    keep = lock_is_home(out)
    kernel = cpn_build_lts(out.net, BOUNDED1, keep=keep)
    assert not kernel.truncated
    outgoing = {}
    for src, label, dst in kernel.edges:
        outgoing.setdefault(kernel.states[src], set()).add((label, kernel.states[dst]))
    stable = {out.net.initial_marking}
    for state in kernel.states:
        moves, reached = weak_moves_by_the_token_game(out.net, state, keep)
        assert outgoing.get(state, set()) == moves
        stable |= reached
    assert set(kernel.states) == stable


@pytest.mark.parametrize("stable_only", [False, True], ids=["full", "kernel"])
def test_equal_deltas_of_one_exploration_are_one_object_and_stepped_once(monkeypatch, stable_only):
    # every firing the exploration applies is a tuple of per-place deltas
    # taken from one table per exploration, whose tokens come from one
    # table too; all of them step through one (record, delta) -> next
    # record table, which computes each pair's next record once
    out = translate(build_shopping_cart(1, 2))
    keep = lock_is_home(out) if stable_only else None
    tokens, deltas, tables, computed = {}, {}, set(), Counter()
    updates = 0
    real_apply, real_next = Marking.apply, dbnet.marking._next_record

    def watched_apply(m, firing, table):
        nonlocal updates
        tables.add(id(table))
        for delta in firing:
            assert deltas.setdefault(delta, delta) is delta
            for token in (*delta[1], *delta[2]):
                assert tokens.setdefault(token, token) is token
        updates += len(firing)
        return real_apply(m, firing, table)

    def counted_next(old, delta):
        computed[(old, delta)] += 1
        return real_next(old, delta)

    monkeypatch.setattr(Marking, "apply", watched_apply)
    monkeypatch.setattr(dbnet.marking, "_next_record", counted_next)
    cpn_build_lts(out.net, BOUNDED1, keep=keep)
    assert len(tables) == 1
    assert set(computed.values()) == {1}
    assert updates > 8 * len(computed) >= 8 * len(deltas)


def test_the_next_record_table_dies_with_its_exploration(monkeypatch):
    # the records that the exploration built and only interior markings
    # held are gone when the kernel is built: nothing keeps a table past
    # its exploration.  Earlier garbage is collected first; then, with
    # the cycle collector off and forbidden, only reference counting
    # frees them.  Records that were alive before (other tests' graphs
    # may hold equal ones) are left out.
    out = translate(build_shopping_cart(1, 2))
    gc.collect()
    existing = list(dbnet.marking._RECORDS.values())
    old = {id(rec) for rec in existing}
    built = []
    real_next = dbnet.marking._next_record

    def remembered(before, delta):
        new = real_next(before, delta)
        if new is not None and id(new) not in old:
            built.append(weakref.ref(new))
        return new

    def forbidden():
        raise AssertionError("exploration must not call gc.collect")

    monkeypatch.setattr(dbnet.marking, "_next_record", remembered)
    monkeypatch.setattr(gc, "collect", forbidden)
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel = cpn_build_lts(out.net, BOUNDED1, keep=lock_is_home(out))
        places = tuple(out.net.places)
        held = {id(rec) for m in kernel.states for rec in m.records(places)}
        alive = [ref() for ref in built]
        assert None in alive
        assert all(id(rec) in held for rec in alive if rec is not None)
    finally:
        if enabled:
            gc.enable()


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
