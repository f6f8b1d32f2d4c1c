"""Contents of states and the weak equivalence check."""

import hashlib
import json
import logging
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dbnet import bisim, cpn
from dbnet.bisim import (
    BISIMILAR,
    NOT_BISIMILAR,
    TruncatedError,
    certify_translation,
    check_weak_bisim,
)
from dbnet.corpus import build_shopping_cart, shop_text
from dbnet.cpn import CpnPlace, CpnTransition, Emit, NuCpn, cpn_build_lts
from dbnet.dsl import parse_model
from dbnet.lts import EPS, Lts
from dbnet.marking import Marking
from dbnet.freshness import FreshPolicy
from dbnet.model import Snapshot, build_lts, render_snapshot
from dbnet.mutations import MUTATIONS, apply_mutation
from dbnet.fo import Compare
from dbnet.relational import (ContractError, DataType, Variable, instance_lines, make_value,
                              render_fact)
from dbnet.translate import snapshot_image, translate

import gen
from conftest import BOUNDED1, CORPUS_NAMES, RECYCLING, load_corpus, unit_net

INT = DataType("int", "int")
OBS = ("obs", "T", (), "commit")
OBS2 = ("obs", "T", (), "rollback")


def hand_lts(states, edges, view):
    """A little LTS and its view for the checker: ``view`` maps each state
    to its ``(contents, stable)`` pair, with a string for contents, so
    ``str`` renders it.  States are names, the first one initial; edges
    name their ends, and are numbered here."""
    number = {s: i for i, s in enumerate(states)}
    lts = Lts(
        states=list(states),
        edges=[(number[src], label, number[dst]) for src, label, dst in edges],
    )
    return lts, [view[s] for s in states]


def source_view(lts: Lts, translation) -> list:
    """Each source snapshot's ``(contents, stable)``: its image, stable."""
    image = partial(snapshot_image, relation_places=translation.relation_places)
    return bisim.flatten(lts, contents=image, lock=None)


def target_view(lts: Lts, translation) -> list:
    """Each translated marking's ``(contents, stable)``."""
    visible, _render = bisim._visible_and_render(translation)
    return bisim.flatten(lts, contents=lambda m: m.restrict(visible), lock=translation.lock_place)


def checker_input(raw1: Lts, raw2: Lts, translation) -> tuple:
    """The arguments of ``check_weak_bisim`` for a source graph and a
    graph of the translated net."""
    _visible, render = bisim._visible_and_render(translation)
    return (raw1, source_view(raw1, translation), raw2, target_view(raw2, translation), render)


# ---------------------------------------------------------------------------
# contents


def test_flatten_source_side_is_the_identity_projection(shop, shop_lts):
    # a snapshot's image marks visible places only, so restricting it to
    # them is the identity
    out = translate(shop)
    visible, render = bisim._visible_and_render(out)
    for snap, (contents, stable) in zip(shop_lts.states, source_view(shop_lts, out)):
        assert stable is True
        assert contents.restrict(visible) is contents
        assert ";".join(instance_lines(snap.instance)) in render(contents)


def test_flatten_translated_side_hides_the_machinery():
    for name in CORPUS_NAMES:
        model = load_corpus(name)
        out = translate(model)
        _visible, render = bisim._visible_and_render(out)
        lts = cpn_build_lts(out.net, BOUNDED1)
        view = target_view(lts, out)
        contents, stable = view[0]
        assert stable is True  # the lock is free initially
        # the same contents as the source initial state
        assert contents == snapshot_image(model.initial_snapshot(), out.relation_places), name
        # the lock never shows up in any contents
        for contents, _stable in view:
            assert out.lock_place not in contents.marked()
            assert out.lock_place not in render(contents)


def flat_of_snapshot(snap) -> str:
    """A snapshot's text as written out from its facts and control tokens."""
    m = snap.marking
    control = sorted(
        render_fact(place, token) for place in m.places_marked()
        for token, n in m.tokens(place) for _ in range(n)
    )
    return f"facts{{{';'.join(instance_lines(snap.instance))}}}|ctl{{{';'.join(control)}}}"


def test_flat_state_render_is_sorted():
    one, two = make_value(INT, 1), make_value(INT, 2)
    contents = Marking({
        "rel.S": {(one,): 1}, "rel.R": {(two,): 2, (one,): 1},
        "q": {(): 1}, "p": {(one, two): 3}, "lock": {(): 1}, "at": {(): 1},
    })
    classes = {"rel.R": "relation", "rel.S": "relation", "p": "original-control",
               "q": "original-control", "lock": "lock", "at": "intermediate"}
    names = {"rel.R": "R", "rel.S": "S"}
    assert bisim._flat_of_marking(contents, classes, names) == (
        "facts{R(1);R(2);R(2);S(1)}|ctl{p(1,2);p(1,2);p(1,2);q()}"
    )
    assert bisim._flat_of_marking(Marking.EMPTY, classes, names) == "facts{}|ctl{}"


# ---------------------------------------------------------------------------
# the checker on handmade graphs


def test_stutter_steps_do_not_separate():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(
        ["p", "q", "r"],
        [("p", EPS, "q"), ("q", OBS, "r")],
        {"p": ("F0", True), "q": ("F0", False), "r": ("F1", True)},
    )
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == BISIMILAR
    assert ("a", "p") in res.relation


def test_differing_outcome_is_an_unmatched_move():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(["p", "r"], [("p", OBS2, "r")], {"p": ("F0", True), "r": ("F1", True)})
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "unmatched-move"
    assert res.trace  # a replayable explanation comes along


def test_silent_dead_end_is_rejected():
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(
        ["p", "q"], [("p", EPS, "q")], {"p": ("F0", True), "q": ("F0", False)}
    )
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "silent-dead-end"
    assert res.witness["side"] == "right"


def test_silent_divergence_is_rejected():
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(
        ["p", "q"],
        [("p", EPS, "q"), ("q", EPS, "q")],
        {"p": ("F0", True), "q": ("F0", False)},
    )
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "silent-divergence"


def test_a_divergence_witness_lies_on_the_silent_cycle():
    # c is numbered before b and survives the peel, but c only leads back
    # to the stable s; the interior cycle is b's self-loop.  b also shares
    # a strongly connected component with s, so reach sets cannot tell.
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(
        ["s", "c", "x", "b"],
        [("s", EPS, "c"), ("s", EPS, "x"), ("x", EPS, "b"), ("b", EPS, "b"), ("b", EPS, "c"),
         ("c", EPS, "s")],
        {"s": ("F0", True), "c": ("C", False), "x": ("X", False), "b": ("B", False)},
    )
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness == {"kind": "silent-divergence", "side": "right", "state": "B"}
    assert res.trace == (
        "silent divergence on the right side", "state: B", "  via eps", "  via eps",
    )


def test_silent_cycle_through_a_stable_state_is_fine():
    # a stable state on the cycle means the run always converges
    l1 = hand_lts(["a"], [("a", EPS, "a")], {"a": ("F0", True)})
    l2 = hand_lts(["p"], [], {"p": ("F0", True)})
    assert check_weak_bisim(*l1, *l2, str).verdict == BISIMILAR


def test_initial_content_mismatch():
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(["p"], [], {"p": ("OTHER", True)})
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "content-mismatch"


def test_mismatch_two_moves_deep_is_traced():
    l1 = hand_lts(
        ["a", "b", "c"],
        [("a", OBS, "b"), ("b", OBS2, "c")],
        {"a": ("F0", True), "b": ("F1", True), "c": ("F2", True)},
    )
    l2 = hand_lts(
        ["p", "q"], [("p", OBS, "q")], {"p": ("F0", True), "q": ("F1", True)}
    )
    res = check_weak_bisim(*l1, *l2, str)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "unmatched-move"
    assert any("descending" in line for line in res.trace)


def test_verdict_is_symmetric():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(["p", "r"], [("p", OBS2, "r")], {"p": ("F0", True), "r": ("F1", True)})
    assert check_weak_bisim(*l1, *l2, str).verdict == check_weak_bisim(*l2, *l1, str).verdict
    l3 = hand_lts(
        ["p", "q", "r"],
        [("p", EPS, "q"), ("q", OBS, "r")],
        {"p": ("F0", True), "q": ("F0", False), "r": ("F1", True)},
    )
    assert check_weak_bisim(*l1, *l3, str).verdict == check_weak_bisim(*l3, *l1, str).verdict == BISIMILAR


def test_a_silent_chain_reaches_its_stable_end():
    lts, view = hand_lts(
        ["a", "b", "c", "d"],
        [("a", EPS, "b"), ("b", EPS, "c"), ("c", OBS, "d")],
        {"a": ("F0", False), "b": ("F0", False), "c": ("F0", True), "d": ("F1", True)},
    )
    side = bisim._Side(lts, "left", view, str)
    assert side.eps_targets(0) == frozenset({2})
    assert side.eps_targets(0) == side.eps_targets(1) == side.eps_targets(2)
    assert side.big_steps(0) == {OBS: frozenset({3})}


@st.composite
def small_lts(draw) -> tuple:
    """An LTS of 1-5 states and its view: contents F or G, random
    stability, up to three edges per state labelled ``OBS``, ``eps`` or
    ``OBS2``.  Hypothesis leans to the first choice of a ``sampled_from``,
    so an unstable state mostly gets an edge and ``eps`` is not the most
    frequent label: about half of the pairs then pass both convergence
    conditions and reach the fixpoint."""
    n = draw(st.integers(1, 5))
    view = draw(st.lists(st.tuples(st.sampled_from("FG"), st.booleans()), min_size=n, max_size=n))
    moves = st.tuples(st.sampled_from([OBS, EPS, OBS2]), st.integers(0, n - 1))
    edges = []
    for s, (_contents, stable) in enumerate(view):
        least = 0 if stable else draw(st.sampled_from([1, 0]))
        edges += [(s, label, d) for label, d in draw(st.lists(moves, min_size=least, max_size=3))]
    return Lts(states=[f"s{i}" for i in range(n)], edges=edges), view


def brute_force_bisimilar(l1: Lts, view1: list, l2: Lts, view2: list) -> bool:
    """Weak bisimilarity from scratch: both sides converge, and the
    initial pair survives the greatest fixpoint over content-equal pairs
    of stable states, weak moves found by a naive closure."""

    def closure(lts, s, allowed=lambda d: True):
        reach = {s}
        while True:
            more = {d for x, label, d in lts.edges if x in reach and label == EPS and allowed(d)}
            if more <= reach:
                return reach
            reach |= more

    def converges(lts, view):
        unstable = {s for s, (_c, stable) in enumerate(view) if not stable}
        for s in unstable:
            if not any(x == s for x, _label, _d in lts.edges):
                return False  # a silent dead end
            steps = {d for x, label, d in lts.edges if x == s and label == EPS and d in unstable}
            if any(s in closure(lts, d, unstable.__contains__) for d in steps):
                return False  # a silent cycle that never passes a stable state
        return True

    def weak(lts, view, s):
        stable = lambda states: frozenset(x for x in states if view[x][1])
        moves = {EPS: stable(closure(lts, s))}
        for x in closure(lts, s):
            for src, label, d in lts.edges:
                if src == x and label != EPS:
                    moves[label] = moves.get(label, frozenset()) | stable(closure(lts, d))
        return moves

    if not (converges(l1, view1) and converges(l2, view2)):
        return False
    rel = {(p, q) for p in range(len(view1)) for q in range(len(view2))
           if view1[p][0] == view2[q][0] and (view1[p][1] and view2[q][1] or p == q == 0)}
    weak1 = [weak(l1, view1, p) for p in range(len(view1))]
    weak2 = [weak(l2, view2, q) for q in range(len(view2))]

    def answered(moves, answers, related):
        return all(any(related(x, y) for y in answers.get(label, ())) for label, targets in
                   moves.items() for x in targets)

    while True:
        keep = {(p, q) for p, q in rel
                if answered(weak1[p], weak2[q], lambda x, y: (x, y) in rel)
                and answered(weak2[q], weak1[p], lambda y, x: (x, y) in rel)}
        if keep == rel:
            return (0, 0) in rel
        rel = keep


@settings(max_examples=800, deadline=None)
@given(small_lts(), small_lts())
def test_the_reference_check_agrees_with_a_brute_force_fixpoint(left, right):
    got = check_weak_bisim(*left, *right, str)
    assert got.bisimilar == brute_force_bisimilar(*left, *right)


def test_every_flattened_lts_is_bisimilar_to_itself(shop, shop_lts):
    view = source_view(shop_lts, translate(shop))
    assert check_weak_bisim(shop_lts, view, shop_lts, view, str).verdict == BISIMILAR


def test_truncated_inputs_are_refused(shop, shop_lts):
    view = source_view(shop_lts, translate(shop))
    cut = Lts(shop_lts.states, shop_lts.edges, truncated=True)
    with pytest.raises(ContractError, match="truncated"):
        check_weak_bisim(cut, view, shop_lts, view, str)


# ---------------------------------------------------------------------------
# the full pipeline


def no_full_check(*_args, **_kwargs):
    raise AssertionError("the generic weak-bisimulation check ran")


def forbid_full_check(patch):
    """Make ``flatten`` and ``check_weak_bisim`` raise, through the
    monkeypatch ``patch``: ``certify_translation`` needs neither."""
    for name in ("flatten", "check_weak_bisim"):
        patch.setattr(bisim, name, no_full_check)


def test_certify_the_shop(shop):
    res = certify_translation(shop, policy=BOUNDED1)
    assert res.bisimilar
    assert res.relation
    assert res.stats["source-states"] > 1
    # the kernel keeps the stable states only: one per source state
    assert res.stats["translated-states"] == res.stats["source-states"]


def test_certify_is_policy_robust_on_the_shop(shop):
    assert certify_translation(shop, policy=RECYCLING).bisimilar


def test_certify_the_empty_net():
    res = certify_translation(load_corpus("empty"), policy=RECYCLING)
    assert res.bisimilar
    assert res.stats["source-states"] == 1


def test_certify_small_corpus(touch, guarded, domviol, fk_net, selfref):
    for net in (touch, guarded, domviol, fk_net, selfref):
        res = certify_translation(net, policy=BOUNDED1)
        assert res.bisimilar, (net.name, res.witness)


def test_certify_honours_truncation_refusal(shop):
    with pytest.raises(ContractError, match="truncated"):
        certify_translation(shop, policy=BOUNDED1, max_states=10)


def test_truncation_is_refused_before_flattening(shop, monkeypatch):
    # nothing is flattened: the source side's contents are the images of
    # its snapshots, and none is built before its truncation is refused
    imaged = []
    real_source_image = bisim._source_image

    def watched_source_image(relation_places):
        image = real_source_image(relation_places)
        return lambda snap: imaged.append(snap) or image(snap)

    monkeypatch.setattr(bisim, "_source_image", watched_source_image)
    forbid_full_check(monkeypatch)
    with pytest.raises(TruncatedError) as both_cut:
        certify_translation(shop, policy=BOUNDED1, max_states=10)
    assert str(both_cut.value) == (
        "left LTS is truncated; the check needs the complete state space"
    )
    assert imaged == []
    # The source side and the kernel both have 29 states, but the local
    # searches visit 535 markings in all, so a cap of 60 cuts the right
    # side only; the correct translation has no foreign state to refuse.
    with pytest.raises(TruncatedError) as right_cut:
        certify_translation(shop, policy=BOUNDED1, max_states=60)
    assert str(right_cut.value) == (
        "right LTS is truncated; the check needs the complete state space"
    )
    # the contents of the complete source side only, each once
    assert imaged == build_lts(shop, BOUNDED1).states


def test_a_truncated_source_stops_before_the_target_is_explored(shop22, monkeypatch):
    def no_target(*_args, **_kwargs):
        raise AssertionError("the translated net explored after a truncated source")

    monkeypatch.setattr(bisim, "LocalSearch", no_target)
    monkeypatch.setattr(bisim, "cpn_build_lts", no_target)
    with pytest.raises(TruncatedError) as cut:
        certify_translation(shop22, policy=BOUNDED1, max_states=100)
    assert str(cut.value) == "left LTS is truncated; the check needs the complete state space"


# ---------------------------------------------------------------------------
# early refusal at a foreign stable state


HAND_CLASSES = {"lock": "lock", "p": "original-control"}
FOREIGN = "facts{}|ctl{p()}"  # the empty net never marks p


def hand_target(graph, foreign=(), interior=()):
    """A translation of the empty net whose translated net runs the
    drawn graph.  ``graph`` maps a state name to its ``(label,
    successor)`` list; the first key is initial.  Each state is one
    marking: a token on its own intermediate place, plus the lock unless
    the state is ``interior``, plus a token on the original-control
    place ``p`` if it is ``foreign`` (the empty net never marks p).
    Each drawn edge is a transition from the one marking to the other."""
    names = list(graph) + [d for succ in graph.values() for _, d in succ]

    def tokens(name):
        own = [f"at.{name}"] + ["lock"] * (name not in interior) + ["p"] * (name in foreign)
        return tuple((place, ()) for place in own)

    transitions = tuple(
        CpnTransition(f"{name}.{k}", inputs=tokens(name), outputs=tokens(d),
                      emit=None if label == EPS else Emit(label[1], label[3], ()))
        for name, succ in graph.items() for k, (label, d) in enumerate(succ)
    )
    classes = dict(HAND_CLASSES, **{f"at.{n}": "intermediate" for n in names})
    net = NuCpn(name="hand", types={}, places={p: CpnPlace(p, ()) for p in classes},
                transitions=transitions, initial_marking=Marking.from_tokens(tokens(names[0])))
    return SimpleNamespace(net=net, place_classes=classes, relation_places={}, lock_place="lock")


def certify_hand(target, **caps):
    return certify_translation(load_corpus("empty"), policy=RECYCLING, translation=target, **caps)


def test_two_observables_between_stable_states_are_no_weak_move(monkeypatch):
    # y is foreign, but the only route to it passes two observables with no
    # stable state between them: no weak move reaches y, so refusing there
    # would be unsound.  The kernel explores y without an edge to it, and
    # the local test finds the nets bisimilar, as p has no weak move and
    # neither has its source partner.
    target = hand_target(
        {"p": [(OBS2, "z")], "z": [(OBS, "y")]},
        foreign={"y"},
        interior={"z"},
    )
    forbid_full_check(monkeypatch)
    res = certify_hand(target)
    assert res.verdict == BISIMILAR
    assert res.stats["translated-states"] == 2
    assert res.stats["translated-edges"] == 0


def test_a_foreign_state_is_refused_along_a_legal_path(caplog):
    # y is first met over two observables (via z), later by a legal chain
    # of three firings (via w1, w2), which is one weak move of p.  y leads
    # on to an interior dead end x, which the refusal comes before.
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    target = hand_target(
        {
            "p": [(OBS2, "z"), (EPS, "w1")],
            "z": [(OBS, "y")],
            "w1": [(EPS, "w2")],
            "y": [(EPS, "x")],
            "w2": [(OBS, "y")],
        },
        foreign={"y"},
        interior={"z", "x", "w1", "w2"},
    )
    res = certify_hand(target)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness == {"kind": "foreign-state", "side": "right", "state": FOREIGN}
    # one via line per weak move
    assert res.trace == (
        "foreign stable state on the right side",
        f"state: {FOREIGN}",
        "  via T[]:commit",
    )
    # p's search visits p, z, w1 and w2 before its weak move reaches y
    assert res.stats == {
        "source-states": 1,
        "source-edges": 0,
        "translated-states": 2,
        "translated-edges": 1,
        "largest-local-search": 4,
    }
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0].startswith("source exploration: ")
    assert messages[1] == (
        f"refused at translated state 1, 4 markings searched: no source state has {FOREIGN}"
    )
    assert messages[2].startswith("target exploration: ")
    assert messages[2].endswith(" s, 2 stable states, 1 weak moves, largest local search 4, "
                                "symmetry shortcut off: no generator")
    assert len(messages) == 3


def test_shortest_and_legal_paths_differ():
    lts, _view = hand_lts(
        ["p", "z", "w", "y"],
        [("p", OBS2, "z"), ("p", EPS, "w"), ("z", OBS, "y"), ("w", OBS, "y")],
        {"p": ("F0", True), "z": ("F0", False), "w": ("F0", False), "y": ("F1", True)},
    )
    stable = [True, False, False, True]
    assert bisim._path_to(lts, 3, stable) == ["eps", "T[]:commit"]


def test_a_foreign_state_is_refused_even_past_the_cap():
    # With max_states=3, p's search is cut at r3: the run is truncated.
    # q was reached before the cut, and its weak move to the foreign y
    # decides the verdict all the same.
    graph = {
        "p": [(EPS, "q"), (EPS, "r1")],
        "r1": [(EPS, "r2")],
        "r2": [(EPS, "r3")],
        "r3": [(EPS, "p")],
        "q": [(OBS, "y")],
    }
    res = certify_hand(hand_target(graph, foreign={"y"}, interior={"r1", "r2", "r3"}),
                       max_states=3)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "foreign-state"
    assert res.trace[2:] == ("  via eps", "  via T[]:commit")
    assert res.stats["translated-states"] == 3
    # without the foreign state the cut gives no verdict
    with pytest.raises(TruncatedError, match="right LTS is truncated"):
        certify_hand(hand_target(graph, interior={"r1", "r2", "r3"}), max_states=3)


def test_a_dead_end_behind_two_observables_is_still_found():
    # s is stable but reached only across two observables, so no weak move
    # reaches it; the kernel explores it all the same, and its search
    # meets the dead end d.  No chain of weak moves leads there, so the
    # trace has no via lines.
    target = hand_target(
        {"p": [(OBS, "x")], "x": [(OBS2, "s")], "s": [(EPS, "d")]},
        interior={"x", "d"},
    )
    res = certify_hand(target)
    assert res.witness == {"kind": "silent-dead-end", "side": "right", "state": "facts{}|ctl{}"}
    assert res.trace == ("silent dead-end on the right side", "state: facts{}|ctl{}")
    assert res.stats["translated-states"] == 2


def test_a_dead_end_in_a_search_is_traced_from_the_initial_state():
    # the via lines are the weak move into q, then the firings of q's
    # search up to the dead end.  The move into q is silent, as q has
    # p's contents: the empty net answers no observable move of p.
    target = hand_target(
        {"p": [(EPS, "q")], "q": [(EPS, "a"), (OBS2, "p")], "a": [(EPS, "d")]},
        interior={"a", "d"},
    )
    res = certify_hand(target)
    assert res.witness["kind"] == "silent-dead-end"
    assert res.trace[2:] == ("  via eps", "  via eps", "  via eps")


# ``grow`` is a silent firing that adds a token to q forever, so the
# search from the lock never ends by itself.  LEAVE marks p: a foreign
# stable state one weak move away.
RUNAWAY = {"enter": (["lock"], ["g"]), "grow": (["g"], ["g", "q"])}
LEAVE = {"LEAVE": (["lock"], ["lock", "p"])}


def certify_units(moves, **caps):
    classes = {"lock": "lock", "g": "intermediate", "q": "intermediate", "p": "original-control"}
    return certify_hand(SimpleNamespace(net=unit_net(moves), place_classes=classes,
                                        relation_places={}, lock_place="lock"), **caps)


def test_a_runaway_search_is_cut_unless_a_refusal_comes_first():
    with pytest.raises(TruncatedError, match="right LTS is truncated"):
        certify_units(RUNAWAY, max_states=50)
    # the foreign state is found before the search runs away
    res = certify_units(dict(RUNAWAY, **LEAVE), max_states=50)
    assert res.witness == {"kind": "foreign-state", "side": "right", "state": FOREIGN}


def test_a_foreign_target_ends_a_runaway_search_without_a_cap():
    # No cap on the markings: the foreign target is refused as the search
    # yields it, and the search is dropped there.  ``max_depth`` only
    # keeps the test finite should the search run on.
    res = certify_units(dict(RUNAWAY, **LEAVE), max_depth=500)
    assert res.witness == {"kind": "foreign-state", "side": "right", "state": FOREIGN}
    assert res.stats["largest-local-search"] <= 2  # the lock, and g at most


def test_past_a_cut_a_foreign_target_is_refused_before_an_untested_state():
    # p's search meets the dead end d, so the uncapped run refuses p.  At
    # max_states=3 p's search is cut before it ends, and p is left
    # untested; q's weak move to the foreign y is refused all the same.
    # A cap can then change the witness, never the verdict.
    graph = {
        "p": [(EPS, "d"), (EPS, "q"), (EPS, "r1")],
        "r1": [(EPS, "r2")],
        "r2": [(EPS, "p")],
        "q": [(OBS, "y")],
    }
    target = hand_target(graph, foreign={"y"}, interior={"d", "r1", "r2"})
    res = certify_hand(target)
    assert res.witness == {"kind": "silent-dead-end", "side": "right", "state": "facts{}|ctl{}"}
    assert res.stats["translated-states"] == 2  # p and q; y is not met yet
    res = certify_hand(target, max_states=3)
    assert res.witness == {"kind": "foreign-state", "side": "right", "state": FOREIGN}
    assert res.trace[2:] == ("  via eps", "  via T[]:commit")


# ---------------------------------------------------------------------------
# each stable state is tested as soon as its search ends


# Against the empty net, whose one state has no moves: p's silent moves
# lead to the stable states a and b, which have p's contents.  a's search
# meets the dead end d; b has a foreign target or an observable move,
# which the empty net cannot answer.
EARLY_DEAD_END = {"p": [(EPS, "a"), (EPS, "b")], "a": [(EPS, "d")]}


@pytest.mark.parametrize("later", [[(OBS, "y")], [(OBS, "c")]], ids=["foreign", "unmatched"])
def test_a_dead_end_at_an_earlier_state_is_refused_first(later):
    res = certify_hand(hand_target(dict(EARLY_DEAD_END, b=later), foreign={"y"},
                                   interior={"d"}))
    assert res.witness == {"kind": "silent-dead-end", "side": "right", "state": "facts{}|ctl{}"}
    assert res.trace[2:] == ("  via eps", "  via eps")  # to a, then to d
    # the exploration stops at a, state 1, before b is expanded
    assert res.stats["translated-states"] == 3
    assert res.stats["translated-edges"] == 2


def test_an_unmatched_move_at_an_earlier_state_is_refused_first():
    # the same kernel, with the failures the other way round: b's
    # observable move is refused before c's search meets its dead end
    graph = {"p": [(EPS, "b"), (EPS, "c")], "b": [(OBS, "p")], "c": [(EPS, "d")]}
    res = certify_hand(hand_target(graph, interior={"d"}))
    assert res.witness["kind"] == "unmatched-move"
    assert res.trace == (
        "pair: left=facts{}|ctl{} right=facts{}|ctl{}",
        "  via eps",
        "  right side moves [T[]:commit] to facts{}|ctl{}, with no answer",
    )


# Four failures at one state, p: an observable move to c, which the
# empty net cannot answer; a silent cycle through x1 and x2; a dead end
# at w; and two foreign targets, y1 and y2, in that edge order.
ONE_STATE = {
    "p": [(OBS, "c"), (EPS, "x1"), (EPS, "w"), (OBS2, "y1"), (OBS, "y2")],
    "x1": [(EPS, "x2")],
    "x2": [(EPS, "x1")],
}
UNMATCHED = "right side moves [T[]:commit] to facts{}|ctl{}, with no answer"
ONE_STATE_ORDER = [  # the states dropped, the refusal, its last trace lines and its log line
    (set(), "foreign-state", ["  via T[]:rollback"],  # c is state 1, y1 state 2
     "refused at translated state 2, 3 markings searched: no source state has facts{}|ctl{p()}"),
    ({"y1", "y2"}, "silent-dead-end", ["  via eps"],
     "refused at translated state 0, 4 markings searched: silent dead-end at facts{}|ctl{}"),
    ({"y1", "y2", "w"}, "silent-divergence", ["  via eps"],
     "refused at translated state 0, 3 markings searched: silent divergence at facts{}|ctl{}"),
    ({"y1", "y2", "w", "x1", "x2"}, "unmatched-move", [f"  {UNMATCHED}"],
     f"refused at translated state 0, 1 markings searched: {UNMATCHED} (source partner 0)"),
]


@pytest.mark.parametrize("dropped, kind, lines, logged", ONE_STATE_ORDER,
                         ids=[case[1] for case in ONE_STATE_ORDER])
def test_the_checks_of_one_state_come_in_their_documented_order(dropped, kind, lines, logged,
                                                               caplog):
    # Foreign targets in edge order, then the dead end, then the silent
    # cycle, then an unmatched move; each case drops the failures that
    # come before its own.  Each refusal logs one line, with the markings
    # that the searches have visited.
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    graph = {name: [(label, d) for label, d in succ if d not in dropped]
             for name, succ in ONE_STATE.items() if name not in dropped}
    res = certify_hand(hand_target(graph, foreign={"y1", "y2"}, interior={"w", "x1", "x2"}))
    assert res.witness["kind"] == kind
    assert list(res.trace[-len(lines):]) == lines  # the trace ends with them
    messages = [r.getMessage() for r in caplog.records]
    assert [m for m in messages if m.startswith("refused")] == [logged]


@pytest.mark.parametrize("policy", [BOUNDED1, RECYCLING], ids=["bounded1", "recycling"])
def test_a_correct_translation_never_triggers_the_monitor(shop22, policy, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    forbid_full_check(monkeypatch)
    res = certify_translation(shop22, policy=policy)
    assert res.bisimilar
    # one line per phase, and no refusal
    phases = [r.getMessage().split(":")[0] for r in caplog.records]
    assert phases == ["source exploration", "target exploration", "check"]


@pytest.mark.parametrize("policy", [BOUNDED1, RECYCLING], ids=["bounded1", "recycling"])
@pytest.mark.parametrize("name", [*CORPUS_NAMES, "shop-2x2"])
def test_the_kernel_has_one_state_per_source_state(name, policy, monkeypatch):
    # and the local test pairs them
    model = build_shopping_cart(2, 2) if name == "shop-2x2" else load_corpus(name)
    forbid_full_check(monkeypatch)
    res = certify_translation(model, policy=policy)
    assert res.bisimilar
    assert res.stats["translated-states"] == res.stats["source-states"] == len(res.relation)


def oracle_certify(model, policy, *, max_states, translation):
    """Certification without early refusal: both sides explored in full
    and checked, with ``certify_translation``'s stats."""
    raw1 = build_lts(model, policy, max_states=max_states)
    raw2 = cpn_build_lts(translation.net, policy, max_states=max_states)
    res = check_weak_bisim(*checker_input(raw1, raw2, translation))
    res.stats = {
        "source-states": raw1.state_count,
        "source-edges": raw1.edge_count,
        "translated-states": raw2.state_count,
        "translated-edges": raw2.edge_count,
    }
    return res


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_early_refusal_agrees_with_the_oracle_on_shop22(shop22, mutation, monkeypatch):
    translation = apply_mutation(translate(shop22), mutation)
    with monkeypatch.context() as patch:
        forbid_full_check(patch)
        got = certify_translation(shop22, policy=BOUNDED1, max_states=3000,
                                  translation=translation)
    try:
        oracle = oracle_certify(shop22, policy=BOUNDED1, max_states=3000, translation=translation)
        want = oracle.verdict
    except TruncatedError:
        want = "truncated"
    if got.bisimilar:  # the local test's relation is the full check's
        assert got.relation == oracle.relation
    if mutation in ("drop-revert", "swap-add-priorities"):
        # the oracle runs into the cap; early refusal decides
        assert want == "truncated"
        assert got.verdict == NOT_BISIMILAR
        assert got.witness["kind"] == "foreign-state"
    else:
        assert got.verdict == want
    if mutation == "swap-add-priorities":
        # stopped at stable state 23, the first foreign one that weak moves
        # reach in breadth-first order (state 1,294 of the full graph)
        assert got.stats["translated-states"] == 24


def test_a_silent_cycle_inside_a_gadget_is_a_divergence():
    # the lock's search meets the cycle a -> b -> c -> a; the kernel keeps
    # the lock's marking only
    net = unit_net({
        "enter": (["lock"], ["a"]),
        "ab": (["a"], ["b"]),
        "bc": (["b"], ["c"]),
        "ca": (["c"], ["a"]),
    })
    classes = dict(lock="lock", a="intermediate", b="intermediate", c="intermediate")
    target = SimpleNamespace(net=net, place_classes=classes, relation_places={},
                             lock_place="lock")
    res = certify_translation(load_corpus("empty"), policy=RECYCLING, translation=target)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness == {"kind": "silent-divergence", "side": "right", "state": "facts{}|ctl{}"}
    assert res.trace[2:] == ("  via eps",)  # enter, to a, the first marking on the cycle
    assert res.stats["translated-states"] == 1


# ---------------------------------------------------------------------------
# golden outputs: every corpus net and shop 1x2, unmutated and mutated


DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "certify_golden.json"  # the oracle's records
# certify_translation's records where they differ from the oracle's: early
# refusals, and the counts and traces of the kernel of stable states
REFUSAL_GOLDEN = DATA / "certify_refusal_golden.json"
GOLDEN_CAP = 3000  # states per side; a runaway mutant truncates
GOLDEN_NETS = {name: partial(load_corpus, name) for name in CORPUS_NAMES}
GOLDEN_NETS["shop-1x2"] = partial(build_shopping_cart, 1, 2)
GOLDEN_CASES = [
    f"{net}/{mutation}" for net in GOLDEN_NETS for mutation in ["none", *sorted(MUTATIONS)]
]


def certify_record(case: str, certify=oracle_certify) -> dict:
    """Everything ``certify`` (the oracle or ``certify_translation``) says
    about one (net, mutation) case under ``bounded:1``, as JSON data.  The
    relation is pinned by its size and the sha256 of its rendered pairs,
    one line per pair."""
    try:
        model, translation = golden_translation(case)
    except ContractError as exc:
        return {"outcome": "not-applicable", "message": str(exc)}
    try:
        res = certify(model, policy=BOUNDED1, max_states=GOLDEN_CAP, translation=translation)
    except TruncatedError as exc:
        return {"outcome": "truncated", "message": str(exc)}
    record = {
        "outcome": res.verdict,
        "witness": res.witness,
        "trace": list(res.trace),
        "stats": res.stats,
    }
    if res.relation is not None:
        text = "".join(f"{render_snapshot(p)} ~ {q.render()}\n" for p, q in res.relation)
        record["relation_pairs"] = len(res.relation)
        record["relation_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return record


def golden_translation(case: str):
    """The model of one case and its translation, mutated as the case
    says; raises ContractError if the mutation does not apply."""
    net_name, mutation = case.split("/")
    model = GOLDEN_NETS[net_name]()
    translation = translate(model)
    if mutation != "none":
        translation = apply_mutation(translation, mutation)
    return model, translation


def canonical(record) -> str:
    return json.dumps(record, indent=1, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def refusal_golden():
    return json.loads(REFUSAL_GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_certify_output_matches_the_golden_record(golden, case):
    # certify without early refusal: the oracle
    assert canonical(certify_record(case)) == canonical(golden[case])


def witness_kind(record):
    return (record.get("witness") or {}).get("kind")


def test_early_refusals_are_the_decided_foreign_states_and_every_runaway(
    golden, refusal_golden
):
    was = {
        case: golden[case]["outcome"]
        for case, record in refusal_golden.items()
        if witness_kind(record) == "foreign-state"
    }
    # 11 decided cases: selfref/consume-on-read fails at an unmatched move
    # of a state before the first foreign one
    assert sum(o == NOT_BISIMILAR for o in was.values()) == 11
    truncated = sorted(case for case in GOLDEN_CASES if golden[case]["outcome"] == "truncated")
    assert sorted(case for case, o in was.items() if o == "truncated") == truncated
    assert len(truncated) == 5
    assert all(case.endswith("/swap-add-priorities") for case in truncated)
    for case in was:
        assert refusal_golden[case]["outcome"] == NOT_BISIMILAR


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_certify_matches_the_oracle_unless_it_refuses_early(golden, refusal_golden, case,
                                                           monkeypatch):
    # the pinned record is the oracle's unless certify_translation's
    # differs; certify_translation decides without the generic check
    forbid_full_check(monkeypatch)
    got = canonical(certify_record(case, certify_translation))
    assert got == canonical(refusal_golden.get(case, golden[case]))


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_certify_gives_the_oracles_verdict(golden, refusal_golden, case):
    # certify_translation's record (pinned by the test above) against the
    # oracle's verdict, witness kind and relation; an early refusal
    # names a foreign state where the oracle finds an unmatched move (11
    # decided cases) or runs into the cap
    got = refusal_golden.get(case, golden[case])
    want = golden[case]
    if witness_kind(got) == "foreign-state":
        assert got["outcome"] == NOT_BISIMILAR
        assert witness_kind(want) in ("unmatched-move", None)
        assert want["outcome"] in (NOT_BISIMILAR, "truncated")
        return
    assert got["outcome"] == want["outcome"]
    assert witness_kind(got) == witness_kind(want)
    for key in ("relation_pairs", "relation_sha256"):
        assert got.get(key) == want.get(key)


CAPS = [3, 10, 30, 100, 300, 1000]


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_a_cap_never_changes_a_verdict(golden, refusal_golden, case):
    # Under each cap, certify_translation either gives no verdict or the
    # pinned one, with the same witness and trace.
    want = refusal_golden.get(case, golden[case])
    if want["outcome"] == "not-applicable":
        return
    model, translation = golden_translation(case)
    for cap in CAPS:
        try:
            res = certify_translation(model, policy=BOUNDED1, max_states=cap,
                                      translation=translation)
        except TruncatedError:
            continue
        got = [res.verdict, res.witness, list(res.trace)]
        assert got == [want["outcome"], want["witness"], want["trace"]], cap


@pytest.mark.parametrize("mutation", ["forget-lock-on-cancel", "consume-on-read",
                                      "reorder-del-add"])
def test_a_refusal_that_comes_before_the_cap_is_given(refusal_golden, mutation):
    # At 1,000 markings the local searches of shop 1x2 are cut before
    # the kernel is complete: the unmutated translation gets no verdict.
    # These mutants fail at kernel states 2, 5 and 16 of its 75, before
    # the cut, so each is refused with its uncapped witness.
    case = f"shop-1x2/{mutation}"
    model, translation = golden_translation(case)
    res = certify_translation(model, policy=BOUNDED1, max_states=1000, translation=translation)
    want = refusal_golden[case]
    assert [res.verdict, res.witness, list(res.trace)] == [
        NOT_BISIMILAR, want["witness"], want["trace"]]
    model, translation = golden_translation("shop-1x2/none")
    with pytest.raises(TruncatedError, match="right LTS is truncated"):
        certify_translation(model, policy=BOUNDED1, max_states=1000, translation=translation)


def target_side(lts: Lts, translation):
    """The checker's right side over a graph of the translated net."""
    _visible, render = bisim._visible_and_render(translation)
    return bisim._Side(lts, "right", target_view(lts, translation), render)


def checker_view(lts: Lts, translation) -> tuple:
    """What the checker reads of a translated graph, by marking: each
    stable marking's ``eps_targets`` and ``big_steps`` (label -> set of
    stable markings)."""
    side = target_side(lts, translation)
    marks = lambda targets: frozenset(lts.states[t] for t in targets)
    return {
        lts.states[s]: (
            marks(side.eps_targets(s)),
            {label: marks(ts) for label, ts in side.big_steps(s).items()},
        )
        for s, stable in enumerate(side.stable) if stable
    }


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_the_compressed_graph_keeps_what_the_checker_reads(golden, case):
    # The kernel of stable states against the full graph: the same stable
    # markings with the same weak moves, and a silent dead end or a
    # silent cycle reported exactly when the full graph has one.
    if golden[case]["outcome"] == "not-applicable":
        return
    _model, translation = golden_translation(case)
    keep = partial(bisim._is_stable, translation.lock_place)
    full = cpn_build_lts(translation.net, BOUNDED1, max_states=GOLDEN_CAP)
    if full.truncated:  # a runaway: partial graphs cover different ground
        assert cpn_build_lts(translation.net, BOUNDED1, max_states=GOLDEN_CAP, keep=keep).truncated
        return
    kernel = cpn_build_lts(translation.net, BOUNDED1, max_states=GOLDEN_CAP, keep=keep)
    assert not kernel.truncated
    assert all(map(keep, kernel.states))
    view = checker_view(kernel, translation)
    assert view == checker_view(full, translation)
    # Each search reports its own, by its root.
    side = target_side(full, translation)
    assert bool(kernel.dead_ends) == (side.silent_dead_end() is not None)
    assert bool(kernel.divergences) == (side.silent_divergence() is not None)
    number = {marking: i for i, marking in enumerate(full.states)}
    for met in (kernel.dead_ends, kernel.divergences):
        for root, (_labels, marking) in met.items():
            assert root in kernel.states and not keep(marking)
            assert marking in number
    for _labels, marking in kernel.dead_ends.values():
        assert not (side.eps_succ[number[marking]] or side.obs_succ[number[marking]])


# ---------------------------------------------------------------------------
# contents are compared as markings and rendered only to be printed


def contents_case(case: str):
    """The model and translation of a golden case, or of shop 2x2."""
    if case == "shop-2x2/none":
        model = build_shopping_cart(2, 2)
        return model, translate(model)
    return golden_translation(case)


@pytest.mark.parametrize("case", [*GOLDEN_CASES, "shop-2x2/none"])
def test_contents_are_equal_exactly_when_their_texts_are(case):
    # over the source graph, the full translated graph and the kernel
    # together: equal contents render alike, and distinct ones differently
    try:
        model, translation = contents_case(case)
    except ContractError:
        return
    _visible, render = bisim._visible_and_render(translation)
    source = build_lts(model, BOUNDED1, max_states=GOLDEN_CAP)
    keep = partial(bisim._is_stable, translation.lock_place)
    views = [source_view(source, translation)] + [
        target_view(cpn_build_lts(translation.net, BOUNDED1, max_states=GOLDEN_CAP, keep=k),
                    translation)
        for k in (None, keep)
    ]
    for snap, (contents, _stable) in zip(source.states, views[0]):
        assert render(contents) == flat_of_snapshot(snap)
    text = {}
    for view in views:
        for contents, _stable in view:
            rendered = render(contents)
            assert text.setdefault(contents, rendered) == rendered
    assert len(set(text.values())) == len(text)


def watch_renders(monkeypatch) -> list:
    """The texts rendered from now on, in order."""
    rendered = []
    real_render = bisim._flat_of_marking

    def watched(contents, classes, relation_names):
        rendered.append(real_render(contents, classes, relation_names))
        return rendered[-1]

    monkeypatch.setattr(bisim, "_flat_of_marking", watched)
    return rendered


def test_a_bisimilar_run_renders_nothing(shop22, monkeypatch):
    rendered = watch_renders(monkeypatch)
    assert certify_translation(shop22, policy=BOUNDED1).bisimilar
    assert rendered == []


@pytest.mark.parametrize("case", [
    "shop-1x2/reorder-del-add", "shop-1x2/swap-add-priorities", "shop-1x2/forget-lock-on-cancel",
])
def test_a_refusal_renders_only_the_states_it_prints(case, monkeypatch):
    # an unmatched move, a foreign state and a silent dead end
    model, translation = golden_translation(case)
    rendered = watch_renders(monkeypatch)
    res = certify_translation(model, policy=BOUNDED1, max_states=GOLDEN_CAP,
                              translation=translation)
    assert res.verdict == NOT_BISIMILAR
    printed = [*res.trace, *res.witness.values()]
    assert rendered
    assert all(any(text in line for line in printed) for text in rendered)
    assert len(rendered) <= sum(line.count("facts{") for line in printed)


# ---------------------------------------------------------------------------
# certify by correspondence: the premise and the local test


def update_built_image(snap, relation_places: dict) -> Marking:
    """A snapshot's image built token by token: its control marking with
    one token per fact added on the fact's relation place."""
    return snap.marking.update((), [
        (relation_places[rel], row) for rel, rows in snap.instance.facts.items() for row in rows
    ])


PREMISE_GRAPHS = [(net, "bounded:1") for net in GOLDEN_NETS] + [
    ("shop-3x3", "recycling"), ("shop-3x3", "bounded:2"),
]


@pytest.mark.parametrize("net, policy", PREMISE_GRAPHS)
def test_no_two_source_states_share_an_image(net, policy):
    # the premise of the local test: a translated state has at most one
    # source partner
    model = build_shopping_cart(3, 3) if net == "shop-3x3" else GOLDEN_NETS[net]()
    places = translate(model).relation_places
    source = build_lts(model, FreshPolicy.parse(policy), max_states=GOLDEN_CAP)
    assert not source.truncated
    images = [snapshot_image(snap, places) for snap in source.states]
    assert len(set(images)) == len(images)
    built_once = bisim._source_image(places)  # one facts image per distinct instance
    for snap, image in zip(source.states, images):
        assert image == update_built_image(snap, places)
        assert built_once(snap) == image


@pytest.mark.parametrize("net, policy", PREMISE_GRAPHS)
def test_every_kernel_state_is_its_partners_image_beside_the_lock(net, policy):
    # the premise of the local test, state by state: a stable marking is
    # its contents plus the lock token and nothing else, and its contents
    # is the image of exactly one source state, its partner σ(k), one
    # kernel state per source state
    model = build_shopping_cart(3, 3) if net == "shop-3x3" else GOLDEN_NETS[net]()
    translation = translate(model)
    places, fresh = translation.relation_places, FreshPolicy.parse(policy)
    source = build_lts(model, fresh, max_states=GOLDEN_CAP)
    # the local searches of shop 3x3 under bounded:2 visit 22,779 markings
    kernel = cpn_build_lts(translation.net, fresh, max_states=50_000,
                           keep=partial(bisim._is_stable, translation.lock_place))
    assert not source.truncated and not kernel.truncated
    visible, _render = bisim._visible_and_render(translation)
    lock = translation.net.initial_marking.restrict({translation.lock_place})
    assert lock.total(translation.lock_place) == 1
    partner = {snapshot_image(snap, places): number for number, snap in enumerate(source.states)}
    sigma = [partner[k.restrict(visible)] for k in kernel.states]
    for k, s in zip(kernel.states, sigma):
        assert k == snapshot_image(source.states[s], places).join(lock)
    assert sorted(sigma) == list(range(source.state_count))


control_tokens = st.lists(
    st.tuples(st.sampled_from(["p", "q"]), st.sampled_from(gen._INTS).map(lambda v: (v,))),
    max_size=4,
)


@given(st.integers(0, 3), control_tokens, st.integers(0, 3), control_tokens)
def test_snapshot_images_are_injective_on_generated_instances(seed1, ctl1, seed2, ctl2):
    places = {name: f"rel.{name}" for name in gen.GEN_SCHEMA.relations}
    snaps = [Snapshot(gen.random_instance(Random(seed)), Marking.from_tokens(ctl))
             for seed, ctl in ((seed1, ctl1), (seed2, ctl2))]
    images = [snapshot_image(snap, places) for snap in snaps]
    for snap, image in zip(snaps, images):
        assert image == update_built_image(snap, places)
    assert (images[0] == images[1]) == (snaps[0] == snaps[1])


def local_and_oracle(model, translation, monkeypatch) -> tuple:
    """``certify_translation``'s result on a target with no foreign
    state, decided without the generic check, and the oracle's."""
    with monkeypatch.context() as patch:
        forbid_full_check(patch)
        got = certify_translation(model, policy=BOUNDED1, translation=translation)
    return got, oracle_certify(model, BOUNDED1, max_states=None, translation=translation)


def test_a_wrong_label_is_refused_by_the_local_test(touch, monkeypatch, caplog):
    # Refresh's commit is reported as a rollback.  Every stable state still
    # has a source partner, so no state is foreign; the local test fails
    # at translated state 1, whose one weak move has the wrong label.  The
    # oracle refuses it too, at the initial pair.
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    out = translate(touch)
    relabelled = tuple(
        replace(t, emit=replace(t.emit, outcome="rollback"))
        if t.emit is not None and t.emit.transition == "Refresh" and t.emit.outcome == "commit"
        else t
        for t in out.net.transitions
    )
    assert relabelled != out.net.transitions
    target = replace(out, net=replace(out.net, transitions=relabelled))
    got, want = local_and_oracle(touch, target, monkeypatch)
    assert got.verdict == want.verdict == NOT_BISIMILAR
    assert got.witness["kind"] == want.witness["kind"] == "unmatched-move"
    at_d = 'facts{T("c")}|ctl{d(1)}'
    assert got.witness == {"kind": "unmatched-move", "side": "right",
                           "label": "Refresh[x=1]:rollback", "left": at_d, "right": at_d}
    unmatched = f"right side moves [Refresh[x=1]:rollback] to {at_d}, with no answer"
    assert got.trace == (
        f"pair: left={at_d} right={at_d}", "  via Touch[x=1]:commit", f"  {unmatched}",
    )
    # the refusal's line comes as state 1's search ends, and replaces the check's
    messages = [r.getMessage() for r in caplog.records]
    assert messages[1] == (
        f"refused at translated state 1, 11 markings searched: {unmatched} (source partner 1)"
    )
    assert [m.split(":")[0] for m in messages] == [
        "source exploration", "refused at translated state 1, 11 markings searched",
        "target exploration"]


def test_a_target_that_starts_at_another_source_state_is_refused(touch, monkeypatch):
    # The translated net starts with its token on d: its initial state has
    # the contents of source state 1, and it moves as source state 1 does,
    # so only the test of σ(0) = 0 tells it apart.
    out = translate(touch)
    (token, _n), = out.net.initial_marking.tokens("p")
    initial = out.net.initial_marking.update([("p", token)], [("d", token)])
    target = replace(out, net=replace(out.net, initial_marking=initial))
    got, want = local_and_oracle(touch, target, monkeypatch)
    got, want = ([r.verdict, r.witness, list(r.trace)] for r in (got, want))
    assert canonical(got) == canonical(want)
    assert got[1]["kind"] == "content-mismatch"


# One step, GO, from p to q.
HOP = parse_model("""dbnet "hop";
place p();
place q();
transition GO { in p(); out q(); }
init { token p(); }
policy { fresh recycling; }
""").model


def hop_target(moves: dict, marked=("lock", "p")):
    """A translation of HOP whose translated net is the unit net of
    ``moves`` (see ``unit_net``): p and q are its control places, g and
    x gadget-interior ones."""
    classes = {"lock": "lock", "p": "original-control", "q": "original-control",
               "g": "intermediate", "x": "intermediate"}
    return SimpleNamespace(net=unit_net(moves, marked=marked), place_classes=classes,
                           relation_places={}, lock_place="lock")


# The stable markings A = {lock, p, g} and B = {lock, p, x} both have
# the contents of HOP's state at p, and the silent ``hop`` moves A to B.
HOP_THROUGH_B = {"hop": (["g"], ["x"]), "GO": (["lock", "p", "x"], ["lock", "q"])}


def test_a_source_edge_is_answered_through_a_silent_move(monkeypatch):
    # only B fires GO: A's answer to the source's GO is a weak move through B
    got, want = local_and_oracle(HOP, hop_target(HOP_THROUGH_B, ("lock", "p", "g")), monkeypatch)
    assert got.verdict == want.verdict == BISIMILAR
    assert got.relation == want.relation
    # A and B share source state 0; C = {lock, q} is source state 1
    assert (got.stats["translated-states"], got.stats["translated-edges"]) == (3, 2)
    assert got.relation[0][0] == got.relation[1][0] == HOP.initial_snapshot()


def test_a_source_edge_with_no_answer_behind_a_silent_move_is_refused(monkeypatch):
    # without GO neither A nor B answers the source's GO
    target = hop_target({"hop": HOP_THROUGH_B["hop"]}, ("lock", "p", "g"))
    got, want = local_and_oracle(HOP, target, monkeypatch)
    assert got.verdict == want.verdict == NOT_BISIMILAR
    assert got.witness == {"kind": "unmatched-move", "side": "left", "label": "GO[]:commit",
                           "left": "facts{}|ctl{p()}", "right": "facts{}|ctl{p()}"}
    assert got.trace == (
        "pair: left=facts{}|ctl{p()} right=facts{}|ctl{p()}",
        "  left side moves [GO[]:commit] to facts{}|ctl{q()}, with no answer",
    )


def test_a_silent_move_to_another_partner_is_refused(monkeypatch):
    # ``slip`` moves the token from p to q as GO does, but silently: the
    # source has no silent answer, though A answers each of its edges
    target = hop_target({"GO": (["lock", "p"], ["lock", "q"]),
                         "slip": (["lock", "p"], ["lock", "q"])})
    got, want = local_and_oracle(HOP, target, monkeypatch)
    assert got.verdict == want.verdict == NOT_BISIMILAR
    assert got.witness == {"kind": "unmatched-move", "side": "right", "label": "eps",
                           "left": "facts{}|ctl{p()}", "right": "facts{}|ctl{p()}"}
    assert got.trace[1:] == ("  right side moves [eps] to facts{}|ctl{q()}, with no answer",)


# ---------------------------------------------------------------------------
# symmetry: one local search per orbit of interchangeable values


def certify_outcome(model, policy, **caps):
    """Everything ``certify_translation`` says, truncation included."""
    try:
        res = certify_translation(model, policy=policy, **caps)
    except TruncatedError as exc:
        return ("truncated", str(exc))
    return (res.verdict, res.witness, res.trace, res.relation, res.stats)


def exact_outcome(model, policy, monkeypatch, **caps):
    """The same, with the shortcut off: no block swap is derived."""
    with monkeypatch.context() as patch:
        patch.setattr(bisim, "block_swaps", lambda *_args: [])
        return certify_outcome(model, policy, **caps)


def user_blind_translation():
    """Shop 2x1 and a translation whose CheckOut gadget refuses user 2,
    by a constant that only the translated net mentions."""
    model = build_shopping_cart(2, 1)
    translation = translate(model)
    blind = Compare("!=", Variable("uid", "int"), make_value(INT, 2))
    transitions = tuple(replace(t, guard=blind) if t.name == "CheckOut.cond" else t
                        for t in translation.net.transitions)
    return model, replace(translation, net=replace(translation.net, transitions=transitions))


SHOP22_POLICIES = {"recycling": RECYCLING, "bounded:1": BOUNDED1,
                   "bounded:2": FreshPolicy.parse("bounded:2")}


def differential_cases() -> list:
    """``(case, policy, cap)``: every golden case at the golden cap and at
    each cap of the cap test, shop 2x2 under three policies and under
    each mutation, and shop 2x1 with a translation that user 2 cannot
    check out in."""
    cases = [pytest.param(case, BOUNDED1, cap, id=f"{case}@{cap}")
             for case in GOLDEN_CASES for cap in [GOLDEN_CAP, *CAPS]]
    cases += [pytest.param("shop-2x2/none", policy, None, id=f"shop-2x2/none/{name}")
              for name, policy in SHOP22_POLICIES.items()]
    cases += [pytest.param(f"shop-2x2/{mutation}", BOUNDED1, GOLDEN_CAP, id=f"shop-2x2/{mutation}")
              for mutation in sorted(MUTATIONS)]
    cases.append(pytest.param("shop-2x1/user-blind", BOUNDED1, None, id="shop-2x1/user-blind"))
    return cases


def differential_translation(case: str):
    if case == "shop-2x1/user-blind":
        return user_blind_translation()
    if case.startswith("shop-2x2/"):
        model = build_shopping_cart(2, 2)
        mutation = case.split("/")[1]
        translation = translate(model)
        return model, translation if mutation == "none" else apply_mutation(translation, mutation)
    return golden_translation(case)


@pytest.mark.parametrize("case, policy, cap", differential_cases())
def test_the_shortcut_gives_exactly_what_the_exact_path_gives(case, policy, cap, monkeypatch):
    # verdict, witness, trace, relation and stats, or the same truncation
    try:
        model, translation = differential_translation(case)
    except ContractError:  # the mutation does not apply
        return
    caps = {"max_states": cap, "translation": translation}
    assert certify_outcome(model, policy, **caps) == exact_outcome(model, policy, monkeypatch,
                                                                   **caps)


@pytest.mark.parametrize("users, products", [(u, p) for u in (1, 2, 3) for p in (1, 2, 3)])
def test_shop_has_one_block_swap_per_neighbouring_pair(users, products):
    model = build_shopping_cart(users, products)
    swaps = bisim.block_swaps(model, translate(model))
    assert len(swaps) == (users - 1) + (products - 1)
    # each swaps two neighbours: users (id and card) or products (name, id, cost)
    assert sorted(map(len, swaps)) == [4] * (users - 1) + [6] * (products - 1)
    for swap in swaps:
        assert all(swap[swap[v]] is v and swap[v] is not v for v in swap)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_no_other_corpus_net_has_a_block_swap(name):
    model = load_corpus(name)
    assert bisim.block_swaps(model, translate(model)) == []


DELETABLE_USERS = """dbnet "deletable";
type int = int;
type string = string;
relation User(ID: int, card: string);
query Q_users(uid: int, c: string) := User(uid, c);
action drop(uid: int, c: string) { del User(uid, c); }
place go(int);
place made(int);
view Users := Q_users;
transition Drop {
  in go(g);
  read Users(uid, c);
  act drop(uid, c);
  out go(g);
}
transition Make {
  in go(g);
  out made(~n);
}
init {
  fact User(1, "c1");
  fact User(2, "c2");
  token go(0);
}
policy {
  fresh recycling;
}
"""

ORDERED_USERS = DELETABLE_USERS.replace("  act drop(uid, c);\n",
                                        "  guard uid < 5;\n  act drop(uid, c);\n")

SHOP_WITHOUT_USER_2 = shop_text(2, 1).replace(
    "transition CheckOut {\n  in logged(uid, cid);\n",
    "transition CheckOut {\n  in logged(uid, cid);\n  guard uid != 2;\n")


@pytest.mark.parametrize("text, swaps, why", [
    # dropping user 1 frees the stream value 1, which Make then picks
    (DELETABLE_USERS, 1, "fresh guard tripped on 1"),
    # ordered ids stay put, and the cards alone are blocks of two shapes
    (ORDERED_USERS, 0, "no generator"),
    # the constant 2 stays put, so the users are blocks of two shapes
    (SHOP_WITHOUT_USER_2, 0, "no generator"),
], ids=["freed-user-id", "order-comparison", "guard-constant"])
def test_the_shortcut_is_off_where_values_are_not_interchangeable(text, swaps, why, monkeypatch,
                                                                   caplog):
    model = parse_model(text).model
    assert len(bisim.block_swaps(model, translate(model))) == swaps
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    got = certify_outcome(model, RECYCLING)
    target = [r.getMessage() for r in caplog.records if r.getMessage().startswith("target")]
    assert target[0].endswith(f", symmetry shortcut off: {why}")
    assert got == exact_outcome(model, RECYCLING, monkeypatch)


REFUSING_SHOP12 = ["consume-on-read", "drop-revert", "forget-lock-on-cancel", "reorder-del-add",
                   "swap-add-priorities"]


def searched_run(case: str, monkeypatch, caplog) -> tuple:
    """Certify one golden case: the roots of its real local searches, in
    order, the kernel's final count of markings searched and the refusal
    line of the log."""
    model, translation = golden_translation(case)
    roots, kernels = [], []
    real_start, real_build = cpn.LocalSearch.start, bisim.cpn_build_lts

    def start(self, root):
        roots.append(root)
        return real_start(self, root)

    def build(*args, **kwargs):
        kernels.append(real_build(*args, **kwargs))
        return kernels[-1]

    caplog.clear()
    with monkeypatch.context() as patch:
        patch.setattr(cpn.LocalSearch, "start", start)
        patch.setattr(bisim, "cpn_build_lts", build)
        res = certify_translation(model, policy=BOUNDED1, max_states=GOLDEN_CAP,
                                  translation=translation)
    assert res.verdict == NOT_BISIMILAR
    refused = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refused")]
    return roots, kernels[0].searched, refused


@pytest.mark.parametrize("mutation", REFUSING_SHOP12)
def test_the_kernel_takes_over_the_shortcuts_searches(mutation, monkeypatch, caplog):
    # the shortcut fails on each of these mutants; the kernel replays or
    # goes on with every search it began, and searches no root twice
    caplog.set_level(logging.INFO, logger="dbnet.bisim")
    case = f"shop-1x2/{mutation}"
    roots, searched, refused = searched_run(case, monkeypatch, caplog)
    assert len(roots) == len(set(roots))
    with monkeypatch.context() as patch:
        patch.setattr(bisim, "block_swaps", lambda *_args: [])
        exact_roots, exact_searched, exact_refused = searched_run(case, monkeypatch, caplog)
    assert searched == exact_searched
    assert refused == exact_refused and len(refused) == 1
    assert set(roots) <= set(exact_roots)


if __name__ == "__main__":
    # Rewrite a golden file from the oracle, or certify_translation's
    # records where they differ from it:
    #   PYTHONPATH=src:tests python tests/test_bisim.py --write
    #   PYTHONPATH=src:tests python tests/test_bisim.py --write-refusal
    if sys.argv[1:] == ["--write"]:
        records = {case: certify_record(case) for case in GOLDEN_CASES}
        DATA.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    elif sys.argv[1:] == ["--write-refusal"]:
        oracle = json.loads(GOLDEN.read_text(encoding="utf-8"))
        records = {case: certify_record(case, certify_translation) for case in GOLDEN_CASES}
        differing = {
            case: record for case, record in records.items() if record != oracle[case]
        }
        REFUSAL_GOLDEN.write_text(
            json.dumps(differing, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
