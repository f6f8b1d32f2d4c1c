"""Flattening and the weak equivalence check."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dbnet import bisim
from dbnet.bisim import (
    BISIMILAR,
    NOT_BISIMILAR,
    FlatState,
    TruncatedError,
    certify_translation,
    check_weak_bisim,
    flatten,
    verify_relation,
)
from dbnet.corpus import CORPUS, build_empty, build_guarded, build_shopping_cart
from dbnet.cpn import cpn_build_lts
from dbnet.lts import EPS, Lts
from dbnet.model import build_lts, render_snapshot
from dbnet.mutations import MUTATIONS, apply_mutation
from dbnet.relational import ContractError, instance_lines
from dbnet.translate import translate

from conftest import BOUNDED1, RECYCLING

OBS = ("obs", "T", (), "commit")
OBS2 = ("obs", "T", (), "rollback")


def hand_lts(states, edges, ann):
    """A little LTS with explicit flat/stable annotations, as the checker
    expects after flattening.  States are names, the first one initial;
    edges name their ends, and are numbered here."""
    number = {s: i for i, s in enumerate(states)}
    return Lts(
        states=list(states),
        edges=[(number[src], label, number[dst]) for src, label, dst in edges],
        annotations={s: {"flat": f, "stable": st} for s, (f, st) in ann.items()},
    )


# ---------------------------------------------------------------------------
# flatten


def test_flatten_source_side_is_the_identity_projection(shop, shop_lts):
    flat = flatten(shop_lts)
    for snap in flat.states:
        ann = flat.annotations[snap]
        assert ann["stable"] is True
        assert ";".join(instance_lines(snap.instance)) in ann["flat"]
    assert flat.states == shop_lts.states
    assert flat.edges == shop_lts.edges


def test_flatten_translated_side_hides_the_machinery(shop, shop_translation, shop_cpn_lts):
    out = shop_translation
    names = {p: r for r, p in out.relation_places.items()}
    flat = flatten(shop_cpn_lts, out.place_classes, relation_names=names)
    m0 = out.net.initial_marking
    ann = flat.annotations[m0]
    assert ann["stable"] is True  # the lock is free initially
    # same flat content as the source initial state
    src = flatten(build_lts(shop, BOUNDED1))
    assert ann["flat"] == src.annotations[src.states[0]]["flat"]
    # the lock never shows up in any flat rendering
    for m in flat.states:
        assert out.lock_place not in flat.annotations[m]["flat"]


def test_flatten_is_idempotent(shop_lts):
    once = flatten(shop_lts)
    twice = flatten(once)
    assert twice.annotations == once.annotations
    assert twice.edges == once.edges


def test_flatten_translated_needs_relation_names(shop_translation, shop_cpn_lts):
    with pytest.raises(ContractError, match="relation_names"):
        flatten(shop_cpn_lts, shop_translation.place_classes)


@pytest.mark.parametrize("mutation", [None, "swap-add-priorities"])
def test_memoised_flat_equals_a_direct_rendering(mutation):
    model = build_shopping_cart(1, 2)
    out = translate(model)
    if mutation is not None:
        out = apply_mutation(out, mutation)
    raw = cpn_build_lts(out.net, BOUNDED1, max_states=3000)
    names = {p: r for r, p in out.relation_places.items()}
    flat = flatten(raw, out.place_classes, relation_names=names)
    shared = {}
    for m in flat.states:
        text = flat.annotations[m]["flat"]
        assert text == bisim._flat_of_marking(m, out.place_classes, names).render()
        assert shared.setdefault(text, text) is text  # equal projections share one string
    if mutation is not None:  # the runaway mutant duplicates facts
        assert any(
            n >= 2 for m in flat.states for p in names for _tok, n in m.tokens(p)
        )


def test_flat_state_render_is_sorted():
    f = FlatState(("R(1)", "R(2)"), ("p(0)",))
    assert f.render() == "facts{R(1);R(2)}|ctl{p(0)}"


# ---------------------------------------------------------------------------
# the checker on handmade graphs


def test_stutter_steps_do_not_separate():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(
        ["p", "q", "r"],
        [("p", EPS, "q"), ("q", OBS, "r")],
        {"p": ("F0", True), "q": ("F0", False), "r": ("F1", True)},
    )
    res = check_weak_bisim(l1, l2)
    assert res.verdict == BISIMILAR
    assert ("a", "p") in res.relation


def test_differing_outcome_is_an_unmatched_move():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(["p", "r"], [("p", OBS2, "r")], {"p": ("F0", True), "r": ("F1", True)})
    res = check_weak_bisim(l1, l2)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "unmatched-move"
    assert res.trace  # a replayable explanation comes along


def test_silent_dead_end_is_rejected():
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(
        ["p", "q"], [("p", EPS, "q")], {"p": ("F0", True), "q": ("F0", False)}
    )
    res = check_weak_bisim(l1, l2)
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
    res = check_weak_bisim(l1, l2)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "silent-divergence"


def test_silent_cycle_through_a_stable_state_is_fine():
    # a stable state on the cycle means the run always converges
    l1 = hand_lts(["a"], [("a", EPS, "a")], {"a": ("F0", True)})
    l2 = hand_lts(["p"], [], {"p": ("F0", True)})
    assert check_weak_bisim(l1, l2).verdict == BISIMILAR


def test_initial_content_mismatch():
    l1 = hand_lts(["a"], [], {"a": ("F0", True)})
    l2 = hand_lts(["p"], [], {"p": ("OTHER", True)})
    res = check_weak_bisim(l1, l2)
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
    res = check_weak_bisim(l1, l2)
    assert res.verdict == NOT_BISIMILAR
    assert res.witness["kind"] == "unmatched-move"
    assert any("descending" in line for line in res.trace)


def test_verdict_is_symmetric():
    l1 = hand_lts(["a", "b"], [("a", OBS, "b")], {"a": ("F0", True), "b": ("F1", True)})
    l2 = hand_lts(["p", "r"], [("p", OBS2, "r")], {"p": ("F0", True), "r": ("F1", True)})
    assert check_weak_bisim(l1, l2).verdict == check_weak_bisim(l2, l1).verdict
    l3 = hand_lts(
        ["p", "q", "r"],
        [("p", EPS, "q"), ("q", OBS, "r")],
        {"p": ("F0", True), "q": ("F0", False), "r": ("F1", True)},
    )
    assert check_weak_bisim(l1, l3).verdict == check_weak_bisim(l3, l1).verdict == BISIMILAR


def test_silent_chain_shares_one_reach_set():
    lts = hand_lts(
        ["a", "b", "c", "d"],
        [("a", EPS, "b"), ("b", EPS, "c"), ("c", OBS, "d")],
        {"a": ("F0", False), "b": ("F0", False), "c": ("F0", True), "d": ("F1", True)},
    )
    side = bisim._Side(lts, "left")
    assert side.eps_targets(0) == frozenset({2})
    assert side.eps_targets(0) is side.eps_targets(1) is side.eps_targets(2)
    assert side.big_steps(0) == {OBS: frozenset({3})}


def test_every_flattened_lts_is_bisimilar_to_itself(shop_lts):
    flat = flatten(shop_lts)
    assert check_weak_bisim(flat, flat).verdict == BISIMILAR


def test_truncated_inputs_are_refused(shop_lts):
    flat = flatten(shop_lts)
    cut = Lts(flat.states, flat.edges, truncated=True, annotations=flat.annotations)
    with pytest.raises(ContractError, match="truncated"):
        check_weak_bisim(cut, flat)


def test_unflattened_inputs_are_refused(shop_lts):
    with pytest.raises(ContractError, match="flatten"):
        check_weak_bisim(shop_lts, shop_lts)


# ---------------------------------------------------------------------------
# verify_relation


def relation_setup(model, policy):
    out = translate(model)
    raw1 = build_lts(model, policy)
    raw2 = cpn_build_lts(out.net, policy)
    names = {p: r for r, p in out.relation_places.items()}
    l1 = flatten(raw1)
    l2 = flatten(raw2, out.place_classes, relation_names=names)
    return l1, l2, check_weak_bisim(l1, l2)


def test_verify_relation_confirms_a_real_certificate(guarded):
    l1, l2, res = relation_setup(guarded, RECYCLING)
    assert res.verdict == BISIMILAR
    assert verify_relation(l1, l2, res.relation) == []


def test_verify_relation_rejects_tampering(guarded):
    l1, l2, res = relation_setup(guarded, RECYCLING)
    dropped = tuple(res.relation[1:])
    assert verify_relation(l1, l2, dropped)
    mismatched = res.relation + ((l1.states[0], l2.states[-1]),)
    if l1.annotations[l1.states[0]]["flat"] != l2.annotations[l2.states[-1]]["flat"]:
        assert verify_relation(l1, l2, mismatched)


# ---------------------------------------------------------------------------
# the full pipeline


def test_certify_the_shop(shop):
    res = certify_translation(shop, policy=BOUNDED1)
    assert res.bisimilar
    assert res.relation
    assert res.stats["source-states"] > 1
    assert res.stats["translated-states"] > res.stats["source-states"]


def test_certify_is_policy_robust_on_the_shop(shop):
    assert certify_translation(shop, policy=RECYCLING).bisimilar


def test_certify_the_empty_net():
    res = certify_translation(build_empty(), policy=RECYCLING)
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
    def no_flatten(*_args, **_kwargs):
        raise AssertionError("flatten called on a truncated exploration")

    monkeypatch.setattr(bisim, "flatten", no_flatten)
    with pytest.raises(TruncatedError) as both_cut:
        certify_translation(shop, policy=BOUNDED1, max_states=10)
    assert str(both_cut.value) == (
        "left LTS is truncated; the check needs the complete state space"
    )
    runaway = apply_mutation(translate(shop), "swap-add-priorities")
    with pytest.raises(TruncatedError) as right_cut:
        certify_translation(shop, policy=BOUNDED1, max_states=500, translation=runaway)
    assert str(right_cut.value) == (
        "right LTS is truncated; the check needs the complete state space"
    )


def test_a_truncated_source_stops_before_the_target_is_explored(shop22, monkeypatch):
    def no_target(*_args, **_kwargs):
        raise AssertionError("the translated net explored after a truncated source")

    monkeypatch.setattr(bisim, "cpn_build_lts", no_target)
    with pytest.raises(TruncatedError) as cut:
        certify_translation(shop22, policy=BOUNDED1, max_states=100)
    assert str(cut.value) == "left LTS is truncated; the check needs the complete state space"


# ---------------------------------------------------------------------------
# golden outputs: every corpus net and shop 1x2, unmutated and mutated


GOLDEN = Path(__file__).resolve().parent / "data" / "certify_golden.json"
GOLDEN_CAP = 3000  # states per side; a runaway mutant truncates
GOLDEN_NETS = dict(CORPUS, **{"shop-1x2": lambda: build_shopping_cart(1, 2)})
GOLDEN_CASES = [
    f"{net}/{mutation}" for net in GOLDEN_NETS for mutation in ["none", *sorted(MUTATIONS)]
]


def certify_record(case: str) -> dict:
    """Everything ``certify_translation`` says about one (net, mutation)
    case under ``bounded:1``, as JSON data.  The relation is pinned by its
    size and the sha256 of its rendered pairs, one line per pair."""
    net_name, mutation = case.split("/")
    model = GOLDEN_NETS[net_name]()
    translation = translate(model)
    if mutation != "none":
        try:
            translation = apply_mutation(translation, mutation)
        except ContractError as exc:
            return {"outcome": "not-applicable", "message": str(exc)}
    try:
        res = certify_translation(
            model, policy=BOUNDED1, max_states=GOLDEN_CAP, translation=translation
        )
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_certify_output_matches_the_golden_record(golden, case):
    got = json.dumps(certify_record(case), indent=1, sort_keys=True)
    assert got == json.dumps(golden[case], indent=1, sort_keys=True)


if __name__ == "__main__":
    # Rewrite the golden file: PYTHONPATH=src:tests python tests/test_bisim.py --write
    if sys.argv[1:] == ["--write"]:
        records = {case: certify_record(case) for case in GOLDEN_CASES}
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
