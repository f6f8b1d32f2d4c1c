import copy
import pickle
import sys
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dbnet.corpus import build_shopping_cart
from dbnet.cpn import cpn_build_lts
from dbnet.freshness import FreshPolicy
from dbnet.marking import Marking, place_deltas, render_token
from dbnet.model import build_lts
from dbnet.relational import ContractError, DataType, make_value
from dbnet.translate import translate

INT = DataType("int", "int")


def tok(*ns):
    return tuple(make_value(INT, n) for n in ns)


tokens = st.lists(
    st.tuples(st.sampled_from(["p", "q"]), st.integers(0, 3).map(lambda n: tok(n))),
    max_size=8,
)


def test_from_tokens_counts_multiplicity():
    m = Marking.from_tokens([("p", tok(1)), ("p", tok(1)), ("q", tok(2))])
    assert m.count("p", tok(1)) == 2
    assert m.count("q", tok(2)) == 1
    assert m.count("q", tok(9)) == 0
    assert m.total("p") == 2
    assert sum(map(m.total, m.places_marked())) == 3


def test_covers_is_multiset_inclusion():
    m = Marking.from_tokens([("p", tok(1)), ("p", tok(1))])
    assert m.covers([("p", tok(1))])
    assert m.covers([("p", tok(1)), ("p", tok(1))])
    assert not m.covers([("p", tok(1))] * 3)
    assert not m.covers([("q", tok(1))])


def test_minus_absent_token_raises():
    m = Marking.from_tokens([("p", tok(1))])
    with pytest.raises(ContractError):
        m.update([("p", tok(2))], ())


def test_negative_multiplicity_rejected():
    with pytest.raises(ContractError):
        Marking({"p": {tok(1): -1}})


def test_zero_entries_are_dropped_for_equality():
    assert Marking({"p": {tok(1): 0}}) == Marking({})
    assert hash(Marking({"p": {}})) == hash(Marking({}))


def test_render_is_sorted_and_stable():
    m = Marking.from_tokens([("q", tok(2)), ("p", tok(3)), ("p", tok(1))])
    assert m.render() == "p{(1),(3)} q{(2)}"
    assert render_token(tok(1, 2)) == "(1,2)"


@given(tokens, tokens)
def test_plus_then_minus_is_identity(base, extra):
    m = Marking.from_tokens(base)
    assert m.update((), extra).update(extra, ()) == m


@given(tokens, tokens)
def test_covers_iff_minus_succeeds(base, want):
    m = Marking.from_tokens(base)
    if m.covers(want):
        m.update(want, ())  # must not raise
    else:
        with pytest.raises(ContractError):
            m.update(want, ())


@given(tokens, tokens)
def test_plus_is_commutative_in_content(a, b):
    empty = Marking.from_tokens([])
    assert empty.update((), a).update((), b) == empty.update((), b).update((), a)


# ---------------------------------------------------------------------------
# incremental updates agree with construction from scratch


PLACES = ["p", "q", "r"]
pair_tokens = st.tuples(st.integers(0, 4), st.integers(0, 2)).map(lambda ab: tok(*ab))
moves = st.lists(
    st.tuples(st.sampled_from(PLACES), pair_tokens), min_size=1, max_size=4
)
updates = st.lists(st.tuples(st.sampled_from(["plus", "minus"]), moves), max_size=12)


def assert_same_marking(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.key() == want.key()
    assert got.render() == want.render()
    assert got.places_marked() == want.places_marked()
    for place in PLACES:
        assert got.tokens(place) == want.tokens(place)
        assert got.total(place) == want.total(place)
    assert sum(map(got.total, got.places_marked())) == sum(map(want.total, want.places_marked()))


def from_counts(counts):
    bags = {}
    for (place, token), n in counts.items():
        bags.setdefault(place, {})[token] = n
    return Marking(bags)


@given(st.lists(st.tuples(st.sampled_from(PLACES), pair_tokens), max_size=6), updates)
def test_update_sequences_match_a_marking_built_from_scratch(start, steps):
    m = Marking.from_tokens(start)
    counts = {}
    for place, token in start:
        counts[(place, token)] = counts.get((place, token), 0) + 1
    for kind, batch in steps:
        if kind == "plus":
            m = m.update((), batch)
            for key in batch:
                counts[key] = counts.get(key, 0) + 1
        elif m.covers(batch):
            m = m.update(batch, ())
            for key in batch:
                counts[key] -= 1
        else:
            with pytest.raises(ContractError):
                m.update(batch, ())
        assert_same_marking(m, from_counts(counts))


@given(st.lists(st.tuples(st.sampled_from(PLACES), pair_tokens), min_size=1, max_size=6), moves)
def test_deriving_a_child_leaves_the_parent_alone(start, batch):
    parent = Marking.from_tokens(start)
    before = {place: parent.tokens(place) for place in PLACES}
    key, text = parent.key(), parent.render()
    children = [
        parent.update((), batch),
        parent.update(start[:1], ()),
        parent.update((), batch).update(batch, ()),
    ]
    children.append(children[0].update((), start))
    assert {place: parent.tokens(place) for place in PLACES} == before
    assert parent.key() == key and parent.render() == text
    assert_same_marking(parent, Marking.from_tokens(start))


def test_removing_the_last_token_drops_the_place():
    m = Marking.from_tokens([("p", tok(1)), ("p", tok(1)), ("q", tok(2))])
    once = m.update([("p", tok(1))], ())
    assert once.places_marked() == ["p", "q"]
    gone = once.update([("p", tok(1))], ())
    assert gone.places_marked() == ["q"]
    assert gone.tokens("p") == ()
    assert gone.total("p") == 0
    assert_same_marking(gone, Marking.from_tokens([("q", tok(2))]))
    assert_same_marking(gone.update((), [("p", tok(1))]).update([("p", tok(1))], ()), gone)


def test_tokens_is_in_canonical_order():
    m = Marking.from_tokens([("p", tok(3, 0)), ("p", tok(1, 2)), ("p", tok(1, 1))])
    m = m.update((), [("p", tok(2, 0)), ("p", tok(1, 1))])
    assert m.tokens("p") == ((tok(1, 1), 2), (tok(1, 2), 1), (tok(2, 0), 1), (tok(3, 0), 1))


def test_failed_minus_leaves_the_receiver_unchanged():
    m = Marking.from_tokens([("p", tok(1)), ("p", tok(1)), ("q", tok(2))])
    before = (m.key(), m.render(), m.tokens("p"), m.count("p", tok(1)), hash(m))
    with pytest.raises(ContractError):
        # the first two removals succeed before the third one fails
        m.update([("p", tok(1)), ("p", tok(1)), ("p", tok(1))], ())
    with pytest.raises(ContractError):
        m.update([("q", tok(2)), ("r", tok(0))], ())
    assert (m.key(), m.render(), m.tokens("p"), m.count("p", tok(1)), hash(m)) == before
    assert_same_marking(m, Marking.from_tokens([("p", tok(1)), ("p", tok(1)), ("q", tok(2))]))


@given(st.lists(st.tuples(st.sampled_from(PLACES), pair_tokens), max_size=8), updates,
       st.sets(st.sampled_from(PLACES + ["absent"])))
def test_restrict_equals_a_marking_of_the_kept_tokens(start, steps, keep):
    m = Marking.from_tokens(start)
    for kind, batch in steps:  # exercise shared records from incremental updates
        if kind == "plus" or m.covers(batch):
            m = m.update((), batch) if kind == "plus" else m.update(batch, ())
    want = Marking(
        {place: dict(m.tokens(place)) for place in m.places_marked() if place in keep}
    )
    assert_same_marking(m.restrict(keep), want)
    assert_same_marking(m.restrict(frozenset(keep)).restrict(keep), want)


def assert_unchanged(m, before):
    assert (m.key(), m.render(), m.places_marked(), hash(m)) == before


@given(st.lists(st.tuples(st.sampled_from(PLACES), pair_tokens), max_size=8), moves, moves)
def test_update_equals_minus_then_plus(start, removals, additions):
    m = Marking.from_tokens(start)
    before = (m.key(), m.render(), m.places_marked(), hash(m))
    if m.covers(removals):
        counts = {}
        for key in start + additions:
            counts[key] = counts.get(key, 0) + 1
        for key in removals:
            counts[key] -= 1
        assert_same_marking(m.update(removals, additions), from_counts(counts))
        assert_same_marking(m.update(removals, additions), m.minus(removals).plus(additions))
        assert_same_marking(m.update((), additions), m.plus(additions))
        assert_same_marking(m.update(removals, ()), m.minus(removals))
        # a token taken away and put back leaves an equal marking
        assert_same_marking(m.update(removals, removals), m)
    else:
        with pytest.raises(ContractError, match="absent"):
            m.update(removals, additions)
    assert_unchanged(m, before)
    assert_same_marking(m, Marking.from_tokens(start))


def test_update_removes_before_it_adds():
    m = Marking.from_tokens([("p", tok(1))])
    before = (m.key(), m.render(), m.places_marked(), hash(m))
    # the addition of the second copy does not pay for its removal
    with pytest.raises(ContractError, match=r"cannot remove \(1\) from 'p': absent"):
        m.update([("p", tok(1)), ("p", tok(1))], [("p", tok(1))])
    assert_unchanged(m, before)
    moved = m.update([("p", tok(1))], [("q", tok(1)), ("p", tok(2))])
    assert_same_marking(moved, Marking.from_tokens([("p", tok(2)), ("q", tok(1))]))


# ---------------------------------------------------------------------------
# equality, queries and sharing through the public API


def walk(m, steps):
    """``m`` after those of ``steps`` that apply: a minus that ``m`` does
    not cover is skipped."""
    for kind, batch in steps:
        if kind == "plus":
            m = m.update((), batch)
        elif m.covers(batch):
            m = m.update(batch, ())
    return m


def assert_queries_match_tokens(m):
    bags = {place: dict(m.tokens(place)) for place in m.places_marked()}
    assert all(bags.values())
    for place in PLACES + ["absent"]:
        bag = bags.get(place, {})
        for a in range(5):
            for b in range(3):
                assert m.count(place, tok(a, b)) == bag.get(tok(a, b), 0)
        assert m.total(place) == sum(bag.values())
    multiplicities = [n for place in m.places_marked() for _, n in m.tokens(place)]
    assert sum(multiplicities) == sum(sum(bag.values()) for bag in bags.values())
    assert Counter(m.all_values()) == Counter(v for bag in bags.values() for t in bag for v in t)


starts = st.lists(st.tuples(st.sampled_from(PLACES), pair_tokens), max_size=8)


@given(starts, updates, updates)
def test_equality_is_key_equality(start, left, right):
    base = Marking.from_tokens(start)
    a, b = walk(base, left), walk(base, right)
    rebuilt = Marking({place: dict(a.tokens(place)) for place in a.places_marked()})
    put_back = a.update(start[:2], start[:2]) if a.covers(start[:2]) else a
    for x, y in ((a, b), (b, a), (a, rebuilt), (put_back, a), (base, b)):
        assert (x == y) == (x.key() == y.key())
        assert (x != y) == (x.key() != y.key())
        if x == y:
            assert hash(x) == hash(y)
    assert a == rebuilt and a == put_back
    for m in (a, b, put_back):
        assert_queries_match_tokens(m)


@given(starts, updates, st.sets(st.sampled_from(PLACES)))
def test_join_is_the_union_of_markings_on_disjoint_places(start, steps, left):
    whole = walk(Marking.from_tokens(start), steps)
    a, b = whole.restrict(left), whole.restrict(set(PLACES) - left)
    joined = a.join(b)
    assert_same_marking(joined, whole)
    assert_same_marking(b.join(a), whole)
    for place in PLACES:  # the records are shared, not rebuilt
        assert joined.tokens(place) is whole.tokens(place)
    assert a.join(Marking.EMPTY) is a
    assert Marking.EMPTY.join(b) is (b if b.marked() else Marking.EMPTY)


def test_join_refuses_markings_that_share_a_place():
    a = Marking.from_tokens([("p", tok(1)), ("q", tok(1))])
    b = Marking.from_tokens([("q", tok(2)), ("r", tok(2))])
    with pytest.raises(ContractError, match=r"both mark \['q'\]"):
        a.join(b)
    with pytest.raises(ContractError, match="both mark"):
        a.join(a)


@given(starts, st.integers(0, 3), moves)
def test_an_update_shares_every_place_it_does_not_touch(start, taken, additions):
    parent = Marking.from_tokens(start)
    removals = start[:taken]
    child = parent.update(removals, additions)
    touched = {place for place, _ in removals + additions}
    for place in PLACES:
        if place not in touched:
            assert child.tokens(place) is parent.tokens(place)


@given(starts, updates, st.sets(st.sampled_from(PLACES + ["absent"])))
def test_restrict_shares_the_kept_places(start, steps, keep):
    m = walk(Marking.from_tokens(start), steps)
    part = m.restrict(keep)
    for place in keep:
        assert part.tokens(place) is m.tokens(place)
    assert m.restrict(set(m.places_marked())) is m
    assert m.restrict(keep | set(m.places_marked())) is m


@given(starts, updates, updates, st.lists(st.sampled_from(PLACES + ["absent"]), unique=True))
def test_records_are_equal_iff_the_restricted_markings_are(start, left, right, places):
    base = Marking.from_tokens(start)
    a, b = walk(base, left), walk(base, right)
    rebuilt = Marking({place: dict(b.tokens(place)) for place in b.places_marked()})
    places = tuple(sorted(places))
    for x, y in ((a, b), (b, a), (a, rebuilt), (b, rebuilt), (base, a)):
        same = x.records(places) == y.records(places)
        assert same == (x.restrict(places) == y.restrict(places))
        if same:
            assert hash(x.records(places)) == hash(y.records(places))


# ---------------------------------------------------------------------------
# hash quality: a marking's hash sums per-place hashes, and a sum of raw
# tuple hashes collides on these state spaces (token hashes come from the
# addresses of interned values, so the collisions differ from run to run)


def assert_one_hash_per_marking(markings):
    assert len({hash(m) for m in markings}) == len({m.key() for m in markings})


def test_distinct_markings_hash_apart_on_both_layers(shop22):
    policy = FreshPolicy.parse("bounded:2")
    source = build_lts(shop22, policy)
    target = cpn_build_lts(translate(shop22).net, policy)
    assert not source.truncated and not target.truncated
    assert len(target.states) > 5000
    assert_one_hash_per_marking([s.marking for s in source.states])
    assert_one_hash_per_marking(target.states)
    shop33 = build_lts(build_shopping_cart(3, 3), policy)
    assert_one_hash_per_marking([s.marking for s in shop33.states])


# ---------------------------------------------------------------------------
# interning: one live record per (place, pairs), shared by every marking


def record(m, place):
    return m.records((place,))[0]


def test_equal_contents_share_one_record_whatever_builds_them():
    a, b = tok(1), tok(2)
    built = Marking({"p": {a: 2, b: 1}, "q": {a: 1}})
    ways = [
        Marking({"p": {b: 1, a: 2}, "q": {a: 1}}),
        Marking.from_tokens([("q", a), ("p", b), ("p", a), ("p", a)]),
        Marking.from_tokens([("p", a)]).update([("p", a)], [("p", b), ("p", a), ("p", a), ("q", a)]),
        Marking.from_tokens([("p", a), ("q", a), ("q", b)])
        .update((), [("p", a), ("p", b)])
        .update([("q", b)], ()),
        Marking({"p": {a: 2, b: 1}, "q": {a: 1}, "r": {b: 1}}).restrict({"p", "q"}),
    ]
    for m in ways:
        assert m == built
        for place in ("p", "q"):
            assert record(m, place) is record(built, place)


@given(starts, updates)
def test_a_walked_marking_shares_the_records_of_one_built_from_scratch(start, steps):
    m = walk(Marking.from_tokens(start), steps)
    rebuilt = Marking({place: dict(m.tokens(place)) for place in m.places_marked()})
    for place in PLACES:
        assert record(m, place) is record(rebuilt, place)


@given(starts, updates, moves, moves)
def test_applying_place_deltas_through_a_table_equals_update(start, steps, removals, additions):
    m = walk(Marking.from_tokens(start), steps)
    before = (m.key(), m.render(), m.places_marked(), hash(m))
    deltas = place_deltas(removals, additions)
    assert sorted({place for place, _ in removals + additions}) == sorted(d[0] for d in deltas)
    # the table has already stepped these deltas from a marking holding every removed token
    table = {}
    Marking.from_tokens(removals).apply(deltas, table)
    if m.covers(removals):
        want = m.update(removals, additions)
        for _ in range(2):  # a miss or a hit, then a hit
            got = m.apply(deltas, table)
            assert_same_marking(got, want)
            assert all(a is b for a, b in zip(got.records(PLACES), want.records(PLACES)))
        assert table[(record(m, deltas[0][0]), deltas[0])] is record(want, deltas[0][0])
    else:
        failing = [d for d in deltas if not m.covers((d[0], t) for t in d[1])]
        for _ in range(2):  # the error is never stored, so it is raised again
            with pytest.raises(ContractError, match="absent"):
                m.apply(deltas, table)
            assert not any((record(m, d[0]), d) in table for d in failing)
    assert_unchanged(m, before)
    assert_same_marking(m, walk(Marking.from_tokens(start), steps))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_interned_records(clone):
    m = Marking.from_tokens([("p", tok(1)), ("p", tok(1)), ("q", tok(2, 3))])
    twin = clone(m)
    assert twin == m and hash(twin) == hash(m)
    for place in ("p", "q"):
        assert record(twin, place) is record(m, place)


def test_threads_building_one_record_get_one_object():
    def build(out):
        out.extend(record(Marking({"racy": {tok(i): 1}}), "racy") for i in range(2000))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for made in zip(*results):
        assert all(rec is made[0] for rec in made)
    assert len(results[0]) == 2000


def test_a_record_no_marking_holds_is_freed():
    m = Marking.from_tokens([("lonely", tok(987654))])
    ref = weakref.ref(record(m, "lonely"))
    assert ref() is not None
    del m
    assert ref() is None


def test_records_compare_and_hash_by_identity():
    rec = record(Marking.from_tokens([("p", tok(1))]), "p")
    assert type(rec).__eq__ is object.__eq__
    assert type(rec).__hash__ is object.__hash__
    assert not hasattr(rec, "__dict__")


def test_the_source_graph_holds_one_record_per_distinct_place_contents():
    lts = build_lts(build_shopping_cart(3, 3), FreshPolicy.parse("bounded:2"))
    objects, contents = set(), set()
    for snap in lts.states:
        m = snap.marking
        for place in m.marked():
            objects.add(id(record(m, place)))  # all alive, so ids are distinct
            contents.add((place, m.tokens(place)))
    assert len(contents) == 53
    assert len(objects) == len(contents)


@given(tokens, st.permutations(range(4)))
def test_rename_equals_a_marking_built_from_the_renamed_tokens(start, perm):
    values = {make_value(INT, n): make_value(INT, perm[n]) for n in range(4)}
    memo: dict = {}
    m = Marking.from_tokens(start)
    renamed = m.rename(values, memo)
    assert renamed == Marking.from_tokens(
        [(place, tuple(values[v] for v in t)) for place, t in start])
    # each record is renamed once, and renaming back gives the marking again
    assert m.rename(values, memo) == renamed
    assert len(memo) == len(m.places_marked())
    back = {w: v for v, w in values.items()}
    assert renamed.rename(back, {}) == m
