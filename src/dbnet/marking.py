"""Immutable multiset markings over named places.

Tokens are tuples of :class:`~dbnet.relational.Value`.  Both net layers
use the same marking type; relation places of the translated net keep set
semantics by construction (the surrounding gadgets guard every insert),
not by anything in this module.

A marking is a dict from each marked place to its place record (see
:class:`PlaceRecord`), plus one integer hash; an empty place is not
stored at all, so two markings with the same tokens are identical in
every query.  Records are interned (hash-consing, as in Filliâtre &
Conchon, "Type-Safe Modular Hash-Consing", ML 2006, applied one level
above the interned values): building a record returns the one live
object for its ``(place, pairs)``, so every marking of every state, on
either net layer, shares it, and each distinct place contents is stored
once (as SPIN's collapse compression stores each distinct state
component once; Holzmann, SPIN 1997).  Records therefore compare and
hash by identity, in C.  The intern table holds its records weakly: it
keeps none alive, a record goes when the last marking holding it goes,
and the table never needs clearing.  An update builds records only for
the places it touches, and the new marking reuses every other place's
record from its parent.  Nothing may mutate a record after
construction.

The marking's hash is the sum of its places' record hashes, so an update
re-hashes only the places it touches: it subtracts each touched place's
old hash and adds the new one (incremental hashing, as in Nguyen & Ruys,
"Incremental Hashing for SPIN", SPIN 2008).  The sum needs well-spread
terms: Python's tuple hashes of related place contents are not
independent, and summed raw they collide, so each place hash is passed
through a 64-bit finaliser first.  A token's hash comes from the addresses of its values,
which are interned and hash by identity, so it differs from run to run;
summed raw, the 22,683 translated markings of shop 3x3 under
``bounded:2`` got 990 to 1,677 fewer distinct hashes than markings in
three runs, and mixed they get none.  Equality compares the hash, then
the place dicts, whose records match by identity without touching a
token.  The sorted views, ``key()`` and ``places_marked()``, are built
only when asked for: by validation, translation and printing.  The
enabling scan walks the unsorted ``marked()`` view.

An update is a tuple of per-place deltas (:func:`place_deltas`), and
``_next_record`` is the one place where tokens are counted: one private
copy of a place's counts, re-sorted only if a token new to it came in.
``apply(deltas, table)`` copies the place dict once and looks each
``(old record or None, delta)`` up in ``table`` first, so a caller that
keeps one table (one per exploration, on either net layer) computes
each pair's next record once.  ``update(removals, additions)`` applies
one update with no table, for set-up and tests; ``minus`` and ``plus``
are its two halves.
``restrict`` gives the marking of some places only, built
from the per-place records, so it is a cheap hashable key for "the
tokens on these places" (the certifier compares the contents of states
by it), and ``join`` is the disjoint union of two markings, built from
both sets of records (the certifier lays a source snapshot's facts
beside its control tokens with it).
``records`` is the same key as a plain tuple of those records, with no
marking built, and it hashes each record by address; both net layers
memoise each transition's firings on it.  ``rename`` maps a marking's
values one-to-one, record by record, through a memo that the caller
keeps per mapping (the certifier renames interchangeable data values
with it).
"""

from __future__ import annotations

import sys
import threading
import weakref
from typing import Iterable, Mapping, Optional, Tuple

from .record import _refuse
from .relational import ContractError, render_value

__all__ = ["Marking", "place_deltas", "render_token"]

_M64 = (1 << 64) - 1


def render_token(token: tuple) -> str:
    return "(" + ",".join(render_value(v) for v in token) + ")"


def _pair_sort_key(pair):
    """Canonical order of ``(token, multiplicity)`` pairs: by token."""
    return tuple(v.sort_key() for v in pair[0])


def _fmix64(h: int) -> int:
    """MurmurHash3's 64-bit finaliser: every input bit flips each output
    bit with probability about one half, so sums of mixed hashes do not
    cancel the way sums of raw tuple hashes do."""
    h &= _M64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _M64
    return h ^ (h >> 33)


class PlaceRecord:
    """The tokens of one marked place: the one live object for its
    ``(place, pairs)``.  ``pairs`` is the canonical tuple of ``(token,
    multiplicity)`` in token order, and is both what ``tokens(place)``
    returns and this place's part of ``Marking.key()``.  ``hash`` is
    ``hash((place, pairs))`` mixed by :func:`_fmix64`; a marking's hash
    is the sum of these.  Records are interned, so equal records are the
    same object, and equality and hashing are ``object``'s, by identity."""

    __slots__ = ("place", "pairs", "hash", "__weakref__")

    place: str
    pairs: tuple
    hash: int

    def __new__(cls, place: str, pairs: tuple) -> "PlaceRecord":
        key = (place, pairs)
        rec = _RECORDS.get(key)
        if rec is None:
            with _RECORDS_LOCK:  # two threads must not make two objects for one key
                rec = _RECORDS.get(key)
                if rec is None:
                    rec = object.__new__(cls)
                    object.__setattr__(rec, "place", place)
                    object.__setattr__(rec, "pairs", pairs)
                    object.__setattr__(rec, "hash", _fmix64(hash(key)))
                    _RECORDS[key] = rec
        return rec

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the intern table
        return (PlaceRecord, (self.place, self.pairs))


# (place, pairs) -> the live PlaceRecord with that key.  The table holds
# its records weakly, so it keeps none alive and never needs clearing.
_RECORDS = weakref.WeakValueDictionary()
_RECORDS_LOCK = threading.Lock()


def _place_record(place: str, counts: dict, in_order: bool = False) -> PlaceRecord:
    """The record of ``place`` holding the non-empty bag ``counts``
    (token -> positive multiplicity), sorted unless ``in_order``."""
    pairs = tuple(counts.items())
    if not in_order and len(pairs) > 1:
        pairs = tuple(sorted(pairs, key=_pair_sort_key))
    return PlaceRecord(place, pairs)


def place_deltas(removals: Iterable[Tuple[str, tuple]],
                 additions: Iterable[Tuple[str, tuple]]) -> tuple:
    """An update as deltas ``(place, removed tokens, added tokens)``, one
    per touched place in the order first touched, tokens in update order."""
    moves: dict = {}
    for place, tok in removals:
        if place in moves:
            moves[place][0].append(tok)
        else:
            moves[place] = ([tok], [])
    for place, tok in additions:
        if place in moves:
            moves[place][1].append(tok)
        else:
            moves[place] = ([], [tok])
    return tuple([(place, tuple(removed), tuple(added))
                  for place, (removed, added) in moves.items()])


def _next_record(old: Optional[PlaceRecord], delta: tuple) -> Optional[PlaceRecord]:
    """The record (None: empty) of ``delta``'s place, whose record was
    ``old``, after the delta.  Removing an absent token raises
    ``ContractError``."""
    place, removed, added = delta
    counts = dict(old.pairs) if old is not None else {}
    for tok in removed:
        have = counts.get(tok, 0)
        if have < 1:
            raise ContractError(f"cannot remove {render_token(tok)} from {place!r}: absent")
        if have == 1:
            del counts[tok]
        else:
            counts[tok] = have - 1
    in_order = True  # removals, and more copies of held tokens, keep the token order
    for tok in added:
        have = counts.get(tok, 0)
        counts[tok] = have + 1
        in_order = in_order and have > 0
    return _place_record(place, counts, in_order) if counts else None


def _sum_hash(records) -> int:
    # kept within a machine word, so ``__hash__`` returns it as it is
    return sum(rec.hash for rec in records) & sys.maxsize


class Marking:
    """place -> multiset of tokens, value-semantics equality."""

    __slots__ = ("_places", "_hash")

    def __init__(self, places: Mapping[str, Mapping[tuple, int]]):
        built = {}
        for place, bag in places.items():
            if any(n < 0 for n in bag.values()):
                raise ContractError(f"negative multiplicity in place {place!r}")
            counts = {tok: n for tok, n in bag.items() if n > 0}
            if counts:
                built[place] = _place_record(place, counts)
        self._places = built  # place -> its interned PlaceRecord
        self._hash = _sum_hash(built.values())

    @staticmethod
    def from_tokens(tokens: Iterable[Tuple[str, tuple]]) -> "Marking":
        return Marking.EMPTY.apply(place_deltas((), tokens), None)

    # -- queries ----------------------------------------------------------
    def count(self, place: str, token: tuple) -> int:
        rec = self._places.get(place)
        if rec is not None:
            for tok, n in rec.pairs:
                if tok == token:
                    return n
        return 0

    def tokens(self, place: str) -> tuple:
        """(token, multiplicity) pairs in canonical order."""
        rec = self._places.get(place)
        return rec.pairs if rec is not None else ()

    def places_marked(self):
        """The marked places, sorted (for printing and validation)."""
        return sorted(self._places)

    def marked(self):
        """The marked places in no particular order, as a read-only view
        with no copy (for the enabling scan)."""
        return self._places.keys()

    def total(self, place: str) -> int:
        rec = self._places.get(place)
        return sum(n for _, n in rec.pairs) if rec is not None else 0

    def covers(self, demands: Iterable[Tuple[str, tuple]]) -> bool:
        """Multiset inclusion: enough copies of every demanded token."""
        need: dict = {}
        for place, tok in demands:
            need[(place, tok)] = need.get((place, tok), 0) + 1
        return all(self.count(p, t) >= n for (p, t), n in need.items())

    def all_values(self):
        for rec in self._places.values():
            for tok, _ in rec.pairs:
                for v in tok:
                    yield v

    def restrict(self, places) -> "Marking":
        """The tokens on ``places`` only (a set of place names).  The result
        shares this marking's per-place records, so building and hashing it
        touches no token."""
        own = self._places
        kept = {p: own[p] for p in places if p in own}
        if len(kept) == len(own):
            return self
        out = Marking.__new__(Marking)
        out._places = kept
        out._hash = _sum_hash(kept.values())
        return out

    def join(self, other: "Marking") -> "Marking":
        """The disjoint union of this marking and ``other``, which must
        mark no place that this one marks (``ContractError`` otherwise).
        The result shares both markings' records, so building and hashing
        it touches no token."""
        own, theirs = self._places, other._places
        if not theirs:
            return self
        if not own:
            return other
        shared = own.keys() & theirs.keys()
        if shared:
            raise ContractError(f"cannot join markings that both mark {sorted(shared)!r}")
        out = Marking.__new__(Marking)
        out._places = {**own, **theirs}
        out._hash = (self._hash + other._hash) & sys.maxsize
        return out

    def records(self, places: tuple) -> tuple:
        """The record of each of ``places`` (a tuple of place names,
        in a fixed order), None where a place is unmarked.  Two markings
        give equal tuples exactly when their ``restrict(places)`` are
        equal, so it keys "the tokens on these places" without building a
        marking."""
        return tuple(map(self._places.get, places))

    def rename(self, values: Mapping, memo: dict) -> "Marking":
        """The marking with each value ``v`` of every token replaced by
        ``values.get(v, v)``, where ``values`` is one-to-one, so each
        place keeps as many tokens.  ``memo`` maps each record renamed
        before by ``values`` to its image, and a miss stores it, so a
        caller that renames many markings by one mapping renames each
        distinct place contents once."""
        places = {}
        for place, rec in self._places.items():
            new = memo.get(rec)
            if new is None:
                counts = {tuple(values.get(v, v) for v in tok): n for tok, n in rec.pairs}
                new = memo[rec] = _place_record(place, counts)
            places[place] = new
        out = Marking.__new__(Marking)
        out._places = places
        out._hash = _sum_hash(places.values())
        return out

    # -- updates (return new Marking) -------------------------------------
    def update(self, removals: Iterable[Tuple[str, tuple]],
               additions: Iterable[Tuple[str, tuple]]) -> "Marking":
        """The marking after taking ``removals`` away and then adding
        ``additions``.  A removal of an absent token raises
        ``ContractError``; the receiver is never changed."""
        return self.apply(place_deltas(removals, additions), None)

    def minus(self, removals: Iterable[Tuple[str, tuple]]) -> "Marking":
        return self.update(removals, ())

    def plus(self, additions: Iterable[Tuple[str, tuple]]) -> "Marking":
        return self.update((), additions)

    def apply(self, deltas: tuple, table: Optional[dict]) -> "Marking":
        """The marking after the per-place ``deltas``, which name each
        place at most once.  ``table``, if any, maps ``(old record or None,
        delta)`` to the place's next record or None, and a miss stores it.
        A removal of an absent token raises ``ContractError``, and its pair
        is not stored; the receiver is never changed."""
        if not deltas:
            return self
        places = dict(self._places)
        h = self._hash
        for delta in deltas:
            place = delta[0]
            old = places.get(place)
            if table is None:
                new = _next_record(old, delta)
            else:
                try:
                    new = table[old, delta]
                except KeyError:
                    new = table[old, delta] = _next_record(old, delta)
            if old is not None:
                h -= old.hash
            if new is not None:
                places[place] = new
                h += new.hash
            elif old is not None:
                del places[place]
        out = Marking.__new__(Marking)
        out._places = places
        out._hash = h & sys.maxsize
        return out

    # -- identity ----------------------------------------------------------
    def key(self):
        """``((place, pairs), ...)`` over the marked places, in place order."""
        places = self._places
        return tuple((p, places[p].pairs) for p in sorted(places))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Marking)
            and self._hash == other._hash
            and self._places == other._places
        )

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        chunks = []
        for place, bag in self.key():
            toks = ",".join(
                render_token(tok) if n == 1 else f"{n}`{render_token(tok)}" for tok, n in bag
            )
            chunks.append(f"{place}{{{toks}}}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Marking({self.render()})"


Marking.EMPTY = Marking({})
