"""Immutable multiset markings over named places.

Tokens are tuples of :class:`~dbnet.relational.Value`.  Both net layers
use the same marking type; relation places of the translated net keep set
semantics by construction (the surrounding gadgets guard every insert),
not by anything in this module.

A marking is immutable, and the structure behind it is shared: an
update copies and re-sorts only the places it touches, and the new
marking reuses every other place's bag, canonical token tuple and hash
from its parent.  Nothing may therefore mutate a marking's per-place data
after construction.  An empty place is not stored at all, so two markings
with the same tokens are identical in every query.

``update(removals, additions)`` is the one update: it takes the removals,
then the additions, into one private copy per touched place and re-sorts
and re-hashes each touched place once; ``minus`` and ``plus`` are its two
halves, and firing a transition is a single ``update``.  ``restrict``
gives the marking of some places only, built from the shared per-place
records, so it is a cheap hashable key for "the tokens on these places"
(the coloured-net layer memoises each transition's firings on it).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

from .relational import ContractError, render_value

__all__ = ["Marking", "render_token"]


def render_token(token: tuple) -> str:
    return "(" + ",".join(render_value(v) for v in token) + ")"


def _pair_sort_key(pair):
    """Canonical order of ``(token, multiplicity)`` pairs: by token."""
    return tuple(v.sort_key() for v in pair[0])


def _place_record(place: str, counts: dict):
    """The shared per-place record ``(counts, pairs, key item, hash)``:
    ``counts`` maps token -> multiplicity (all positive), ``pairs`` is the
    canonical tuple of ``(token, multiplicity)`` in token order, and the
    key item ``(place, pairs)`` is this place's part of ``Marking.key()``."""
    pairs = tuple(sorted(counts.items(), key=_pair_sort_key))
    item = (place, pairs)
    return (counts, pairs, item, hash(item))


class Marking:
    """place -> multiset of tokens, value-semantics equality."""

    __slots__ = ("_places", "_order", "_key", "_hash")

    def __init__(self, places: Mapping[str, Mapping[tuple, int]]):
        built = {}
        for place, bag in places.items():
            if any(n < 0 for n in bag.values()):
                raise ContractError(f"negative multiplicity in place {place!r}")
            counts = {tok: n for tok, n in bag.items() if n > 0}
            if counts:
                built[place] = _place_record(place, counts)
        self._set(built, tuple(sorted(built)))

    def _set(self, places: dict, order: tuple):
        self._places = places  # place -> shared record from _place_record
        self._order = order  # marked places, sorted
        self._key = tuple(places[p][2] for p in order)
        self._hash = hash(tuple(places[p][3] for p in order))

    @staticmethod
    def from_tokens(tokens: Iterable[Tuple[str, tuple]]) -> "Marking":
        acc: dict = {}
        for place, tok in tokens:
            acc.setdefault(place, {})
            acc[place][tok] = acc[place].get(tok, 0) + 1
        return Marking(acc)

    # -- queries ----------------------------------------------------------
    def count(self, place: str, token: tuple) -> int:
        rec = self._places.get(place)
        return rec[0].get(token, 0) if rec is not None else 0

    def tokens(self, place: str) -> tuple:
        """(token, multiplicity) pairs in canonical order."""
        rec = self._places.get(place)
        return rec[1] if rec is not None else ()

    def places_marked(self):
        return list(self._order)

    def total(self, place: str) -> int:
        rec = self._places.get(place)
        return sum(rec[0].values()) if rec is not None else 0

    def size(self) -> int:
        return sum(sum(rec[0].values()) for rec in self._places.values())

    def covers(self, demands: Iterable[Tuple[str, tuple]]) -> bool:
        """Multiset inclusion: enough copies of every demanded token."""
        need: dict = {}
        for place, tok in demands:
            need[(place, tok)] = need.get((place, tok), 0) + 1
        return all(self.count(p, t) >= n for (p, t), n in need.items())

    def all_values(self):
        for rec in self._places.values():
            for tok in rec[0]:
                for v in tok:
                    yield v

    def restrict(self, places) -> "Marking":
        """The tokens on ``places`` only (a set of place names).  The result
        shares this marking's per-place records, so building and hashing it
        touches no token."""
        order = tuple(sorted([p for p in places if p in self._places]))
        if len(order) == len(self._order):
            return self
        out = Marking.__new__(Marking)
        out._set({p: self._places[p] for p in order}, order)
        return out

    # -- updates (return new Marking) -------------------------------------
    def update(self, removals: Iterable[Tuple[str, tuple]],
               additions: Iterable[Tuple[str, tuple]]) -> "Marking":
        """The marking after taking ``removals`` away and then adding
        ``additions``, equal to ``minus(removals).plus(additions)`` but
        with one copy, one re-sort and one hash per touched place.  A
        removal of an absent token raises ``ContractError``; the receiver
        is never changed."""
        touched: dict = {}
        for place, tok in removals:
            counts = self._copy_counts(touched, place)
            have = counts.get(tok, 0)
            if have < 1:
                raise ContractError(f"cannot remove {render_token(tok)} from {place!r}: absent")
            if have == 1:
                del counts[tok]
            else:
                counts[tok] = have - 1
        for place, tok in additions:
            counts = self._copy_counts(touched, place)
            counts[tok] = counts.get(tok, 0) + 1
        return self._derive(touched)

    def minus(self, removals: Iterable[Tuple[str, tuple]]) -> "Marking":
        return self.update(removals, ())

    def plus(self, additions: Iterable[Tuple[str, tuple]]) -> "Marking":
        return self.update((), additions)

    def _copy_counts(self, touched: dict, place: str) -> dict:
        """The private copy of ``place``'s counts that this update edits."""
        counts = touched.get(place)
        if counts is None:
            rec = self._places.get(place)
            counts = touched[place] = dict(rec[0]) if rec is not None else {}
        return counts

    def _derive(self, touched: dict) -> "Marking":
        """A new marking that shares every untouched place with ``self``."""
        if not touched:
            return self
        places = dict(self._places)
        reorder = False
        for place, counts in touched.items():
            if counts:
                reorder = reorder or place not in places
                places[place] = _place_record(place, counts)
            elif places.pop(place, None) is not None:
                reorder = True
        out = Marking.__new__(Marking)
        out._set(places, tuple(sorted(places)) if reorder else self._order)
        return out

    # -- identity ----------------------------------------------------------
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Marking) and self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        chunks = []
        for place, bag in self._key:
            toks = ",".join(
                render_token(tok) if n == 1 else f"{n}`{render_token(tok)}" for tok, n in bag
            )
            chunks.append(f"{place}{{{toks}}}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Marking({self.render()})"


Marking.EMPTY = Marking({})
