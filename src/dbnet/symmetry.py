"""Interchangeable data values: the block swaps of a net's initial state.

Both net layers compare data values for equality only, unless a guard
or a query filter orders them, so renaming values that no net text
mentions maps runs onto runs (scalarsets: Ip & Dill, FMSD 9, 1996;
carried over to coloured nets by Jensen, FMSD 9, 1996).  The renamings
used here are derived from the initial state, never declared.

A value is *movable* if it occurs in the initial snapshot (a fact of
the initial instance or a token of the initial marking) and is none of
these: a constant of the source net text or of the translated net text
(arcs, guards, queries, actions, constraints and domain sets, ``null``
included), a sample of the policy, or a value of a type that some guard
or query filter compares with ``<``, ``<=``, ``>`` or ``>=``.  A *block*
is a connected component of movable values, two values being connected
when they occur in one initial fact or token: in the shop, a user is
the block ``(1, "card1")`` and a product the block ``("p1", 101, 1.5)``.
A block's *shape* is its facts and tokens with its own values numbered
in a canonical order and every other value kept.  :func:`block_swaps`
gives, for each run of blocks of one shape, the swap of each block with
the next, and keeps a swap only if it maps the initial instance, the
initial marking and the translated net's initial marking onto
themselves, and maps values of each type's fresh stream
(:func:`dbnet.freshness.stream_value`) to stream values only.  Shop u×p
has (u−1)+(p−1) of them; every other corpus net has none.

Fresh values break the argument unless they never pick a moved value:
:class:`FreshGuard` checks that at each question a policy answers (see
the Symmetry section of :mod:`dbnet.bisim`).
"""

from __future__ import annotations

from .fo import And, Compare, Not, Or
from .freshness import FreshPolicy, stream_value
from .relational import Value, render_value

__all__ = ["FreshGuard", "block_swaps"]

_ORDER_OPS = ("<", "<=", ">", ">=")


def _net_constants(model, net) -> tuple:
    """``(values, ordered)``: the values that the text of ``model`` and of
    its translated net ``net`` mention, and the types of the terms that
    their order comparisons read."""
    values: set = set()
    ordered: set = set()

    def terms(arcs) -> None:  # arcs: (place, relation or action name, its terms)
        values.update(x for _, row in arcs for x in row if isinstance(x, Value))

    def formula(f) -> None:
        if isinstance(f, Compare):
            values.update(x for x in (f.left, f.right) if isinstance(x, Value))
            if f.op in _ORDER_OPS:
                ordered.update((f.left.dtype, f.right.dtype))
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                formula(part)
        elif isinstance(f, Not):
            formula(f.sub)

    for t in model.transitions:
        terms(t.inputs + t.views + t.outputs + t.rollbacks + ((t.action,) if t.action else ()))
        formula(t.guard)
    for query in model.queries.values():
        for conjunct in query.disjuncts:
            terms((atom.relation, atom.terms) for atom in conjunct.atoms)
            for f in conjunct.filters:
                formula(f)
    for action in model.actions.values():
        terms(action.adds + action.dels)
    for constraint in model.schema.constraints:
        values.update(getattr(constraint, "allowed", ()))
    values.update([x for t in net.transitions for arcs in (t.inputs, t.reads, t.outputs)
                   for _, row in arcs for x in row if isinstance(x, Value)])
    for t in net.transitions:
        formula(t.guard)
    for samples in (*model.samples.values(), *net.samples.values()):
        values.update(samples)
    return values, ordered


def _in_stream(dtype, value: Value) -> bool:
    """Whether ``value`` lies in the fresh stream of its type ``dtype``."""
    payload = value.payload
    if isinstance(payload, str):
        index = payload[1:] if payload[:1] == "v" else ""
        index = int(index) if index.isascii() and index.isdigit() else 0
    elif payload is None or payload != int(payload):
        return False
    else:
        index = int(payload)
    return index >= 1 and stream_value(dtype, index) == value


def _shape(items: list, block: set) -> tuple:
    """``(shape, values)`` of a block: its items in a canonical order,
    with its own values numbered by their first occurrence there, and
    those values in that order."""
    def key(item):
        kind, name, row, n = item
        kept = tuple((v in block, v.dtype, "" if v in block else render_value(v)) for v in row)
        return kind, name, kept, n, tuple(map(render_value, row))

    order: dict = {}
    shape = []
    for kind, name, row, n in sorted(items, key=key):
        for v in row:
            if v in block:
                order.setdefault(v, len(order))
        shape.append((kind, name, tuple(order[v] if v in block else v for v in row), n))
    return tuple(shape), list(order)


def block_swaps(model, translation) -> list:
    """The verified block swaps of ``model``'s initial state (see the
    module docstring), each as a dict that maps every moved value to its
    partner and back, in a fixed order."""
    constants, ordered = _net_constants(model, translation.net)
    instance, marking = model.initial_instance, model.initial_marking
    items = [("fact", rel, row, 1) for rel, rows in instance.facts.items() for row in rows]
    items += [("token", place, tok, n) for place in marking.places_marked()
              for tok, n in marking.tokens(place)]
    movable = {v for _, _, row, _ in items for v in row
               if v not in constants and v.dtype not in ordered}

    # connected components, by union-find over the values of each item
    parent = {v: v for v in movable}

    def root(v):
        while parent[v] is not v:
            parent[v] = v = parent[parent[v]]
        return v

    for _, _, row, _ in items:
        moved = [root(v) for v in row if v in movable]
        for v in moved[1:]:
            parent[root(v)] = root(moved[0])
    blocks: dict = {}  # each block's root -> its values
    for v in movable:
        blocks.setdefault(root(v), set()).add(v)
    items_of: dict = {}  # each block's root -> the items its values occur in
    for item in items:
        first = next((v for v in item[2] if v in movable), None)
        if first is not None:
            items_of.setdefault(root(first), []).append(item)
    by_shape: dict = {}
    for top, block in blocks.items():
        shape, values = _shape(items_of[top], block)
        by_shape.setdefault(shape, []).append(values)

    swaps = []
    for shape in sorted(by_shape, key=repr):
        runs = sorted(by_shape[shape], key=lambda values: [render_value(v) for v in values])
        for one, other in zip(runs, runs[1:]):
            swap = dict(zip(one, other))
            swap.update(zip(other, one))
            if _verified(swap, model, translation):
                swaps.append(swap)
    return swaps


def _verified(swap: dict, model, translation) -> bool:
    """Whether ``swap`` maps the initial instance, the initial marking and
    the translated net's initial marking onto themselves, and values of
    each fresh stream to values of that stream."""
    for v, w in swap.items():
        dtype = model.types[v.dtype]
        if _in_stream(dtype, v) != _in_stream(dtype, w):
            return False
    for rows in model.initial_instance.facts.values():
        if {tuple(swap.get(v, v) for v in row) for row in rows} != rows:
            return False
    return all(m.rename(swap, {}) == m
               for m in (model.initial_marking, translation.net.initial_marking))


class FreshGuard:
    """A fresh-value policy that answers as ``policy`` does, and checks
    every question ``candidates(dtype, used)``: each value in
    ``moved[dtype.name]`` (the moved values that lie in the type's
    stream) must be in ``used``.  ``tripped`` is the first value found
    outside ``used``, or None while every check has held."""

    def __init__(self, policy: FreshPolicy, moved: dict):
        self.policy = policy
        self.finite_branching = policy.finite_branching
        self.moved = moved
        self.tripped = None

    @staticmethod
    def for_swaps(policy: FreshPolicy, swaps: list, types: dict) -> "FreshGuard":
        """The guard of ``policy`` for the values that ``swaps`` move."""
        moved: dict = {}
        for v in sorted({v for swap in swaps for v in swap}, key=Value.sort_key):
            if _in_stream(types[v.dtype], v):
                moved.setdefault(v.dtype, []).append(v)
        return FreshGuard(policy, moved)

    def candidates(self, dtype, used: set) -> list:
        if self.tripped is None:
            for v in self.moved.get(dtype.name, ()):
                if v not in used:
                    self.tripped = v
                    break
        return self.policy.candidates(dtype, used)
