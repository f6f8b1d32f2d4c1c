"""Coloured Petri nets with priorities, read arcs and name creation.

This is the target formalism of the translation: a plain token game with
three extensions.

* **Priorities** with global filtering: a binding may fire only if no
  strictly higher-priority binding is enabled anywhere in the net.
* **Read arcs** test for presence without consuming; two read arcs of the
  same transition may rely on the same token (needed for self-joins).
  Input arcs, by contrast, demand multiset inclusion.
* **Fresh variables** bind to values not occurring anywhere in the
  current marking; **external variables** (otherwise unbound, non-fresh)
  draw from per-type sample domains, as in the source formalism.

Transitions are silent by default.  A transition constructed with an
``emit`` descriptor produces an observable label from its binding, which
is how the translated commit/rollback steps surface the original firing.

Each transition is analysed once per net, not once per call.  The first
enabling query on a net builds its transition table
(``_transition_table``): every transition's variable scope, input places
and priority level, and an index from first input place to the
transitions that start there.
:func:`cpn_enabled` looks up only the places a marking actually holds
tokens on, so a transition with an empty input place is never visited;
:func:`cpn_fire` finds the fired transition's entry by name.  Bindings
come from :func:`dbnet.model.bind_transition`.  The table is built
lazily, never in the constructor, so validation of a broken net reports
what it always did; it is rebuilt when the net's ``transitions`` tuple
is replaced.

:func:`cpn_build_lts` follows the *locality* principle of CPN simulators
(Mortensen, CPN Workshop 2001): a transition's bindings depend only on
the tokens of its own input and read places.  For the length of one
exploration it memoises, per transition and content of those places
(``Marking.restrict``, which hashes no token), the transition's
firings: the tokens each binding removes, the tokens it adds and its
label, so that firing is a single ``Marking.update``.  A transition with
fresh variables is never memoised, as its fresh values avoid every value
in the marking.  The priority rule is applied after the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Mapping, Optional

from .fo import Formula, TRUE
from .freshness import FreshPolicy
from .lts import EPS, Lts, explore
from .marking import Marking
from .model import _marking_values, _walk_guard_vars, bind_transition, eval_guard
from .relational import ContractError, Value, Variable, render_value

__all__ = [
    "P_LOW",
    "P_NORMAL",
    "P_HIGH",
    "CpnPlace",
    "Emit",
    "CpnTransition",
    "NuCpn",
    "cpn_validate",
    "cpn_enabled",
    "cpn_fire",
    "cpn_build_lts",
]

P_LOW = 0
P_NORMAL = 1
P_HIGH = 2
_PRIORITY_NAMES = {P_LOW: "low", P_NORMAL: "normal", P_HIGH: "high"}


@dataclass(frozen=True)
class CpnPlace:
    name: str
    column_types: tuple  # tuple of type names


@dataclass(frozen=True)
class Emit:
    """Recipe for an observable label: report ``transition`` with
    ``outcome``, exposing the binding restricted to ``var_names`` (a
    canonically ordered tuple)."""

    transition: str
    outcome: str
    var_names: tuple


@dataclass(frozen=True)
class CpnTransition:
    name: str
    inputs: tuple = ()  # (place name, tuple of Term); constants permitted
    reads: tuple = ()  # (place name, tuple of Term)
    guard: Formula = TRUE
    outputs: tuple = ()  # (place name, tuple of Term)
    priority: int = P_NORMAL
    emit: Optional[Emit] = None


@dataclass
class NuCpn:
    name: str
    types: dict  # type name -> DataType
    places: dict  # name -> CpnPlace
    transitions: tuple
    initial_marking: Marking
    samples: dict = field(default_factory=dict)
    default_policy: FreshPolicy = field(default_factory=FreshPolicy)
    # Optional bookkeeping set by the translator: place name -> role.
    place_classes: dict = field(default_factory=dict)
    # The transition table, built on first use by ``_transition_table``.
    _table: Optional["_NetTable"] = field(default=None, init=False, repr=False, compare=False)

    def transition(self, name: str) -> CpnTransition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise ContractError(f"no transition named {name!r}")


# ---------------------------------------------------------------------------
# Scoping and validation


def _cpn_scope(t: CpnTransition):
    """The (bound, fresh, external) variable groups, each name -> Variable."""
    bound: dict = {}
    for _, terms in tuple(t.inputs) + tuple(t.reads):
        for term in terms:
            if isinstance(term, Variable):
                bound.setdefault(term.name, term)
    rest: dict = {}
    _walk_guard_vars(t.guard, rest)
    for _, terms in t.outputs:
        for term in terms:
            if isinstance(term, Variable):
                rest.setdefault(term.name, term)
    fresh: dict = {}
    external: dict = {}
    for name, v in rest.items():
        if name in bound:
            continue
        (fresh if v.fresh else external).setdefault(name, v)
    return bound, fresh, external


def cpn_validate(net: NuCpn) -> list:
    problems: list = []
    for place in net.places.values():
        for i, tn in enumerate(place.column_types):
            if tn not in net.types:
                problems.append(f"place {place.name}: column {i + 1} has unknown type {tn!r}")
    tnames = [t.name for t in net.transitions]
    if len(set(tnames)) != len(tnames):
        problems.append("duplicate transition name")
    for t in net.transitions:
        who = f"transition {t.name}"
        if t.priority not in _PRIORITY_NAMES:
            problems.append(f"{who}: unknown priority {t.priority!r}")
        for kind, arcs in (("input", t.inputs), ("read", t.reads), ("output", t.outputs)):
            for place, terms in arcs:
                if place not in net.places:
                    problems.append(f"{who}: {kind} arc to unknown place {place!r}")
                    continue
                cols = net.places[place].column_types
                if len(terms) != len(cols):
                    problems.append(f"{who}: {kind} inscription on {place} has wrong arity")
                    continue
                for i, term in enumerate(terms):
                    dt = term.dtype
                    if dt != cols[i]:
                        problems.append(
                            f"{who}: {kind} inscription on {place}, position {i + 1}: "
                            f"{dt} does not match {cols[i]}"
                        )
                    if kind != "output" and isinstance(term, Variable) and term.fresh:
                        problems.append(f"{who}: fresh variable {term.name} on a non-output arc")
        try:
            bound, fresh, external = _cpn_scope(t)
        except ContractError as e:
            problems.append(f"{who}: {e}")
            continue
        for name, v in external.items():
            if not net.samples.get(v.dtype):
                problems.append(
                    f"{who}: variable {name} is bound nowhere and type {v.dtype} has no sample domain"
                )
        if t.emit is not None:
            known = set(bound) | set(fresh) | set(external)
            for n in t.emit.var_names:
                if n not in known:
                    problems.append(f"{who}: emitted variable {n!r} not in scope")
    for place in net.initial_marking.places_marked():
        if place not in net.places:
            problems.append(f"initial marking on unknown place {place!r}")
            continue
        cols = net.places[place].column_types
        for tok, _ in net.initial_marking.tokens(place):
            if len(tok) != len(cols) or any(v.dtype != tn for v, tn in zip(tok, cols)):
                problems.append(f"initial marking: token {tok!r} does not fit place {place!r}")
    return problems


# ---------------------------------------------------------------------------
# Enabling


@dataclass(frozen=True, eq=False)
class _Entry:
    """One transition, analysed once per net."""

    transition: CpnTransition
    position: int  # in the net's transition order
    rank: int  # in the enabling order: highest priority level first, then position
    level: int  # its priority
    later_inputs: tuple  # input places after the first, which the index keys on
    local: frozenset  # input and read places: its bindings depend on their tokens only
    fresh: tuple  # fresh Variables, sorted by name
    external: tuple  # external Variables, sorted by name
    problem: Optional[str]  # why _cpn_scope rejects it, raised on first use


def _analyse(t: CpnTransition, position: int, rank: int) -> _Entry:
    try:
        _, fresh, external = _cpn_scope(t)
    except ContractError as e:
        fresh, external, problem = {}, {}, str(e)
    else:
        problem = None
    return _Entry(
        transition=t,
        position=position,
        rank=rank,
        level=t.priority,
        later_inputs=tuple(place for place, _ in t.inputs[1:]),
        local=frozenset(place for place, _ in tuple(t.inputs) + tuple(t.reads)),
        fresh=tuple(fresh[n] for n in sorted(fresh)),
        external=tuple(external[n] for n in sorted(external)),
        problem=problem,
    )


class _NetTable:
    """The per-net transition table: one ``_Entry`` per transition, held
    in an index from first input place to the entries that start there
    (transitions without inputs are kept apart) and by transition name."""

    def __init__(self, transitions: tuple):
        self.transitions = transitions  # the tuple this table describes
        ranked = sorted(range(len(transitions)), key=lambda i: -transitions[i].priority)
        self.by_first_input: dict = {}
        self.no_inputs: list = []
        self.by_name: dict = {}
        for rank, position in enumerate(ranked):
            t = transitions[position]
            entry = _analyse(t, position, rank)
            self.by_name.setdefault(t.name, entry)
            if t.inputs:
                self.by_first_input.setdefault(t.inputs[0][0], []).append(entry)
            else:
                self.no_inputs.append(entry)

    def candidates(self, marking: Marking) -> list:
        """Entries whose input places all hold tokens, in enabling order.
        Each entry sits under exactly one first input place, so the order
        the marked places are visited in does not matter."""
        found = list(self.no_inputs)
        for place in marking.marked():
            for entry in self.by_first_input.get(place, ()):
                if all(marking.tokens(p) for p in entry.later_inputs):
                    found.append(entry)
        found.sort(key=attrgetter("rank"))
        return found


def _transition_table(net: NuCpn) -> _NetTable:
    table = net._table
    if table is None or table.transitions is not net.transitions:
        table = net._table = _NetTable(net.transitions)
    return table


def _transition_bindings(net: NuCpn, marking: Marking, entry: _Entry, policy: FreshPolicy):
    """Bindings of one transition whose input places are all marked: read
    arcs read place tokens, and fresh values avoid only the marking."""
    if entry.problem is not None:
        raise ContractError(entry.problem)
    t = entry.transition
    return bind_transition(net, marking, t, t.reads, marking.tokens, entry.external, entry.fresh,
                           partial(_marking_values, marking), policy)


def _prioritised(table: _NetTable, marking: Marking, bindings) -> list:
    """``(transition, b)`` for every ``b`` in ``bindings(entry)`` that the
    priority rule allows: those of the highest priority level that has
    any, in enabling order."""
    out: list = []
    level = None
    for entry in table.candidates(marking):
        if entry.level not in _PRIORITY_NAMES:
            continue
        if entry.level != level:
            if out:
                break
            level = entry.level
        t = entry.transition
        out.extend((t, b) for b in bindings(entry))
    return out


def cpn_enabled(net: NuCpn, marking: Marking, policy: Optional[FreshPolicy] = None) -> list:
    """All ``(transition, binding)`` pairs that may actually fire: the
    token- and guard-enabled bindings of the highest priority level that
    has any.  Lower levels are filtered globally, per the reference
    semantics of prioritized coloured nets."""
    policy = policy or net.default_policy
    return _prioritised(_transition_table(net), marking,
                        partial(_transition_bindings, net, marking, policy=policy))


# ---------------------------------------------------------------------------
# Firing


def _instantiate(terms, theta: Mapping[str, Value]):
    return tuple(theta[x.name] if isinstance(x, Variable) else x for x in terms)


def _firing(t: CpnTransition, theta: Mapping[str, Value]) -> tuple:
    """The firing of one binding as ``(removals, additions, label)``: what
    ``Marking.update`` takes away and adds, and the silent ``EPS`` or the
    transition's observable emission."""
    removals = tuple((place, _instantiate(terms, theta)) for place, terms in t.inputs)
    additions = tuple((place, _instantiate(terms, theta)) for place, terms in t.outputs)
    label = EPS
    if t.emit is not None:
        pairs = tuple((n, render_value(theta[n])) for n in t.emit.var_names)
        label = ("obs", t.emit.transition, pairs, t.emit.outcome)
    return removals, additions, label


def _locally_enabled(net: NuCpn, marking: Marking, entry: _Entry, theta) -> bool:
    t = entry.transition
    demands = [(place, _instantiate(terms, theta)) for place, terms in t.inputs]
    if not marking.covers(demands):
        return False
    for place, terms in t.reads:
        if marking.count(place, _instantiate(terms, theta)) < 1:
            return False
    if entry.problem is not None:
        raise ContractError(entry.problem)
    for var in entry.external:
        if theta[var.name] not in net.samples.get(var.dtype, ()):
            return False
    picked: set = set()
    for var in entry.fresh:
        v = theta[var.name]
        if any(u == v for u in marking.all_values()) or v in picked:
            return False
        picked.add(v)
    return eval_guard(t.guard, theta)


def cpn_fire(net: NuCpn, marking: Marking, t: CpnTransition, theta: Mapping[str, Value],
             policy: Optional[FreshPolicy] = None):
    """Fire one binding; returns ``(marking', label)`` where the label is
    the silent ``EPS`` or the transition's observable emission.  The
    binding must come from :func:`cpn_enabled`: local enabledness *and*
    priority dominance are both rechecked here."""
    policy = policy or net.default_policy
    table = _transition_table(net)
    entry = table.by_name.get(t.name)
    if entry is None or entry.transition is not t:
        raise ContractError(f"transition {t.name}: not a transition of net {net.name}")
    if not _locally_enabled(net, marking, entry, theta):
        raise ContractError(f"transition {t.name}: binding not enabled")
    higher = [
        e for e in table.candidates(marking)
        if e.level > t.priority and e.level in _PRIORITY_NAMES  # unknown levels never fire
    ]
    for entry in sorted(higher, key=attrgetter("position")):
        if _transition_bindings(net, marking, entry, policy):
            raise ContractError(
                f"transition {t.name}: blocked by higher-priority {entry.transition.name}"
            )
    removals, additions, label = _firing(t, theta)
    return marking.update(removals, additions), label


def cpn_build_lts(
    net: NuCpn,
    policy: Optional[FreshPolicy] = None,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Lts:
    """Reachability graph over markings.  Silent transitions produce
    ``eps`` edges; emitting transitions produce observable edges.  Refuses
    unbounded freshness for the same reason the source layer does."""
    policy = policy or net.default_policy
    if not policy.finite_branching:
        raise ContractError(
            "state-space construction requires a finite freshness policy "
            "(recycling or bounded); got unbounded"
        )

    table = _transition_table(net)
    # (entry rank, tokens on the entry's own places) -> its firings, for
    # this exploration only
    memo: dict = {}

    def firings(marking: Marking, entry: _Entry):
        key = None
        if not entry.fresh:  # fresh values avoid every value in the marking
            key = (entry.rank, marking.restrict(entry.local))
            found = memo.get(key)
            if found is not None:
                return found
        t = entry.transition
        found = [_firing(t, theta) for theta in _transition_bindings(net, marking, entry, policy)]
        if key is not None:
            memo[key] = found
        return found

    def step(marking: Marking):
        enabled = _prioritised(table, marking, partial(firings, marking))
        return [
            (label, marking.update(removals, additions))
            for _, (removals, additions, label) in enabled
        ]

    return explore(net.initial_marking, step, max_states=max_states, max_depth=max_depth)
