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
come from :func:`dbnet.model.bind_transition`, and :func:`cpn_fire`
checks one with :func:`dbnet.model.binding_problem`.  The table is built
lazily, never in the constructor, so validation of a broken net reports
what it always did; it is rebuilt when the net's ``transitions`` tuple
is replaced.

:func:`cpn_build_lts` follows the *locality* principle of CPN simulators
(Mortensen, CPN Workshop 2001): a transition's bindings depend only on
the tokens of its own input and read places.  For the length of one
exploration it memoises, per transition and content of those places
(``Marking.records``: the interned record of each place, so no marking
is built and the key hashes by address), the transition's firings: each
binding's label and its per-place deltas ``(place, removed tokens, added
tokens)`` (:func:`dbnet.marking.place_deltas`).  A transition with fresh
variables is never memoised, as its fresh values avoid every value in
the marking.  The priority rule is applied after the memo.  A place's
next record depends only on its record and its delta, so firings step
through a table kept as long as the memo (``Marking.apply``), as source
firings do in :func:`dbnet.model.build_lts`: at shop 3x3 under
``bounded:2`` the kernel's 65,454 place updates are 2,659 distinct
``(record, delta)`` pairs, each computed once.  Equal deltas, and the
equal tokens in them, are one object each (2,509 deltas, whose 2,749
tokens have 147 distinct values).

Given a ``keep`` predicate, :func:`cpn_build_lts` explores the
*kernel* instead: the graph over the markings ``keep`` accepts, whose
edges are weak moves.  Expanding one of them runs a local search through
the interior markings it reaches, which computes its weak moves on the
fly, as on-the-fly equivalence checkers compute a state's silent
closure (Fernandez & Mounier, CAV 1991; Mateescu, FMICS 2005).  The
search also reports silent dead ends and silent cycles, and forgets its
interior markings when it ends, so none outlives it.  The certifier
keeps the stable markings, where the lock is home (shop 3x3 under
``bounded:2``: 1,213 stable states and 2,238 weak moves, where the full
graph has 22,683 states; the largest search visits 120 markings, and
the exploration makes 22,779 enabling scans against the full graph's
22,683, as a few interior markings are reached from more than one
stable state).  The searches of one exploration belong to one
:class:`LocalSearch`, which a caller can also run from roots of its own
choosing before the kernel is built; the kernel then replays those
searches, or goes on with one left half way, instead of searching
their roots again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Mapping, Optional

from .fo import Formula, TRUE
from .freshness import FreshPolicy
from . import lts
from .lts import EPS, Lts, _log_info, cycle_member, explore
from .marking import Marking, place_deltas
from .model import _marking_values, _walk_guard_vars, bind_transition, binding_problem
from .relational import ContractError, Value, Variable, ground, render_value

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
    "Kernel",
    "LocalSearch",
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
    later_inputs: frozenset  # input places after the first, which the index keys on
    inputs_and_reads: tuple  # sorted places; its bindings depend on their tokens only
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
        later_inputs=frozenset(place for place, _ in t.inputs[1:]),
        inputs_and_reads=tuple(sorted({place for place, _ in tuple(t.inputs) + tuple(t.reads)})),
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
        Only the marked places that some transition starts at are visited.
        Each entry sits under exactly one first input place, so the order
        they are visited in does not matter."""
        found = list(self.no_inputs)
        by_first_input = self.by_first_input
        marked = marking.marked()
        for place in marked & by_first_input.keys():
            for entry in by_first_input[place]:
                if marked >= entry.later_inputs:
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


def _prioritised(table: _NetTable, marking: Marking, pairs) -> list:
    """The items of ``pairs(entry)``, each led by its transition, over the
    candidate entries that the priority rule allows: those of the highest
    priority level that has any, in enabling order."""
    out: list = []
    level = None
    for entry in table.candidates(marking):
        if entry.level not in _PRIORITY_NAMES:
            continue
        if entry.level != level:
            if out:
                break
            level = entry.level
        out.extend(pairs(entry))
    return out


def cpn_enabled(net: NuCpn, marking: Marking, policy: Optional[FreshPolicy] = None) -> list:
    """All ``(transition, binding)`` pairs that may actually fire: the
    token- and guard-enabled bindings of the highest priority level that
    has any.  Lower levels are filtered globally, per the reference
    semantics of prioritized coloured nets."""
    policy = policy or net.default_policy

    def pairs(entry: _Entry) -> list:
        t = entry.transition
        return [(t, b) for b in _transition_bindings(net, marking, entry, policy)]

    return _prioritised(_transition_table(net), marking, pairs)


# ---------------------------------------------------------------------------
# Firing


def _firing(t: CpnTransition, theta: Mapping[str, Value]) -> tuple:
    """The firing of one binding as ``(removals, additions, label)``: what
    ``Marking.update`` takes away and adds, and the silent ``EPS`` or the
    transition's observable emission."""
    removals = tuple((place, ground(terms, theta)) for place, terms in t.inputs)
    additions = tuple((place, ground(terms, theta)) for place, terms in t.outputs)
    label = EPS
    if t.emit is not None:
        pairs = tuple((n, render_value(theta[n])) for n in t.emit.var_names)
        label = ("obs", t.emit.transition, pairs, t.emit.outcome)
    return removals, additions, label


def cpn_fire(net: NuCpn, marking: Marking, t: CpnTransition, theta: Mapping[str, Value],
             policy: Optional[FreshPolicy] = None):
    """Fire one binding; returns ``(marking', label)`` where the label is
    the silent ``EPS`` or the transition's observable emission.  The
    binding must come from :func:`cpn_enabled`: local enabledness *and*
    priority dominance are both rechecked here, and a refusal says why."""
    policy = policy or net.default_policy
    table = _transition_table(net)
    entry = table.by_name.get(t.name)
    if entry is None or entry.transition is not t:
        raise ContractError(f"transition {t.name}: not a transition of net {net.name}")
    if entry.problem is not None:
        raise ContractError(entry.problem)
    problem = binding_problem(net, marking, t, t.reads,
                              lambda place, row: marking.count(place, row) > 0, entry.external,
                              entry.fresh, partial(_marking_values, marking), theta)
    if problem is not None:
        raise ContractError(f"transition {t.name}: {problem}")
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
    return marking.apply(place_deltas(removals, additions), None), label


def _refuse_unbounded(policy: FreshPolicy) -> None:
    if not policy.finite_branching:
        raise ContractError(
            "state-space construction requires a finite freshness policy "
            "(recycling or bounded); got unbounded"
        )


def _firings(net: NuCpn, policy: FreshPolicy) -> Callable:
    """``enabled(marking)``: the firings that the priority rule allows at
    ``marking``, each as ``(transition, deltas, label)``, memoised per
    transition and content of its places for as long as ``enabled``
    lives (see the module docstring)."""
    table = _transition_table(net)
    # (entry rank, its places' records) -> its (transition, deltas, label)
    # firings; each token and delta -> the first equal one built
    memo: dict = {}
    tokens: dict = {}
    deltas: dict = {}

    def shared(arcs: tuple) -> list:
        return [(place, tokens.setdefault(token, token)) for place, token in arcs]

    def firings(marking: Marking, entry: _Entry):
        key = None
        if not entry.fresh:  # fresh values avoid every value in the marking
            key = (entry.rank, marking.records(entry.inputs_and_reads))
            found = memo.get(key)
            if found is not None:
                return found
        t = entry.transition
        found = []
        for theta in _transition_bindings(net, marking, entry, policy):
            removals, additions, label = _firing(t, theta)
            firing = place_deltas(shared(removals), shared(additions))
            found.append((t, tuple(deltas.setdefault(d, d) for d in firing), label))
        if key is not None:
            memo[key] = found
        return found

    def enabled(marking: Marking) -> list:
        return _prioritised(table, marking, partial(firings, marking))

    return enabled


@dataclass
class Kernel(Lts):
    """The graph of stable markings that :func:`cpn_build_lts` explores
    under ``keep``: its edges are weak moves, and it reports what each
    local search met in the interior.  ``dead_ends`` and ``divergences``
    map the stable marking a search started from to its first silent
    dead end and to a marking on its silent cycle, each as ``(labels,
    marking)``: the labels of the firings from the root, and the marking
    itself; a search that met neither has no entry.  ``largest_search``
    counts the markings of the largest search and ``searched`` those of
    all searches so far, roots included."""

    dead_ends: dict = field(default_factory=dict)
    divergences: dict = field(default_factory=dict)
    largest_search: int = 0
    searched: int = 0


_TWO = ("two observables",)  # a route that is no weak move


class _Run:
    """One local search.  ``steps`` runs it, yielding its weak moves as
    ``(label, target)``; ``moves`` keeps each one yielded so far with
    the markings visited by then, ``size`` counts the markings visited
    so far, the root included, and ``dead_end`` and ``cycle`` are what
    it met (see :class:`Kernel`)."""

    __slots__ = ("root", "steps", "moves", "size", "dead_end", "cycle")

    def __init__(self, root: Marking):
        self.root = root
        self.steps = None
        self.moves = []
        self.size = 0
        self.dead_end = None
        self.cycle = None


class LocalSearch:
    """The local searches of one exploration of a translated net's
    kernel, the graph over the stable markings that ``keep`` accepts (see
    :func:`cpn_build_lts`).  All its searches fire through one locality
    memo and one table of next records.

    A search started with :meth:`start` before :meth:`kernel` runs is
    kept by its root, whether it ended or was left half way, and
    :meth:`kernel` takes it over instead of searching that root again:
    it replays the weak moves the search yielded, counting the markings
    visited by each as the search did, and then lets a search left half
    way go on.  Before :meth:`kernel` runs, a search that would pass
    ``max_states`` markings in all or follow more than ``max_depth``
    firings yields ``CUT`` and waits there; :meth:`kernel` checks it
    again against its own count.  A search is replayed only if the
    kernel's count leaves room for the markings it visited (its depth
    needs no check, as every search stops at the same ``max_depth``), so
    a replay is the search the kernel would run, up to where it was
    left: the same weak moves, the same markings searched after each,
    and the same dead end, cycle and size; a search that does not fit
    is run again from its root.  ``visited`` counts the markings that
    searches really visited."""

    CUT = ("cut",)  # what a search that would pass the limits yields before `kernel` runs

    def __init__(self, net: NuCpn, policy: Optional[FreshPolicy], keep: Callable[[Marking], bool],
                 *, max_states: Optional[int] = None, max_depth: Optional[int] = None):
        self.net = net
        policy = policy or net.default_policy
        _refuse_unbounded(policy)
        self.keep = keep
        self.enabled = _firings(net, policy)
        self.nexts: dict = {}  # (record or None, delta) -> next record or None
        self.max_states = max_states
        self.max_depth = max_depth
        self.graph = Kernel()  # what the searches count into: a scratch graph until `kernel`
        self.runs: Optional[dict] = {}  # root -> its run, until `kernel` takes them over
        self.visited = 0
        self.started = time.perf_counter()

    def start(self, root: Marking) -> _Run:
        """A new search from ``root``; iterate its ``steps`` to run it."""
        run = _Run(root)
        run.steps = self._steps(run)
        if self.runs is not None:
            self.runs[root] = run
        return run

    def _visit(self, size: int) -> None:
        """Count one more marking; ``size`` is its search's so far."""
        self.graph.searched += 1
        self.visited += 1
        if not self.visited % lts.PROGRESS_EVERY:
            _log_info(__name__, "kernel: %d markings visited, largest search %d, %.1f s",
                      self.visited, max(self.graph.largest_search, size),
                      time.perf_counter() - self.started)

    def _steps(self, run: _Run):
        """The search of ``run``: the weak moves out of its root;
        ``(None, target)`` for a stable target reached only across two
        observables."""
        root, keep, enabled, nexts = run.root, self.keep, self.enabled, self.nexts
        max_states, max_depth = self.max_states, self.max_depth
        # A node is (marking, weak label so far): eps, the one observable
        # passed, or _TWO; it is numbered by its position in `queue`,
        # whose length is `run.size` whenever the search stops or waits.
        number = {(root, EPS): 0}
        queue = [(root, EPS)]
        run.size = 1
        self._visit(1)
        parent = [None]  # node -> (its parent node, the firing's label)
        depth = [0]  # node -> firings from the root
        silent = []  # node -> the interior nodes one silent firing away

        def labels(i: int) -> tuple:
            out = []
            while parent[i] is not None:
                i, label = parent[i]
                out.append(label)
            return tuple(reversed(out))

        for i, (marking, weak) in enumerate(queue):  # the queue grows while it is read
            here = enabled(marking)
            if not here and i and run.dead_end is None:
                run.dead_end = (labels(i), marking)
            succ = []
            silent.append(succ)
            for _, firing, label in here:
                after = marking.apply(firing, nexts)
                now = weak if label == EPS else label if weak == EPS else _TWO
                if keep(after):
                    if now != EPS or after != root:  # eps_targets holds the root already
                        move = (None if now is _TWO else now), after
                        run.size = len(queue)
                        run.moves.append((*move, run.size))
                        yield move
                    continue
                node = (after, now)
                j = number.get(node)
                if j is None:
                    while depth[i] == max_depth or (max_states is not None
                                                    and self.graph.searched >= max_states):
                        run.size = len(queue)
                        if self.runs is None:  # in the kernel: the search is cut
                            self.graph.truncated = True
                            return
                        yield self.CUT
                    j = number[node] = len(queue)
                    queue.append(node)
                    self._visit(j + 1)
                    parent.append((i, label))
                    depth.append(depth[i] + 1)
                if label == EPS:
                    succ.append(j)
        run.size = len(queue)
        on_cycle = cycle_member(silent)
        if on_cycle is not None:
            run.cycle = (labels(on_cycle), queue[on_cycle][0])

    def kernel(self, stop=None) -> Kernel:
        """Explore the kernel, breadth-first, and return it (see
        :func:`cpn_build_lts`); ``stop`` is :func:`dbnet.lts.explore`'s
        hook on the kernel so far."""
        kernel = self.graph = Kernel()
        runs, self.runs = self.runs, None

        def step(root: Marking):
            base = kernel.searched
            run = runs.pop(root, None)
            if run is None or (self.max_states is not None and run.size > 1
                               and base + run.size - 1 >= self.max_states):
                run = self.start(root)  # new, or its replay would pass the budget
            size = 0  # the markings searched so far, while a replay lasts
            try:
                for label, target, size in run.moves:  # nothing runs the search meanwhile
                    kernel.searched = base + size
                    yield label, target
                kernel.searched = base + run.size
                size = None
                yield from run.steps  # the rest of a search left half way
            finally:  # also when `stop` ends the exploration, or the search is cut
                size = run.size if size is None else size
                kernel.largest_search = max(kernel.largest_search, size)
                if run.dead_end is not None:
                    kernel.dead_ends[root] = run.dead_end
                if run.cycle is not None:
                    kernel.divergences[root] = run.cycle

        return explore(self.net.initial_marking, step, max_states=self.max_states,
                       max_depth=self.max_depth, stop=stop, graph=kernel)


def cpn_build_lts(
    net: NuCpn,
    policy: Optional[FreshPolicy] = None,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    stop=None,
    keep: Optional[Callable[[Marking], bool]] = None,
    searches: Optional[LocalSearch] = None,
) -> Lts:
    """Reachability graph over markings.  Silent transitions produce
    ``eps`` edges; emitting transitions produce observable edges.  Refuses
    unbounded freshness for the same reason the source layer does.

    Given ``keep``, the result is the :class:`Kernel` instead: the graph
    over the markings ``keep`` accepts, the stable ones, explored
    breadth-first (:meth:`LocalSearch.kernel`).  Expanding a stable
    marking runs a local search
    through the interior markings it reaches, breadth-first as well; the
    search stops at each stable marking and yields one edge per weak
    move ``(label, stable target)``, where the route passes at most one
    observable and ``label`` is that observable or ``eps``; a silent
    move back to the marking itself gets no edge, as the checker's
    ``eps_targets`` hold each state already.  A stable marking reached
    only across two observables gets no edge, but is explored all the
    same, after every state that weak moves reach
    (:func:`dbnet.lts.explore`).  The search's visited set is dropped
    when it ends, so no interior marking outlives it; the locality memo,
    and the one table of next records that both graphs fire through,
    outlive it until this call returns.  Each search also reports, for
    its root, its first silent dead end (an interior marking without
    firings) and a silent cycle (interior markings that silent firings
    lead around), which are the states the full graph's convergence
    conditions look at; a search that is cut reports no cycle.  ``stop``
    applies to the kernel only, as :func:`dbnet.lts.explore`'s hook on
    the kernel so far: it is called after each weak move that the search
    of a stable marking yields, and once that search has ended, so that
    the caller can test the marking at once, with its weak moves and its
    report.
    ``max_states`` caps the stable states and ``max_depth`` the weak moves
    from the initial one.  The searches share one budget of ``max_states``
    markings, so the work of the whole exploration stays within it: a
    marking counts once per search that visits it and per observable it
    is reached with, and a search's root counts too.  A search that would
    go past the budget, or follow more than ``max_depth`` firings, is cut,
    keeps the edges it yielded, and marks the graph truncated.  Under
    ``DBNET_LOG=info`` the kernel logs one line each time its searches
    have visited another ``lts.PROGRESS_EVERY`` markings: the markings
    visited, the largest search so far and the seconds since it started.

    ``searches``, if given, is the :class:`LocalSearch` of ``net`` to
    explore the kernel with, in place of ``policy``, ``keep`` and the
    limits it was made with: it takes over the searches started on it."""
    if keep is not None and searches is None:
        searches = LocalSearch(net, policy, keep, max_states=max_states, max_depth=max_depth)
    if searches is not None:
        return searches.kernel(stop)
    policy = policy or net.default_policy
    _refuse_unbounded(policy)
    enabled = _firings(net, policy)
    nexts: dict = {}  # (record or None, delta) -> next record or None

    def step(marking: Marking):
        return [(label, marking.apply(firing, nexts)) for _, firing, label in enabled(marking)]

    return explore(net.initial_marking, step, max_states=max_states, max_depth=max_depth)
