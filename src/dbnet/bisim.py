"""Weak-bisimulation checking between the two net layers.

The comparison works on labelled transition systems whose every state
comes with its *contents* and a stability flag.  The contents are a
marking of the translated net's visible places: the relation places,
which hold the database facts, and the original control places, nothing
else.  A source snapshot's contents is its image
(:func:`dbnet.translate.snapshot_image`); a translated marking's is its
``restrict`` to the visible places.  Two states have the same contents
exactly when these markings are equal, and as place records are
interned, that compares records by identity without touching a token.
Contents are rendered to text (``facts{...}|ctl{...}``, by
``_flat_of_marking``) only for the lines of a witness or trace.  For the
source layer every snapshot is stable; for the translated layer a state
is stable exactly when the lock token is at home, and the gadget-interior
states in between are silent.  ``flatten`` pairs each state of a graph
with its contents and stability flag, the checker's view of that side.

``check_weak_bisim`` decides weak bisimilarity over the stable states,
with two silent-run side conditions that make the notion sensitive to
broken gadget plumbing:

* every maximal silent run out of a stable state must be able to reach a
  stable state again (no silent dead-ends, no cycles that never pass
  through a stable state), and
* stable states are related only if their contents are equal.

Transfer goes over weak steps on both sides: a weak observable step is
``eps* ; label ; eps*`` landing on a stable state.  On silent-free inputs
this coincides with ordinary strong bisimulation with content equality.
Interior states never enter the relation themselves: their silent moves
are absorbed into the weak steps, and the convergence conditions above
keep that absorption honest.  A relation over interior states cannot
exist at all once a state enables two distinct observables — past the
guard stage a gadget can only finish its own firing, so an interior state
has no weak answer to the other observable; requiring convergence instead
keeps exactly the rejection power that such pairs would have provided.

The kernel (``certify_translation``): the translated net is explored
with ``cpn_build_lts``'s ``keep`` hook set to "the lock is home", so
only its stable states become states, and each edge is a weak move of
the checker's: ``eps*`` ending on a stable state, or ``eps* ; label ;
eps*`` (see :mod:`dbnet.cpn`).  The weak moves of the full graph are
chains of these, so on the kernel ``eps_targets`` and ``big_steps`` are
the full graph's, and the check there is the same check.  What the
kernel lacks are the interior states that the convergence conditions
look at; the local searches report the silent dead ends and silent
cycles there instead, and a stable state reached only across two
observables is searched too, though no weak move leads to it.  Shop 3x3
under ``bounded:2`` keeps 1,213 translated states, one per source state.

Early refusal (``certify_translation``): the source side is explored
first, and the contents of its states are collected.  The kernel is then
explored under a monitor, in the manner of on-the-fly equivalence
checking (Fernandez & Mounier, CAV 1991).  The monitor looks up the
contents of each new target of a weak move among the source contents,
and stops exploration at the first stable state that no source state
matches.  ``cpn_build_lts`` explores the states that chains of weak
moves reach from state 0 before any state reached only across two
observables, and consults the monitor only until then.  This is sound
by induction over the chain: the initial pair is related, and each weak
move must be answered, by any relation the checker accepts, with a
source state of equal contents.  So the foreign state would need a
related source state with its contents, and there is none.  A state
reached only across two observables is no target of a weak move (such
a state may even sit in bisimilar nets), and the monitor never refuses
on one.  A run that meets no such state goes through the full check
below; a refusal wins over a hit state cap.  A trace's ``via`` lines
name the weak moves of the chain, each by its observable or ``eps``,
and after them, for a silent dead end or cycle, the firings of the
local search that met it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional

from .cpn import cpn_build_lts
from .lts import EPS, Lts, _log_info, cycle_member, format_label
from .marking import Marking
from .model import DbNet, build_lts
from .freshness import FreshPolicy
from .relational import ContractError, render_fact
from .translate import TranslationOutput, snapshot_image, translate

__all__ = [
    "BISIMILAR",
    "NOT_BISIMILAR",
    "WeakBisimResult",
    "TruncatedError",
    "check_weak_bisim",
    "verify_relation",
    "certify_translation",
]

BISIMILAR = "bisimilar"
NOT_BISIMILAR = "not-bisimilar"


class TruncatedError(ContractError):
    """An input to the check is truncated, so no verdict can be given."""


@dataclass
class WeakBisimResult:
    verdict: str
    witness: Optional[dict] = None
    relation: Optional[tuple] = None  # related (state1, state2) pairs
    trace: tuple = ()  # counterexample lines, empty on success
    stats: dict = field(default_factory=dict)

    @property
    def bisimilar(self) -> bool:
        return self.verdict == BISIMILAR


def _flat_of_marking(contents: Marking, classes: Mapping, relation_names: Mapping) -> str:
    """The text of ``contents`` for a witness or trace line,
    ``facts{...}|ctl{...}``: each fact on a relation place and each token
    on an original-control place, once per copy (so duplicated relation
    tokens are visible), each part sorted.  Given a whole translated
    marking, it leaves the lock and the gadget-interior places out."""
    facts, control = [], []
    for place in contents.places_marked():
        cls = classes.get(place)
        if cls == "relation":
            name, lines = relation_names[place], facts
        elif cls == "original-control":
            name, lines = place, control
        else:
            continue
        for token, n in contents.tokens(place):
            lines += [render_fact(name, token)] * n
    return "facts{" + ";".join(sorted(facts)) + "}|ctl{" + ";".join(sorted(control)) + "}"


def _visible_and_render(translation) -> tuple:
    """``(visible, render)`` for a translation: its visible places, the
    relation and original-control places, whose ``restrict`` of a
    translated marking is that marking's contents, and the renderer of
    contents."""
    classes = translation.place_classes
    visible = frozenset(p for p, c in classes.items() if c in ("relation", "original-control"))
    names = {p: r for r, p in translation.relation_places.items()}
    return visible, partial(_flat_of_marking, classes=classes, relation_names=names)


def _is_stable(lock: str, marking: Marking) -> bool:
    """A translated state is stable iff the lock place is marked."""
    return lock in marking.marked()


def flatten(lts: Lts, *, contents: Callable, lock: Optional[str]) -> list:
    """The checker's view of ``lts``: each state's ``(contents, stable)``
    pair, in state order, where ``contents`` maps a state to its
    contents.  A translated state is stable iff ``lock`` is marked; with
    ``lock`` None every state is stable, as on the source side."""
    if lock is None:
        return [(contents(s), True) for s in lts.states]
    return [(contents(m), _is_stable(lock, m)) for m in lts.states]


# ---------------------------------------------------------------------------
# Silent-run analysis: convergence and weak steps over the stable kernel


class _Side:
    """One LTS over its state numbers (state ``i`` is ``lts.states[i]``),
    with ``view``, each state's ``(contents, stable)`` pair.  Contents
    are only compared with ``==``; ``text`` renders one with ``render``
    when a line that names it is built.  Every per-state table is a list
    indexed by the state number: ``contents``, ``stable``,
    ``out_degree``, ``eps_succ`` (silent successors) and ``obs_succ``
    (``(label, successor)`` pairs).  Everything after construction works
    on these ints, so no state is hashed again."""

    def __init__(self, lts: Lts, tag: str, view: list, render: Callable):
        self.lts = lts
        self.tag = tag
        self.contents = [contents for contents, _ in view]
        self.stable = [bool(stable) for _, stable in view]
        self.render = render
        n = len(view)
        self.eps_succ = [[] for _ in range(n)]
        self.obs_succ = [[] for _ in range(n)]
        self.out_degree = [0] * n
        for src, label, dst in lts.edges:
            self.out_degree[src] += 1
            if label == EPS:
                self.eps_succ[src].append(dst)
            else:
                self.obs_succ[src].append((label, dst))
        self._reach = self._stable_reach()
        self._big = [None] * n

    def text(self, s: int) -> str:
        return self.render(self.contents[s])

    # -- convergence -------------------------------------------------------

    def silent_dead_end(self):
        for s, stable in enumerate(self.stable):
            if not stable and self.out_degree[s] == 0:
                return s
        return None

    def silent_divergence(self):
        """A state on a silent cycle that never passes a stable state."""
        stable = self.stable
        return cycle_member([
            [] if stable[s] else [d for d in succ if not stable[d]]
            for s, succ in enumerate(self.eps_succ)
        ])

    # -- weak steps --------------------------------------------------------

    def _stable_reach(self) -> list:
        """state -> frozenset of stable states reachable via silent steps
        (including itself when stable).  Iterative Tarjan over the silent
        edges; each strongly connected component shares one reach set, and
        a component with no stable member whose silent edges lead into a
        single other component shares that component's set."""
        eps_succ, stable = self.eps_succ, self.stable
        n = len(eps_succ)
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        on_stack = [False] * n
        stack = []
        reach_of_comp: list = []
        counter = 0

        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(eps_succ[root]))]
            while work:
                node, succs = work[-1]
                for nxt in succs:
                    if index[nxt] < 0:
                        index[nxt] = low[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack[nxt] = True
                        work.append((nxt, iter(eps_succ[nxt])))
                        break
                    if on_stack[nxt] and index[nxt] < low[node]:
                        low[node] = index[nxt]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                    if low[node] == index[node]:
                        # Tarjan emits components in reverse topological
                        # order: every silent successor's is finished.
                        cid = len(reach_of_comp)
                        members = []
                        while True:
                            x = stack.pop()
                            on_stack[x] = False
                            comp[x] = cid
                            members.append(x)
                            if x == node:
                                break
                        own = [x for x in members if stable[x]]
                        succ_comps = {comp[d] for x in members for d in eps_succ[x]}
                        succ_comps.discard(cid)
                        if not own and len(succ_comps) == 1:
                            reach = reach_of_comp[succ_comps.pop()]
                        else:
                            reach = frozenset(own).union(*[reach_of_comp[c] for c in succ_comps])
                        reach_of_comp.append(reach)
        return [reach_of_comp[c] for c in comp]

    def eps_targets(self, s: int) -> frozenset:
        return self._reach[s]

    def big_steps(self, s: int) -> dict:
        """label -> frozenset of stable states reachable as eps*;label;eps*."""
        hit = self._big[s]
        if hit is not None:
            return hit
        closure = set()
        queue = [s]
        while queue:
            x = queue.pop()
            if x in closure:
                continue
            closure.add(x)
            queue.extend(self.eps_succ[x])
        parts: dict = {}
        for x in closure:
            for label, y in self.obs_succ[x]:
                # _reach[y] already contains y itself when y is stable
                parts.setdefault(label, []).append(self._reach[y])
        frozen = {
            label: sets[0] if len(sets) == 1 else frozenset().union(*sets)
            for label, sets in parts.items()
        }
        self._big[s] = frozen
        return frozen


def _path_to(lts: Lts, target: int, stable) -> list:
    """Labels of a shortest path from state 0 to state ``target`` among
    the paths that pass at most one observable between consecutive stable
    states (``stable`` is state -> stability flag), that is chains of the
    checker's weak moves (``eps_targets`` and ``big_steps``)."""
    out = [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        out[src].append((label, dst))
    # A search node is (state, observables since the last stable state).
    parent = {(0, 0): None}
    queue = [(0, 0)]
    goal = None
    for node in queue:  # the queue grows while it is read: breadth first
        s, count = node
        if s == target:
            goal = node
            break
        for label, d in out[s]:
            c = count + (label != EPS)
            if c > 1:
                continue
            if stable[d]:
                c = 0
            if (d, c) not in parent:
                parent[(d, c)] = (node, label)
                queue.append((d, c))
    if goal is None:
        return []
    steps = []
    while parent[goal] is not None:
        goal, label = parent[goal]
        steps.append(format_label(label))
    steps.reverse()
    return steps


def _refuse_truncated(*ltss: Lts):
    """Raise on the first truncated LTS, the left side before the right."""
    for tag, l in zip(("left", "right"), ltss):
        if l.truncated:
            raise TruncatedError(
                f"{tag} LTS is truncated; the check needs the complete state space"
            )


def _state_failure(kind: str, what: str, tag: str, text: str, steps: list) -> WeakBisimResult:
    """A refusal that names one state of one side and a path to it."""
    return WeakBisimResult(
        NOT_BISIMILAR,
        witness={"kind": kind, "side": tag, "state": text},
        trace=tuple(
            [f"{what} on the {tag} side", f"state: {text}"] + [f"  via {step}" for step in steps]
        ),
    )


def _silent_failure(kind: str, what: str, side: _Side, s: int) -> WeakBisimResult:
    return _state_failure(kind, what, side.tag, side.text(s), _path_to(side.lts, s, side.stable))


def check_weak_bisim(l1: Lts, view1: list, l2: Lts, view2: list,
                     render: Callable) -> WeakBisimResult:
    """Decide weak bisimilarity of two finite LTSs, each with its view:
    each state's ``(contents, stable)`` pair, in state order.  Contents
    of the two sides are compared with ``==``, and ``render`` turns one
    into the text of a witness or trace line; nothing else is rendered.

    Precondition: neither input is truncated (raises
    :class:`TruncatedError` otherwise).  The verdict is symmetric in the
    two sides.  On success the result carries the relation over stable
    states, on failure a structured witness plus a counterexample trace
    from the initial pair to the mismatch.  Internally a pair is two
    state numbers (see :class:`_Side`), so pairs sort in discovery order.
    """
    _refuse_truncated(l1, l2)
    s1 = _Side(l1, "left", view1, render)
    s2 = _Side(l2, "right", view2, render)

    for side in (s1, s2):
        dead = side.silent_dead_end()
        if dead is not None:
            return _silent_failure("silent-dead-end", "silent dead-end", side, dead)
        div = side.silent_divergence()
        if div is not None:
            return _silent_failure("silent-divergence", "silent divergence", side, div)

    init = (0, 0)
    f1, f2 = s1.contents, s2.contents
    if f1[0] != f2[0]:
        left, right = s1.text(0), s2.text(0)
        return WeakBisimResult(
            NOT_BISIMILAR,
            witness={"kind": "content-mismatch", "left": left, "right": right},
            trace=("initial contents differ", f"left:  {left}", f"right: {right}"),
        )

    # Candidate pairs: product-reachable, content-compatible stable pairs.
    rel = {init}
    queue = [init]
    head = 0
    while head < len(queue):
        p, q = queue[head]
        head += 1
        b1, b2 = s1.big_steps(p), s2.big_steps(q)
        moves = [(t1, b2[label]) for label, t1 in b1.items() if label in b2]
        moves.append((s1.eps_targets(p), s2.eps_targets(q)))
        for t1, t2 in moves:
            for x in t1:
                for y in t2:
                    if f1[x] == f2[y] and (x, y) not in rel:
                        rel.add((x, y))
                        queue.append((x, y))

    # Drop each pair with a weak move that no related pair answers.
    removed: dict = {}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            for move in _weak_moves(s1, s2, *pair):
                if not any(a in rel for a in move[3]):
                    rel.discard(pair)
                    removed[pair] = (len(removed),) + move
                    changed = True
                    break

    if init in rel:
        states1, states2 = l1.states, l2.states
        relation = tuple((states1[x], states2[y]) for x, y in sorted(rel))
        return WeakBisimResult(BISIMILAR, relation=relation)

    # Reconstruct a blame chain: each removed pair names a weak move whose
    # answers were all removed before it, so following the earliest-removed
    # answer strictly descends and terminates.
    trace = []
    pair = init
    prefix = []
    while True:
        _order, side, label, target, answers = removed[pair]
        trace.extend(prefix)
        trace.append(f"pair: left={s1.text(pair[0])} right={s2.text(pair[1])}")
        trace.append(f"  {side} side moves [{format_label(label)}] but no answer survives")
        trace.append(f"  moving to: {(s1 if side == 'left' else s2).text(target)}")
        dead_answers = sorted(
            (removed[a][0], a) for a in answers if a in removed
        )
        if not dead_answers:
            trace.append("  no content-compatible weak answer exists at all")
            break
        pair = dead_answers[0][1]
        prefix = ["  descending into the best candidate answer:"]
    witness = {
        "kind": "unmatched-move",
        "side": removed[init][1],
        "label": format_label(removed[init][2]),
        "left": s1.text(0),
        "right": s2.text(0),
    }
    return WeakBisimResult(NOT_BISIMILAR, witness=witness, trace=tuple(trace))


def _weak_moves(s1: _Side, s2: _Side, p: int, q: int):
    """Every weak move of the pair ``(p, q)`` as ``(side, label, target,
    answers)``.  ``answers`` pairs ``target`` with each target of the
    other side's weak moves under the same label that has equal contents;
    the move is answered when one of them is related.  Moves come in
    blame order: labels by :func:`format_label`, then the silent move;
    per label the left targets, then the right ones, each sorted."""
    f1, f2 = s1.contents, s2.contents
    b1, b2 = s1.big_steps(p), s2.big_steps(q)
    moves = [
        (label, b1.get(label, frozenset()), b2.get(label, frozenset()))
        for label in sorted(set(b1) | set(b2), key=format_label)
    ]
    moves.append((EPS, s1.eps_targets(p), s2.eps_targets(q)))
    for label, t1, t2 in moves:
        for x in sorted(t1):
            yield "left", label, x, [(x, y) for y in t2 if f1[x] == f2[y]]
        for y in sorted(t2):
            yield "right", label, y, [(x, y) for x in t1 if f1[x] == f2[y]]


def verify_relation(l1: Lts, view1: list, l2: Lts, view2: list, render: Callable,
                    relation) -> list:
    """Re-check a claimed relation against the transfer conditions: related
    states have equal contents, every weak move of either state is
    answered by a weak move of the other into a related pair, and the
    initial pair is present.  The sides are given as to
    :func:`check_weak_bisim`.  Returns human-readable problems."""
    s1 = _Side(l1, "left", view1, render)
    s2 = _Side(l2, "right", view2, render)
    number1 = {s: i for i, s in enumerate(l1.states)}
    number2 = {s: i for i, s in enumerate(l2.states)}
    pairs = [(number1[p], number2[q]) for p, q in relation]
    rel = set(pairs)
    problems = []
    if (0, 0) not in rel:
        problems.append("relation does not contain the initial pair")
    for p, q in pairs:
        if s1.contents[p] != s2.contents[q]:
            problems.append(f"related pair differs in content: {s1.text(p)} vs {s2.text(q)}")
            continue
        for side, label, _target, answers in _weak_moves(s1, s2, p, q):
            if not any(a in rel for a in answers):
                move = "silent move" if label == EPS else f"move {format_label(label)}"
                text = s1.text(p) if side == "left" else s2.text(q)
                problems.append(f"unanswered {side} {move} from {text}")
    return problems


def _log_phase(phase: str, started: float, message: str, *args) -> float:
    """Log one phase's seconds since ``started`` and ``message``; returns
    the time now, where the next phase starts."""
    now = time.perf_counter()
    _log_info(__name__, "%s: %.3f s, " + message, phase, now - started, *args)
    return now


def _explore_target(translation, policy, known, visible, render, *, max_states, max_depth):
    """Explore the translated net as its kernel of stable states under the
    early-refusal monitor (see the module docstring).  ``known`` holds
    the source side's contents, and a marking's contents is its
    ``restrict`` to ``visible``.  Returns the kernel and, if the monitor
    stopped it, the refusal with a chain of weak moves to the foreign
    state; otherwise None.

    The monitor looks a stable state's contents up once, on the first
    weak move into it; ``cpn_build_lts`` consults it only while it
    explores the states that weak moves reach from the initial one.
    Only the foreign state is rendered."""
    found = []
    checked = 1  # states numbered below this are looked up; state 0 is the check's

    def stop(src, label, dst, marking):
        nonlocal checked
        if dst < checked:
            return False
        checked = dst + 1
        if marking.restrict(visible) in known:
            return False
        found.append(dst)
        return True

    kernel = cpn_build_lts(translation.net, policy, max_states=max_states, max_depth=max_depth,
                           stop=stop, keep=partial(_is_stable, translation.lock_place))
    if not found:
        return kernel, None
    state = found[0]
    text = render(kernel.states[state])
    _log_info(__name__, "refused at translated state %d: no source state has %s", state, text)
    return kernel, _state_failure(
        "foreign-state", "foreign stable state", "right", text, _kernel_path(kernel, state)
    )


def _kernel_path(kernel, state: int, labels: tuple = ()) -> list:
    """The ``via`` steps to a state of the kernel, followed by ``labels``;
    none if no chain of weak moves reaches it."""
    path = _path_to(kernel, state, [True] * kernel.state_count)
    if state and not path:
        return []
    return path + [format_label(label) for label in labels]


def _silent_refusal(kernel, render) -> Optional[WeakBisimResult]:
    """The refusal for the first silent dead end, or else the first silent
    cycle, that the kernel's local searches met; None if they met neither."""
    for kind, what, met in (("silent-dead-end", "silent dead-end", kernel.dead_end),
                            ("silent-divergence", "silent divergence", kernel.divergence)):
        if met is not None:
            root, labels, marking = met
            steps = _kernel_path(kernel, kernel.states.index(root), labels)
            return _state_failure(kind, what, "right", render(marking), steps)
    return None


def certify_translation(
    model: DbNet,
    policy: Optional[FreshPolicy] = None,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    translation: Optional[TranslationOutput] = None,
) -> WeakBisimResult:
    """Full pipeline: explore the source net and its translation under one
    shared fresh-value regime, and decide weak bisimilarity of the two
    by their states' contents (see the module docstring).

    The translated net is explored as its kernel of stable states under
    the early-refusal monitor (see the module docstring): at the first
    stable state that a chain of weak moves reaches and whose contents no
    source state has, the result is ``NOT_BISIMILAR`` with a
    ``"foreign-state"`` witness, and the partial kernel is not checked.
    Otherwise a silent dead end, then a silent cycle, that a local
    search met is refused, and the kernel goes to
    :func:`check_weak_bisim`.  ``stats`` counts the kernel's stable
    states (``translated-states``) and weak moves (``translated-edges``),
    up to the stop if there was one, and the markings of its largest
    local search (``largest-local-search``).  ``max_states`` caps the
    stable states and ``max_depth`` the weak moves from the initial
    one; once the local searches have visited ``max_states`` markings in
    all, or one would follow more than ``max_depth`` firings, the
    search is cut.

    ``translation`` may be supplied to certify a pre-built (for instance
    deliberately mutated) translation of the same model.  Unless the
    monitor refused, truncation in either exploration raises
    :class:`TruncatedError`, as the verdict would be meaningless; it is
    raised before the contents of the truncated side are built, and a
    truncated source exploration stops the run before the translated net
    is explored.

    Under ``DBNET_LOG=info`` each phase (source exploration, target
    exploration, check) logs one line with its seconds and states.
    """
    policy = policy or model.default_policy
    if translation is None:
        translation = translate(model)

    started = time.perf_counter()
    raw1 = build_lts(model, policy, max_states=max_states, max_depth=max_depth)
    _refuse_truncated(raw1)
    image = partial(snapshot_image, relation_places=translation.relation_places)
    view1 = flatten(raw1, contents=image, lock=None)
    started = _log_phase("source exploration", started, "%d states", raw1.state_count)
    visible, render = _visible_and_render(translation)
    kernel, result = _explore_target(translation, policy, {c for c, _ in view1}, visible, render,
                                     max_states=max_states, max_depth=max_depth)
    started = _log_phase(
        "target exploration", started, "%d stable states, %d weak moves, largest local search %d",
        kernel.state_count, kernel.edge_count, kernel.largest_search,
    )
    if result is None:
        _refuse_truncated(raw1, kernel)
        result = _silent_refusal(kernel, render)
        if result is None:
            view2 = flatten(kernel, contents=lambda m: m.restrict(visible),
                            lock=translation.lock_place)
            result = check_weak_bisim(raw1, view1, kernel, view2, render)
        _log_phase("check", started, "%d + %d states, %s",
                   raw1.state_count, kernel.state_count, result.verdict)
    result.stats = {
        "source-states": raw1.state_count,
        "source-edges": raw1.edge_count,
        "translated-states": kernel.state_count,
        "translated-edges": kernel.edge_count,
        "largest-local-search": kernel.largest_search,
    }
    return result
