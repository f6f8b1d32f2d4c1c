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
the full graph's.  What the kernel lacks are the interior states that
the convergence conditions look at; the local searches report the
silent dead ends and silent cycles there instead, and a stable state
reached only across two observables is searched too, though no weak
move leads to it.  Shop 3x3 under ``bounded:2`` keeps 1,213 translated
states, one per source state.

Early refusal (``certify_translation``): the source side is explored
first, and the contents of its states are collected.  The kernel is
then explored with a test of each stable state, run as soon as that
state's local search has ended, in the manner of on-the-fly
equivalence checking (Fernandez & Mounier, CAV 1991).  The first
failing stable state in exploration order ends the exploration and is
refused.  A state ``k`` is tested in this order: σ(0) = 0 if ``k`` is
0 (below); then the contents of each new target of ``k``'s weak moves
is looked up among the source contents, in edge order, and a stable
state that no source state matches is foreign; then the silent dead
end, and then the silent cycle, that ``k``'s search met; then the
local test of ``k`` (below), its right side before its left.  The
lookup runs as each weak move is recorded, before the search has
ended, so that a search that would run away is dropped at a foreign
target; the other tests need the whole search.  A foreign state is a
refusal by induction over the chain of weak moves to it: the initial
pair is related, and each weak move must be answered, by any relation
the checker accepts, with a source state of equal contents, so the
foreign state would need a related source state with its contents, and
there is none.  A state reached only across two observables is no
target of a weak move (such a state may even sit in bisimilar nets):
``cpn_build_lts`` explores it after every state that chains of weak
moves reach from state 0, and it is tested for a silent dead end and
cycle only.

A state is fully searched when no cut came before its search ended,
its own included.  Dead ends, cycles and unmatched moves are tested on
fully searched states only, so a refusal there is the one the uncapped
run gives, even when the cap is hit later.  A foreign target is refused
even past a cut, as its weak move is proof enough; a state that the cut
left untested might then have failed first, with another witness.  A
run that refuses nothing and was cut gives no verdict.  A trace's
``via`` lines name the weak moves of the chain, each by its observable
or ``eps``, and after them, for a silent dead end or cycle, the firings
of the local search that met it.

Certify by correspondence (``certify_translation``): the lookups give
σ, the source partner of each kernel state: the number of the source
state whose contents equal the state's, for state 0 and each state
that weak moves reach from it.  The premise is that no two source
states have the same contents, so that a kernel state can be related
to σ(k) only: a snapshot is its instance and its control marking, and
its image lays these out on disjoint places (:meth:`Marking.join`
refuses to do otherwise).  The local test checks σ one state at a
time, as a refinement mapping (Abadi & Lamport, TCS 1991) checked on
the fly:

* σ(0) = 0, and σ is defined on every state that weak moves reach;
* each weak move ``k -label-> k'`` is matched: ``label`` is ``eps`` and
  σ(k') = σ(k), or σ(k) has the source edge ``(label, σ(k'))``;
* each source edge ``(label, s')`` of σ(k) is answered by a weak move
  ``label`` to a state with partner ``s'`` out of ``k``'s silent
  closure: the states that silent moves to states with partner σ(k)
  reach from ``k``.

The test of ``k`` reads the edges of its whole silent closure.  If
``k`` has silent moves to other states with partner σ(k), it waits
until every state of the closure has been expanded, and runs after the
dead end and cycle test of the last of them, in number order with any
other state that this expansion completes.

The test is exact both ways.  A pass is a proof: the graph of σ is then
a weak bisimulation that relates the initial states, as σ(k) answers
the silent moves of a weak step of ``k`` by staying put and its
observable by the matching edge, and ``k`` answers each edge of σ(k)
through its closure (the source graph has observable edges only).  A
failure is a refusal: only σ(k') can be related to a kernel state
``k'``, so a relation that holds the initial pair holds ``(σ(k), k)``,
as each move on the chain of weak moves to ``k`` must be answered in
it.  An unmatched move of ``k`` has no answer there, and a weak step of
``k`` that answers an edge of σ(k) outside the closure passes a silent
move to another partner, which fails the test where it starts.  A pass
gives ``BISIMILAR`` with the graph of σ as the relation, in the order
of :func:`check_weak_bisim`.  A failing σ(0) = 0 is the refusal that
:func:`check_weak_bisim` gives; any other failure is an
``unmatched-move`` at ``k``, traced as the pair ``(σ(k), k)``, the
chain of weak moves to ``k`` and the move.
``check_weak_bisim`` never runs in certification: it is the reference
that the tests compare with.  As a reference it is kept plain: it
finds each silent closure and weak step by a search when it is asked,
keeps no table between questions, and compares contents with ``==``.

Symmetry (``_orbit_shortcut``): before the kernel is built, a shortcut
that can only say ``BISIMILAR`` searches the translated net from one
source state per orbit of a group of value renamings (scalarsets: Ip &
Dill, FMSD 9, 1996; Jensen, FMSD 9, 1996).  The group is generated by
the block swaps of :func:`dbnet.symmetry.block_swaps`, derived from the
initial state and verified on it, never declared; with none, the
kernel is built directly, as for every corpus net but the shop.

*Equivariance.*  Let π be a product of the swaps.  It fixes every
constant of both net texts and every sample, moves no value of a type
that is compared by order, and fixes the initial instance, the initial
marking and the translated initial marking.  Both layers compare the
values they bind for equality only, so π maps each binding, each
firing and each label of a state to those of its image, except for
fresh values.  A fresh value is the first, or the first k, values of
its type's stream outside ``used``; π maps stream values to stream
values.  Both explorations run with a :class:`~dbnet.symmetry.FreshGuard`
policy, which checks at each question that every moved stream value of
the type is in ``used``.  Where that holds, no candidate is a moved
value, and the candidates at π(x) are those at x, fixed by π.  So the
local search from ``π(image(s))`` plus the lock is the π-image of the
one from ``image(s)`` plus the lock, and the source edges of π(s) are
the π-images of those of s.

*The strict check.*  The source states are taken in the order in
which the kernel would meet their images: breadth-first from state 0,
the successors of a searched state in the order of its weak moves and
those of any other state in source edge order.  A state in the orbit of
a searched state is skipped; any other is searched from its image plus
the lock, and passes if every weak move is observable and ends exactly
on some ``image(s')`` plus the lock, the set of ``(label, s')`` is the
set of its source edges, and the search met no dead end, no cycle and
no cut.  A search is dropped at its first stable target that is no such
image, as the kernel drops a search at a foreign target.  After a pass,
the orbit is closed under the swaps by renaming contents record by
record (``Marking.rename``), and every image must be a source state.
If every search passes, the graph of ``s -> image(s)`` plus the lock is
the kernel that the exact path would build: by equivariance each state
of an orbit passes the check that its representative passed, so the
kernel's states are those images, one per source state, and its weak
moves are the source edges.  The result is then exactly the kernel's:
``BISIMILAR`` with the relation in source state order, as many
translated states and edges as source ones, and the largest search of
a representative.  This holds only if the exact run could not have been
cut: under ``max_states`` the searches, counted once per orbit member,
must stay below the cap, and a search that ``max_depth`` or the cap
would cut fails the strict check.  The translated net must also start
at the image of source state 0 plus the lock.

*Hand-over.*  If the fresh guard trips, an image is no source state,
the strict check fails at a state, or the cap could be reached, the
shortcut is off, and the kernel is built as above.  Both paths share one
:class:`~dbnet.cpn.LocalSearch`, and the kernel replays each search
that the shortcut began, or goes on with it, instead of searching that
root again, so refusals, witnesses, traces, caps and the markings
searched are the exact path's.  The shortcut never says
``NOT_BISIMILAR``; when it is off, the only work lost is its searches
of states that the kernel does not reach before it stops.  So without a
cap, a representative whose search never ends keeps the shortcut
searching, even where the kernel would have refused another state
first.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Optional

from .cpn import LocalSearch, cpn_build_lts
from .lts import EPS, Lts, _log_info, cycle_member, format_label
from .marking import Marking
from .model import DbNet, build_lts
from .freshness import FreshPolicy
from .relational import ContractError, render_fact, render_value
from .symmetry import FreshGuard, block_swaps
from .translate import TranslationOutput, facts_image, translate

__all__ = [
    "BISIMILAR",
    "NOT_BISIMILAR",
    "WeakBisimResult",
    "TruncatedError",
    "check_weak_bisim",
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
# The reference check: convergence and weak steps by plain searches


class _Side:
    """One LTS over its state numbers (state ``i`` is ``lts.states[i]``),
    with ``view``, each state's ``(contents, stable)`` pair.  Every
    per-state table is a list indexed by the state number: ``contents``,
    ``stable``, ``eps_succ`` (silent successors) and ``obs_succ``
    (``(label, successor)`` pairs); ``text`` renders a state's contents
    with ``render`` when a line that names it is built.  As the
    reference, it answers each question by a plain search when it is
    asked, and keeps no answer."""

    def __init__(self, lts: Lts, tag: str, view: list, render: Callable):
        self.lts = lts
        self.tag = tag
        self.contents = [contents for contents, _ in view]
        self.stable = [bool(stable) for _, stable in view]
        self.render = render
        self.eps_succ = [[] for _ in view]
        self.obs_succ = [[] for _ in view]
        for src, label, dst in lts.edges:
            if label == EPS:
                self.eps_succ[src].append(dst)
            else:
                self.obs_succ[src].append((label, dst))

    def text(self, s: int) -> str:
        return self.render(self.contents[s])

    # -- convergence -------------------------------------------------------

    def silent_dead_end(self):
        for s, stable in enumerate(self.stable):
            if not (stable or self.eps_succ[s] or self.obs_succ[s]):
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

    def _closure(self, s: int) -> set:
        """The states that silent moves reach from ``s``, ``s`` included."""
        seen, todo = {s}, [s]
        while todo:
            for d in self.eps_succ[todo.pop()]:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen

    def eps_targets(self, s: int) -> frozenset:
        """The stable states of ``s``'s silent closure."""
        return frozenset(x for x in self._closure(s) if self.stable[x])

    def big_steps(self, s: int) -> dict:
        """label -> set of stable states reachable as eps*;label;eps*."""
        steps: dict = {}
        for x in self._closure(s):
            for label, y in self.obs_succ[x]:
                steps.setdefault(label, set()).update(self.eps_targets(y))
        return steps


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


def _content_mismatch(left: str, right: str) -> WeakBisimResult:
    """The refusal for initial states whose contents' texts are ``left``
    and ``right``."""
    return WeakBisimResult(
        NOT_BISIMILAR,
        witness={"kind": "content-mismatch", "left": left, "right": right},
        trace=("initial contents differ", f"left:  {left}", f"right: {right}"),
    )


def _silent_failure(kind: str, what: str, side: _Side, s: int) -> WeakBisimResult:
    return _state_failure(kind, what, side.tag, side.text(s), _path_to(side.lts, s, side.stable))


def check_weak_bisim(l1: Lts, view1: list, l2: Lts, view2: list,
                     render: Callable) -> WeakBisimResult:
    """Decide weak bisimilarity of two finite LTSs, each with its view:
    each state's ``(contents, stable)`` pair, in state order.  Contents
    compare with ``==``, and ``render`` turns one into the text of a
    witness or trace line; nothing else is rendered.  This is the
    reference that ``certify_translation``'s local test is compared
    with: each weak step is found by a plain search when it is asked.

    Precondition: neither input is truncated (raises
    :class:`TruncatedError` otherwise).  The verdict is symmetric in the
    two sides.  On success the result carries the relation over stable
    states, on failure a structured witness plus a counterexample trace
    from the initial pair to the mismatch.  Internally a pair is two
    state numbers (see :class:`_Side`), so pairs sort in discovery order.
    """
    _refuse_truncated(l1, l2)
    s1, s2 = _Side(l1, "left", view1, render), _Side(l2, "right", view2, render)

    for side in (s1, s2):
        dead = side.silent_dead_end()
        if dead is not None:
            return _silent_failure("silent-dead-end", "silent dead-end", side, dead)
        div = side.silent_divergence()
        if div is not None:
            return _silent_failure("silent-divergence", "silent divergence", side, div)

    init = (0, 0)
    if s1.contents[0] != s2.contents[0]:
        return _content_mismatch(s1.text(0), s2.text(0))

    # Candidate pairs: the answers of the weak moves of the pairs that
    # answers reach from the initial one.
    rel = {init}
    queue = [init]
    for pair in queue:  # the queue grows while it is read
        for _side, _label, _target, answers in _weak_moves(s1, s2, *pair):
            for answer in answers:
                if answer not in rel:
                    rel.add(answer)
                    queue.append(answer)

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
    c1, c2 = s1.contents, s2.contents
    b1, b2 = s1.big_steps(p), s2.big_steps(q)
    moves = [
        (label, b1.get(label, ()), b2.get(label, ()))
        for label in sorted(set(b1) | set(b2), key=format_label)
    ]
    moves.append((EPS, s1.eps_targets(p), s2.eps_targets(q)))
    for label, t1, t2 in moves:
        for x in sorted(t1):
            yield "left", label, x, [(x, y) for y in t2 if c1[x] == c2[y]]
        for y in sorted(t2):
            yield "right", label, y, [(x, y) for x in t1 if c1[x] == c2[y]]


def _log_phase(phase: str, started: float, message: str, *args) -> float:
    """Log one phase's seconds since ``started`` and ``message``; returns
    the time now, where the next phase starts."""
    now = time.perf_counter()
    _log_info(__name__, "%s: %.3f s, " + message, phase, now - started, *args)
    return now


def _explore_target(translation, searcher, source, known, image):
    """Explore the translated net as its kernel of stable states, by the
    local searches of ``searcher``, and test each state as soon as its
    local search has ended, and each target of its weak moves as the
    search meets it (see the module docstring).
    ``source`` is the source graph, ``image`` gives a snapshot's contents
    and ``known`` maps the contents of each source state to its number.
    Returns the kernel, σ and the refusal at the first failing state, or
    None if none failed.  σ is a list indexed by kernel state: the source
    state with the same contents, or None if there is none, for state 0 and
    each state that weak moves reach from it.  Only the states a refusal
    prints are rendered."""
    net = translation.net
    visible, render = _visible_and_render(translation)
    sigma = [known.get(net.initial_marking.restrict(visible))]
    waiting: dict = {}  # a state -> the states whose test waits for its expansion
    first_edge = 0  # the first edge of the state under expansion
    refusal = []

    def refuse(kernel, state: int, why: str, result: WeakBisimResult) -> bool:
        """Keep ``result``, the refusal at kernel state ``state``, after one
        log line on it: the markings searched so far and ``why``."""
        _log_info(__name__, "refused at translated state %d, %d markings searched: %s",
                  state, kernel.searched, why)
        refusal.append(result)
        return True

    def stop(kernel, k: int, done: bool) -> bool:
        """Test state ``k`` after its newest edge, or once its search has
        ended (``done``), and then any state whose test waited for it;
        true at the first refusal."""
        nonlocal first_edge
        if k == 0 and sigma[0] != 0:
            return refuse(kernel, 0, f"initial contents differ (source partner {sigma[0]})",
                          _content_mismatch(render(image(source.states[0])),
                                            render(kernel.states[0])))
        covered = k < len(sigma)  # weak moves reach k from state 0
        if not done:
            dst = kernel.edges[-1][2]
            if covered and dst == len(sigma):  # states are numbered in the order they are met
                sigma.append(known.get(kernel.states[dst].restrict(visible)))
                if sigma[dst] is None:
                    text = render(kernel.states[dst])
                    return refuse(kernel, dst, f"no source state has {text}", _state_failure(
                        "foreign-state", "foreign stable state", "right", text,
                        _kernel_path(kernel, dst)))
            return False
        edges = kernel.edges[first_edge:]
        first_edge = len(kernel.edges)
        if kernel.truncated:  # k, or a state before it, is not fully searched
            return False
        root = kernel.states[k]
        for kind, what, met in (("silent-dead-end", "silent dead-end", kernel.dead_ends),
                                ("silent-divergence", "silent divergence", kernel.divergences)):
            if root in met:
                labels, marking = met[root]
                text = render(marking)
                return refuse(kernel, k, f"{what} at {text}", _state_failure(
                    kind, what, "right", text, _kernel_path(kernel, k, labels)))
        tests = sorted(waiting.pop(k, ()))  # each is before k
        if covered:
            tests.append(k)
        for c in tests:
            closure = _silent_closure(kernel, sigma, c, edges if c == k else _edges_of(kernel, c))
            if max(closure) > k:  # states after k are not expanded yet
                waiting.setdefault(max(closure), []).append(c)
                continue
            failed = _unmatched(source, sigma, c, closure)
            if failed is not None:
                return refuse(kernel, c, *_unmatched_refusal(source, kernel, sigma, c, failed,
                                                             image, render))
        return False

    kernel = cpn_build_lts(net, stop=stop, searches=searcher)
    return kernel, sigma, (refusal[0] if refusal else None)


def _edges_of(lts: Lts, state: int) -> list:
    """The edges out of ``state``, found by bisection: :func:`dbnet.lts.explore`
    expands states in number order and appends each one's edges as it
    expands it, so an edge list is sorted by source."""
    edges, source = lts.edges, itemgetter(0)
    return edges[bisect_left(edges, state, key=source):bisect_right(edges, state, key=source)]


def _silent_closure(kernel: Lts, sigma: list, k: int, edges: list) -> dict:
    """``k``'s silent closure, each state with its edges: ``k``, whose
    edges are ``edges``, and the states that silent moves to states with
    partner σ(k) reach from it.  A state not yet expanded has no edges
    yet, so the closure is complete once its largest state is expanded."""
    partner, closure, todo = sigma[k], {k: edges}, [k]
    while todo:
        for _x, label, dst in closure[todo.pop()]:
            if label == EPS and sigma[dst] == partner and dst not in closure:
                closure[dst] = _edges_of(kernel, dst)
                todo.append(dst)
    return closure


def _unmatched(source: Lts, sigma: list, k: int, closure: dict) -> Optional[tuple]:
    """The local test of kernel state ``k`` (see the module docstring),
    whose silent closure ``closure`` is expanded: None if it holds, else
    its first unmatched move as ``(side, label, target)``: one of ``k``'s
    to kernel state ``target`` ("right"), or else one of σ(k)'s edges to
    source state ``target`` ("left"), each in edge order.  The targets of
    the closure's edges have partners, as the closure is covered by σ."""
    partner = sigma[k]
    answers = _edges_of(source, partner)
    expected = {(label, dst) for _s, label, dst in answers}
    moves = set()
    for x, edges in closure.items():  # k's edges first
        for _x, label, dst in edges:
            move = (label, sigma[dst])
            if move in expected:
                moves.add(move)
            elif x == k and move != (EPS, partner):
                return "right", label, dst
    if len(moves) < len(expected):
        for _s, label, dst in answers:
            if (label, dst) not in moves:
                return "left", label, dst
    return None


def _graph_of_sigma(source: Lts, kernel: Lts, sigma: list) -> WeakBisimResult:
    """``BISIMILAR`` with the pairs ``(source.states[σ(k)], kernel.states[k])``
    as the relation, sorted by ``(σ(k), k)`` as :func:`check_weak_bisim` sorts."""
    pairs = sorted(zip(sigma, range(len(sigma))))
    return WeakBisimResult(BISIMILAR, relation=tuple((source.states[s], kernel.states[k])
                                                      for s, k in pairs))


def _unmatched_refusal(source: Lts, kernel: Lts, sigma: list, k: int, failed: tuple,
                       image: Callable, render: Callable) -> tuple:
    """What to log on the refusal for the unmatched move ``failed`` of
    state ``k`` that :func:`_unmatched` found, and that refusal.  Only
    the states it prints are rendered."""
    side, label, target = failed
    move = format_label(label)
    text = render(kernel.states[target] if side == "right" else image(source.states[target]))
    unmatched = f"{side} side moves [{move}] to {text}, with no answer"
    left, right = render(image(source.states[sigma[k]])), render(kernel.states[k])
    return f"{unmatched} (source partner {sigma[k]})", WeakBisimResult(
        NOT_BISIMILAR,
        witness={"kind": "unmatched-move", "side": side, "label": move,
                 "left": left, "right": right},
        trace=(f"pair: left={left} right={right}",
               *(f"  via {step}" for step in _kernel_path(kernel, k)), f"  {unmatched}"),
    )


def _kernel_path(kernel, state: int, labels: tuple = ()) -> list:
    """The ``via`` steps to a state of the kernel, followed by ``labels``;
    none if no chain of weak moves reaches it."""
    path = _path_to(kernel, state, [True] * kernel.state_count)
    if state and not path:
        return []
    return path + [format_label(label) for label in labels]


def _source_image(relation_places: dict) -> Callable:
    """:func:`dbnet.translate.snapshot_image` for the snapshots of one
    exploration: the facts image of each distinct instance is built
    once, and joined with each snapshot's control marking."""
    parts: dict = {}

    def image(snap) -> Marking:
        part = parts.get(snap.instance)
        if part is None:
            part = parts[snap.instance] = facts_image(snap.instance, relation_places)
        return snap.marking.join(part)

    return image


def _orbit_shortcut(translation, searcher, source, contents, known, swaps, guard, max_states):
    """Decide ``BISIMILAR`` from one source state per orbit of the group
    that ``swaps`` generate, if it can (see the module docstring's
    Symmetry section).  ``contents`` lists each source state's image and
    ``known`` maps it back to the state's number.  Returns the result, or
    None, and the note on it for the target's log line."""
    off = "symmetry shortcut off: "
    tripped = off + "fresh guard tripped on %s"
    failed = off + "strict check failed at source state %d"
    if guard.tripped is not None:  # in the source exploration
        return None, tripped % render_value(guard.tripped)
    net = translation.net
    lock = net.initial_marking.restrict((translation.lock_place,))
    roots = [image.join(lock) for image in contents]  # each source state's stable marking
    stable = {root: s for s, root in enumerate(roots)}
    if stable.get(net.initial_marking) != 0:
        return None, failed % 0
    renamed = [{} for _ in swaps]  # per swap: each record renamed so far -> its image
    covered = [False] * len(roots)
    order, met = [0], {0}  # the source states, in the order the kernel meets their images
    searches = total = largest = 0
    for s in order:  # the order grows while it is read
        if covered[s]:  # its source edges stand in for its weak moves
            targets = [dst for _s, _label, dst in _edges_of(source, s)]
        else:
            run = searcher.start(roots[s])
            searches += 1
            moves, targets, strict = set(), [], True
            for move in run.steps:
                if move is LocalSearch.CUT:
                    return None, failed % s
                label, target = move
                target = stable.get(target)
                if target is None:  # dropped here, as the kernel drops a foreign target
                    return None, failed % s
                strict = strict and label is not None and label != EPS
                moves.add((label, target))
                targets.append(target)
            if guard.tripped is not None:
                return None, tripped % render_value(guard.tripped)
            if not strict or run.dead_end or run.cycle or moves != {
                    (label, dst) for _s, label, dst in _edges_of(source, s)}:
                return None, failed % s
            orbit = [s]
            covered[s] = True
            for member in orbit:  # the orbit grows while it is read
                for swap, memo in zip(swaps, renamed):
                    image = known.get(contents[member].rename(swap, memo))
                    if image is None:
                        return None, (off + f"a generator image of source state {member} "
                                      "is not a source state")
                    if not covered[image]:
                        covered[image] = True
                        orbit.append(image)
            total += run.size * len(orbit)
            largest = max(largest, run.size)
        for dst in targets:
            if dst not in met:
                met.add(dst)
                order.append(dst)
    if max_states is not None and total >= max_states:
        return None, off + "the searches would reach the cap"
    result = WeakBisimResult(BISIMILAR, relation=tuple(zip(source.states, roots)))
    result.stats = {
        "translated-states": len(roots),
        "translated-edges": source.edge_count,
        "largest-local-search": largest,
    }
    return result, (f"{searches} searches for {len(roots)} source states, "
                    f"group generators {len(swaps)}")


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

    If the initial state has interchangeable blocks of values, the
    translated net is first searched from one source state per orbit
    only, a shortcut that can only say ``BISIMILAR`` (see the module
    docstring's Symmetry section).  Otherwise, or if the shortcut cannot
    decide, the translated net is explored as its kernel of stable
    states, and each stable state is tested as soon as its local search
    has ended (see the module docstring): the first failing stable state
    in exploration order, even past the cap, ends the exploration and
    gives ``NOT_BISIMILAR``, with a ``"foreign-state"``,
    ``"silent-dead-end"``, ``"silent-divergence"``, ``"unmatched-move"``
    or, for the initial state, ``"content-mismatch"`` witness.  Either
    way the result is the kernel's: ``stats`` counts the kernel's stable
    states (``translated-states``) and weak moves (``translated-edges``),
    up to the stop if there was one, and the markings of its largest
    local search (``largest-local-search``).  ``max_states`` caps the
    stable states and ``max_depth`` the weak moves from the initial one;
    once the local searches have visited ``max_states`` markings in all,
    or one would follow more than ``max_depth`` firings, the search is
    cut.

    ``translation`` may be supplied to certify a pre-built (for instance
    deliberately mutated) translation of the same model.  Unless a state
    was refused, truncation in either exploration raises
    :class:`TruncatedError`, as the verdict would be meaningless; it is
    raised before the contents of the truncated side are built, and a
    truncated source exploration stops the run before the translated net
    is explored.

    Under ``DBNET_LOG=info`` each phase (source exploration, target
    exploration, check) logs one line with its seconds and states; the
    target's line ends with the searches the shortcut made and the
    generators of its group, or with why the shortcut was off.  A
    refusal logs one line instead of the check's, as it is found: the
    state, the markings searched so far, and what failed.
    """
    policy = policy or model.default_policy
    if translation is None:
        translation = translate(model)

    started = time.perf_counter()
    swaps = block_swaps(model, translation)
    if swaps:
        policy = FreshGuard.for_swaps(policy, swaps, model.types)
    raw1 = build_lts(model, policy, max_states=max_states, max_depth=max_depth)
    _refuse_truncated(raw1)
    image = _source_image(translation.relation_places)
    contents = [image(snap) for snap in raw1.states]
    known: dict = {}
    for number, snap_image in enumerate(contents):
        known.setdefault(snap_image, number)
    started = _log_phase("source exploration", started, "%d states", raw1.state_count)
    searcher = LocalSearch(translation.net, policy, partial(_is_stable, translation.lock_place),
                           max_states=max_states, max_depth=max_depth)
    result, note = None, "symmetry shortcut off: no generator"
    if swaps:
        result, note = _orbit_shortcut(translation, searcher, raw1, contents, known, swaps,
                                       policy, max_states)
    refusal = None
    if result is None:
        kernel, sigma, refusal = _explore_target(translation, searcher, raw1, known, image)
        stats = {
            "translated-states": kernel.state_count,
            "translated-edges": kernel.edge_count,
            "largest-local-search": kernel.largest_search,
        }
    else:
        stats = result.stats
    started = _log_phase(
        "target exploration", started,
        "%d stable states, %d weak moves, largest local search %d, %s",
        stats["translated-states"], stats["translated-edges"], stats["largest-local-search"], note)
    if refusal is not None:
        result = refusal
    else:
        if result is None:
            _refuse_truncated(raw1, kernel)
            result = _graph_of_sigma(raw1, kernel, sigma)
        _log_phase("check", started, "%d + %d states, %s",
                   raw1.state_count, stats["translated-states"], result.verdict)
    result.stats = {"source-states": raw1.state_count, "source-edges": raw1.edge_count, **stats}
    return result
