"""Flattened weak-bisimulation checking between the two net layers.

The comparison works on *flattened* labelled transition systems: every
state carries a :class:`FlatState` (database facts plus tokens on the
original control places, nothing else) and a stability flag.  For the
source layer every snapshot is stable and the projection is the identity;
for the translated layer a state is stable exactly when the lock token is
at home, and the gadget-interior states in between are silent.

``check_weak_bisim`` decides weak bisimilarity over the stable states,
with two silent-run side conditions that make the notion sensitive to
broken gadget plumbing:

* every maximal silent run out of a stable state must be able to reach a
  stable state again (no silent dead-ends, no cycles that never pass
  through a stable state), and
* stable states are related only if their flat contents are equal.

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

Cost: the translated net has an order of magnitude more states than the
source net but few distinct projections, so ``flatten`` renders each
distinct projection once and lets equal ones share one string.  The
checker works on the state numbers that exploration handed out (a
state's position in ``lts.states``, edges as triples of those numbers)
and on pairs of them throughout; states are looked up only for the
returned relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .cpn import cpn_build_lts
from .lts import EPS, Lts, format_label
from .marking import Marking
from .model import DbNet, Snapshot, build_lts
from .freshness import FreshPolicy
from .relational import ContractError, instance_lines, render_fact, render_value
from .translate import TranslationOutput, translate

__all__ = [
    "BISIMILAR",
    "NOT_BISIMILAR",
    "FlatState",
    "WeakBisimResult",
    "TruncatedError",
    "flatten",
    "check_weak_bisim",
    "verify_relation",
    "certify_translation",
]

BISIMILAR = "bisimilar"
NOT_BISIMILAR = "not-bisimilar"


@dataclass(frozen=True)
class FlatState:
    """What two states must agree on to be comparable: the facts (as a
    multiset, so duplicated relation tokens are visible) and the tokens on
    the original control places.  Both parts are canonically sorted."""

    facts: tuple
    control: tuple

    def render(self) -> str:
        return "facts{" + ";".join(self.facts) + "}|ctl{" + ";".join(self.control) + "}"


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


def _token_lines(place: str, token, count: int) -> list:
    text = f"{place}({','.join(render_value(v) for v in token)})"
    return [text] * count


def _flat_of_snapshot(snap: Snapshot) -> FlatState:
    control = []
    for place in snap.marking.places_marked():
        for token, n in snap.marking.tokens(place):
            control.extend(_token_lines(place, token, n))
    return FlatState(tuple(instance_lines(snap.instance)), tuple(sorted(control)))


def _flat_of_marking(m: Marking, classes: Mapping, relation_names: Mapping) -> FlatState:
    facts = []
    control = []
    for place in m.places_marked():
        cls = classes.get(place)
        if cls == "relation":
            rel = relation_names[place]
            for token, n in m.tokens(place):
                facts.extend([render_fact(rel, token)] * n)
        elif cls == "original-control":
            for token, n in m.tokens(place):
                control.extend(_token_lines(place, token, n))
        # lock and gadget-interior places are not part of the flat view
    return FlatState(tuple(sorted(facts)), tuple(sorted(control)))


def flatten(
    lts: Lts,
    classes: Optional[Mapping] = None,
    *,
    relation_names: Optional[Mapping] = None,
) -> Lts:
    """Annotate every state with its flat projection and stability flag.

    For a source-layer LTS (``classes`` omitted) the projection is the
    identity and every state is stable.  For a translated LTS, ``classes``
    is the translator's place classification and ``relation_names`` maps
    relation places back to relation names; a state is stable iff the
    lock place is marked.  A translated state's projection is its marking
    restricted to the relation and original-control places
    (:meth:`Marking.restrict`), and each distinct projection is rendered
    once: states with equal projections share one ``flat`` string.  Edge
    labels are kept: observable labels were already produced by the
    emitting transitions, and every other step is silent.  The result
    shares ``states`` and ``edges`` with ``lts``.
    """
    annotations = {}
    if classes is None:
        for s in lts.states:
            annotations[s] = {"flat": _flat_of_snapshot(s).render(), "stable": True}
    else:
        if relation_names is None:
            raise ContractError("flattening a translated LTS needs relation_names")
        lock_places = [p for p, c in classes.items() if c == "lock"]
        if len(lock_places) != 1:
            raise ContractError("place classification must contain exactly one lock place")
        lock = lock_places[0]
        visible = frozenset(
            p for p, c in classes.items() if c in ("relation", "original-control")
        )
        rendered: dict = {}  # projection -> its flat string
        for m in lts.states:
            view = m.restrict(visible)
            flat = rendered.get(view)
            if flat is None:
                flat = rendered[view] = _flat_of_marking(view, classes, relation_names).render()
            annotations[m] = {"flat": flat, "stable": m.total(lock) >= 1}
    return Lts(lts.states, lts.edges, lts.truncated, annotations)


# ---------------------------------------------------------------------------
# Silent-run analysis: convergence and weak steps over the stable kernel


class _Side:
    """One flattened LTS over its state numbers (state ``i`` is
    ``lts.states[i]``).  Every per-state table is a list indexed by that
    number: ``flat`` (the projection strings, shared between equal
    projections), ``stable``, ``out_degree``, ``eps_succ`` (silent
    successors) and ``obs_succ`` (``(label, successor)`` pairs).
    Everything after construction works on these ints, so no state is
    hashed again."""

    def __init__(self, lts: Lts, tag: str):
        self.lts = lts
        self.tag = tag
        self.flat = []
        self.stable = []
        for s in lts.states:
            ann = lts.annotations.get(s)
            if ann is None or "flat" not in ann or "stable" not in ann:
                raise ContractError(f"{tag}: state not flattened; call flatten() first")
            self.flat.append(ann["flat"])
            self.stable.append(bool(ann["stable"]))
        n = len(self.flat)
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

    # -- convergence -------------------------------------------------------

    def silent_dead_end(self):
        for s, stable in enumerate(self.stable):
            if not stable and self.out_degree[s] == 0:
                return s
        return None

    def silent_divergence(self):
        """A state on a silent cycle that never passes a stable state."""
        stable, eps_succ = self.stable, self.eps_succ
        interior = [s for s, st in enumerate(stable) if not st]
        indeg = [0] * len(stable)
        for s in interior:
            for d in eps_succ[s]:
                if not stable[d]:
                    indeg[d] += 1
        queue = [s for s in interior if indeg[s] == 0]
        seen = 0
        while queue:
            s = queue.pop()
            seen += 1
            for d in eps_succ[s]:
                if not stable[d]:
                    indeg[d] -= 1
                    if indeg[d] == 0:
                        queue.append(d)
        if seen == len(interior):
            return None
        for s in interior:
            if indeg[s] > 0:
                return s
        return None

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


def _path_to(lts: Lts, target: int) -> list:
    """Shortest path of labels from state 0 to state ``target``."""
    out = [[] for _ in lts.states]
    for src, label, dst in lts.edges:
        out[src].append((label, dst))
    parent = {0: None}
    queue = [0]
    while queue and target not in parent:
        nxt = []
        for s in queue:
            for label, d in out[s]:
                if d not in parent:
                    parent[d] = (s, label)
                    nxt.append(d)
        queue = nxt
    if target not in parent:
        return []
    steps = []
    cur = target
    while parent[cur] is not None:
        prev, label = parent[cur]
        steps.append(format_label(label))
        cur = prev
    steps.reverse()
    return steps


def _refuse_truncated(*ltss: Lts):
    """Raise on the first truncated LTS, the left side before the right."""
    for tag, l in zip(("left", "right"), ltss):
        if l.truncated:
            raise TruncatedError(
                f"{tag} LTS is truncated; the check needs the complete state space"
            )


def _silent_failure(kind: str, what: str, side: _Side, s: int) -> WeakBisimResult:
    return WeakBisimResult(
        NOT_BISIMILAR,
        witness={"kind": kind, "side": side.tag, "state": side.flat[s]},
        trace=tuple(
            [f"{what} on the {side.tag} side", f"state: {side.flat[s]}"]
            + [f"  via {step}" for step in _path_to(side.lts, s)]
        ),
    )


def check_weak_bisim(l1: Lts, l2: Lts) -> WeakBisimResult:
    """Decide flattened weak bisimilarity of two finite, flattened LTSs.

    Preconditions: neither input is truncated (raises
    :class:`TruncatedError` otherwise) and both were run through
    :func:`flatten`.  The verdict is symmetric in the two arguments.  On
    success the result carries the relation over stable states, on
    failure a structured witness plus a counterexample trace from the
    initial pair to the mismatch.  Internally a pair is two state
    numbers (see :class:`_Side`), so pairs sort in discovery order.
    """
    _refuse_truncated(l1, l2)
    s1 = _Side(l1, "left")
    s2 = _Side(l2, "right")

    for side in (s1, s2):
        dead = side.silent_dead_end()
        if dead is not None:
            return _silent_failure("silent-dead-end", "silent dead-end", side, dead)
        div = side.silent_divergence()
        if div is not None:
            return _silent_failure("silent-divergence", "silent divergence", side, div)

    init = (0, 0)
    if s1.flat[init[0]] != s2.flat[init[1]]:
        return WeakBisimResult(
            NOT_BISIMILAR,
            witness={
                "kind": "content-mismatch",
                "left": s1.flat[init[0]],
                "right": s2.flat[init[1]],
            },
            trace=(
                "initial contents differ",
                f"left:  {s1.flat[init[0]]}",
                f"right: {s2.flat[init[1]]}",
            ),
        )

    f1, f2 = s1.flat, s2.flat
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

    def unanswered(pair):
        p, q = pair
        b1, b2 = s1.big_steps(p), s2.big_steps(q)
        for label in sorted(set(b1) | set(b2), key=format_label):
            t1 = b1.get(label, frozenset())
            t2 = b2.get(label, frozenset())
            for x in sorted(t1):
                if not any(f1[x] == f2[y] and (x, y) in rel for y in t2):
                    return ("left", format_label(label), x)
            for y in sorted(t2):
                if not any(f1[x] == f2[y] and (x, y) in rel for x in t1):
                    return ("right", format_label(label), y)
        t1, t2 = s1.eps_targets(p), s2.eps_targets(q)
        for x in sorted(t1):
            if not any(f1[x] == f2[y] and (x, y) in rel for y in t2):
                return ("left", "eps", x)
        for y in sorted(t2):
            if not any(f1[x] == f2[y] and (x, y) in rel for x in t1):
                return ("right", "eps", y)
        return None

    removed: dict = {}
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            reason = unanswered(pair)
            if reason is not None:
                rel.discard(pair)
                removed[pair] = (len(removed),) + reason
                changed = True

    if init in rel:
        states1, states2 = l1.states, l2.states
        relation = tuple((states1[x], states2[y]) for x, y in sorted(rel))
        return WeakBisimResult(BISIMILAR, relation=relation)

    # Reconstruct a blame chain: each removed pair names a weak move whose
    # content-compatible answers were all removed before it, so following
    # the earliest-removed answer strictly descends and terminates.
    trace = []
    pair = init
    prefix = []
    while True:
        _order, side, label, target = removed[pair]
        trace.extend(prefix)
        trace.append(f"pair: left={s1.flat[pair[0]]} right={s2.flat[pair[1]]}")
        trace.append(f"  {side} side moves [{label}] but no answer survives")
        if side == "left":
            tflat = s1.flat[target]
            answers = _answers_for(pair, label, target, s1, s2, left=True)
        else:
            tflat = s2.flat[target]
            answers = _answers_for(pair, label, target, s1, s2, left=False)
        trace.append(f"  moving to: {tflat}")
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
        "label": removed[init][2],
        "left": s1.flat[init[0]],
        "right": s2.flat[init[1]],
    }
    return WeakBisimResult(NOT_BISIMILAR, witness=witness, trace=tuple(trace))


def _answers_for(pair, label_text, target, s1: _Side, s2: _Side, *, left: bool):
    """All content-compatible candidate pairs answering one weak move."""
    p, q = pair
    if label_text == "eps":
        pool = s2.eps_targets(q) if left else s1.eps_targets(p)
    else:
        big = s2.big_steps(q) if left else s1.big_steps(p)
        pool = frozenset().union(
            *[ts for lab, ts in big.items() if format_label(lab) == label_text]
        ) if big else frozenset()
    if left:
        return [(target, y) for y in pool if s1.flat[target] == s2.flat[y]]
    return [(x, target) for x in pool if s1.flat[x] == s2.flat[target]]


def verify_relation(l1: Lts, l2: Lts, relation) -> list:
    """Re-check a claimed relation against the transfer conditions: related
    states have equal flat contents, every weak move of either state is
    answered by a weak move of the other into a related pair, and the
    initial pair is present.  Returns human-readable problems."""
    s1 = _Side(l1, "left")
    s2 = _Side(l2, "right")
    number1 = {s: i for i, s in enumerate(l1.states)}
    number2 = {s: i for i, s in enumerate(l2.states)}
    pairs = [(number1[p], number2[q]) for p, q in relation]
    rel = set(pairs)
    problems = []
    if (0, 0) not in rel:
        problems.append("relation does not contain the initial pair")
    for p, q in pairs:
        if s1.flat[p] != s2.flat[q]:
            problems.append(f"related pair differs in content: {s1.flat[p]} vs {s2.flat[q]}")
            continue
        b1, b2 = s1.big_steps(p), s2.big_steps(q)
        for label in set(b1) | set(b2):
            t1 = b1.get(label, frozenset())
            t2 = b2.get(label, frozenset())
            for x in t1:
                if not any((x, y) in rel for y in t2):
                    problems.append(
                        f"unanswered left move {format_label(label)} from {s1.flat[p]}"
                    )
            for y in t2:
                if not any((x, y) in rel for x in t1):
                    problems.append(
                        f"unanswered right move {format_label(label)} from {s2.flat[q]}"
                    )
        for x in s1.eps_targets(p):
            if not any((x, y) in rel for y in s2.eps_targets(q)):
                problems.append(f"unanswered left silent move from {s1.flat[p]}")
        for y in s2.eps_targets(q):
            if not any((x, y) in rel for x in s1.eps_targets(p)):
                problems.append(f"unanswered right silent move from {s2.flat[q]}")
    return problems


def certify_translation(
    model: DbNet,
    policy: Optional[FreshPolicy] = None,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    translation: Optional[TranslationOutput] = None,
) -> WeakBisimResult:
    """Full pipeline: explore the source net and its translation under one
    shared fresh-value regime, flatten both, and decide weak bisimilarity.

    ``translation`` may be supplied to certify a pre-built (for instance
    deliberately mutated) translation of the same model.  Truncation in
    either exploration raises :class:`TruncatedError`, as the verdict
    would be meaningless; it is raised before anything is flattened, and
    a truncated source exploration stops the run before the translated
    net is explored.
    """
    policy = policy or model.default_policy
    if translation is None:
        translation = translate(model)

    raw1 = build_lts(model, policy, max_states=max_states, max_depth=max_depth)
    _refuse_truncated(raw1)
    raw2 = cpn_build_lts(translation.net, policy, max_states=max_states, max_depth=max_depth)
    _refuse_truncated(raw1, raw2)

    relation_names = {p: r for r, p in translation.relation_places.items()}
    flat1 = flatten(raw1)
    flat2 = flatten(raw2, translation.place_classes, relation_names=relation_names)
    result = check_weak_bisim(flat1, flat2)
    result.stats = {
        "source-states": raw1.state_count,
        "source-edges": raw1.edge_count,
        "translated-states": raw2.state_count,
        "translated-edges": raw2.edge_count,
    }
    return result
