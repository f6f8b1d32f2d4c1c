"""Labeled transition systems: exploration, hashing, serialization.

States are opaque hashable objects; the explorer only needs a successor
function.  The explorer numbers states in discovery order, and that number
is the state's name everywhere after: state ``i`` is ``lts.states[i]``,
the initial state is state 0 and an edge is a ``(src, label, dst)`` triple
of state numbers.  Serialization renders each state to a canonical string
and addresses it by a sha256 prefix of that string, so two runs that
discover states in different orders still produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = [
    "EPS",
    "Lts",
    "explore",
    "cycle_member",
    "format_label",
    "state_hash",
    "lts_text",
]

# explore logs a progress line each time it has numbered this many states
PROGRESS_EVERY = 10_000

# Labels are tuples: ("eps",) for internal steps, or
# ("obs", transition_name, ((var, value_text), ...), outcome).
EPS = ("eps",)


def format_label(label: tuple) -> str:
    if label == EPS:
        return "eps"
    if label[0] == "obs":
        _, tname, pairs, outcome = label
        inner = ",".join(f"{var}={val}" for var, val in pairs)
        return f"{tname}[{inner}]:{outcome}"
    raise ValueError(f"unknown label {label!r}")


@dataclass
class Lts:
    states: list = field(default_factory=list)  # discovery order; state 0 is initial
    edges: list = field(default_factory=list)  # (src, label, dst), state numbers
    truncated: bool = False

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def explore(
    initial,
    step_fn: Callable[[object], Iterable],
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    stop: Optional[Callable[[Lts, int, bool], bool]] = None,
    graph: Optional[Lts] = None,
) -> Lts:
    """Breadth-first closure of ``initial`` under ``step_fn``.

    ``step_fn(state)`` yields ``(label, successor)`` pairs and must be a
    pure function of the state.  States are expanded one at a time, in
    discovery order.  ``max_states`` drops states beyond the cap;
    ``max_depth`` stops expanding past that distance from the start.
    Either cut sets ``truncated`` (conservatively for the depth cut: a
    state at the horizon counts as truncated even if it happens to be
    terminal).  A state's number is its position in ``states``, so the
    initial state is 0, and edges are triples of those numbers.

    ``step_fn`` may also yield ``(None, successor)``: the successor is a
    state, but no edge leads there.  Unless an edge reaches it too, it is
    numbered and expanded only once every state that edges reach from
    ``initial`` has been.

    ``stop`` is called as ``stop(lts, src, False)`` after each edge out
    of state ``src`` is recorded, the last of ``lts.edges``, and as
    ``stop(lts, src, True)`` once the expansion of ``src`` is complete,
    ``lts`` being the graph so far: its edges out of ``src`` are then all
    recorded, and ``truncated`` says whether a cut came before, this
    expansion included.  Once it returns true, exploration ends there,
    without the rest of ``step_fn(states[src])``, and the graph built so
    far is returned.  Such a graph is partial whether or not
    ``truncated`` is set, so only the caller that asked to stop may read
    it.  ``graph`` is the empty graph to build, a new :class:`Lts` by
    default; a subclass can carry what ``step_fn`` reports.

    Under ``DBNET_LOG=info`` it logs one line each time it has numbered
    another ``PROGRESS_EVERY`` states: the states so far, the depth, the
    frontier (states numbered but not yet expanded) and the seconds
    since it started.
    """
    started = time.perf_counter()
    lts = Lts() if graph is None else graph
    states = lts.states
    states.append(initial)
    seen = {initial: 0}  # each state -> its number
    frontier = [0]
    apart = {}  # successors of edge-less steps, numbered once the frontier runs dry
    depth = 0

    def number(state):
        if max_states is not None and len(states) >= max_states:
            lts.truncated = True
            return None
        d = seen[state] = len(states)
        states.append(state)
        next_frontier.append(d)
        if not (d + 1) % PROGRESS_EVERY:
            # states are expanded in the order they are numbered
            _log_info(__name__, "explore: %d states, depth %d, frontier %d, %.1f s",
                      d + 1, depth, d - src, time.perf_counter() - started)
        return d

    while frontier:
        if max_depth is not None and depth >= max_depth:
            lts.truncated = True
            break
        next_frontier = []
        for src in frontier:
            emitted = set()
            for label, dst in step_fn(states[src]):
                if label is None:
                    if dst not in seen:
                        apart[dst] = None
                    continue
                d = seen.get(dst)
                if d is None:
                    d = number(dst)
                    if d is None:
                        continue
                elif (label, d) in emitted:  # set semantics on edges too
                    continue
                emitted.add((label, d))
                lts.edges.append((src, label, d))
                if stop is not None and stop(lts, src, False):
                    return lts
            if stop is not None and stop(lts, src, True):
                return lts
        if not next_frontier and apart:  # every state that edges reach is expanded
            for dst in apart:
                if dst not in seen:
                    number(dst)
            apart = {}
        frontier = next_frontier
        depth += 1
    return lts


def _log_info(logger: str, message: str, *args) -> None:
    """Log at info level on the logger named ``logger`` through
    :mod:`logging`, if the program has loaded it.  A program that never
    imported ``logging`` has no handler that could show the record, and
    importing it here would add about 6 ms to every ``import dbnet``."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).info(message, *args)


def cycle_member(succ: list) -> Optional[int]:
    """A node on a cycle of the graph with successor lists ``succ``
    (node ``i``'s successors are ``succ[i]``), or None if it has none.

    Kahn's peel removes the nodes that no cycle leads into; each node
    left over has a predecessor that is left over too.  Walking back
    along those from the lowest numbered leftover node must repeat a
    node, and that node lies on a cycle."""
    indeg = [0] * len(succ)
    for out in succ:
        for d in out:
            indeg[d] += 1
    queue = [s for s, n in enumerate(indeg) if n == 0]
    seen = 0
    while queue:
        s = queue.pop()
        seen += 1
        for d in succ[s]:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    if seen == len(succ):
        return None
    left = [s for s, n in enumerate(indeg) if n > 0]
    back = {s: [] for s in left}
    for s in left:
        for d in succ[s]:
            if indeg[d] > 0:
                back[d].append(s)
    s, met = left[0], set()
    while s not in met:
        met.add(s)
        s = min(back[s])
    return s


def state_hash(rendered: str) -> str:
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:12]


def lts_text(lts: Lts, render_state: Callable[[object], str], header: str = "lts") -> str:
    """Canonical text form.  Lines are sorted, so the output is a pure
    function of the reachable graph (not of discovery order)."""
    hashes = []  # state number -> hash
    state_lines = []
    for s in lts.states:
        rendered = render_state(s)
        h = state_hash(rendered)
        hashes.append(h)
        state_lines.append(f"STATE {h} {rendered}")
    state_lines.sort()
    edge_lines = sorted(
        f"EDGE {hashes[src]} {format_label(label)} {hashes[dst]}"
        for src, label, dst in set(lts.edges)
    )
    out = [f"LTS {header}", f"INITIAL {hashes[0]}"]
    out.extend(state_lines)
    out.extend(edge_lines)
    out.append(f"STATES {len(state_lines)}")
    out.append(f"EDGES {len(edge_lines)}")
    out.append(f"TRUNCATED {'true' if lts.truncated else 'false'}")
    return "\n".join(out) + "\n"
