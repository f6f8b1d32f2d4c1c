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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = [
    "EPS",
    "Lts",
    "explore",
    "format_label",
    "state_hash",
    "lts_text",
]

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
    annotations: dict = field(default_factory=dict)  # state -> dict

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
    """
    lts = Lts(states=[initial])
    states = lts.states
    seen = {initial: 0}  # each state -> its number
    frontier = [0]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            lts.truncated = True
            break
        next_frontier = []
        for src in frontier:
            emitted = set()
            for label, dst in step_fn(states[src]):
                d = seen.get(dst)
                if d is None:
                    if max_states is not None and len(states) >= max_states:
                        lts.truncated = True
                        continue
                    d = seen[dst] = len(states)
                    states.append(dst)
                    next_frontier.append(d)
                elif (label, d) in emitted:  # set semantics on edges too
                    continue
                emitted.add((label, d))
                lts.edges.append((src, label, d))
        frontier = next_frontier
        depth += 1
    return lts


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
