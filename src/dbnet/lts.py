"""Labeled transition systems: exploration, hashing, serialization.

States are opaque hashable objects; the explorer only needs a successor
function.  Serialization renders each state to a canonical string and
addresses it by a sha256 prefix of that string, so two runs that discover
states in different orders still produce byte-identical output.
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
    "lts_dot",
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
    initial: object
    states: list = field(default_factory=list)  # discovery order
    edges: list = field(default_factory=list)  # (src, label, dst)
    truncated: bool = False
    annotations: dict = field(default_factory=dict)  # state -> dict

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def outgoing_index(self) -> dict:
        idx: dict = {s: [] for s in self.states}
        for src, label, dst in self.edges:
            idx[src].append((label, dst))
        return idx


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
    terminal).  Every edge holds the very objects kept in ``states``, not
    equal copies of them.
    """
    lts = Lts(initial=initial)
    seen = {initial: initial}  # each state -> the one object kept for it
    lts.states.append(initial)
    frontier = [initial]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            lts.truncated = True
            break
        next_frontier = []
        for src in frontier:
            emitted = set()
            for label, dst in step_fn(src):
                known = seen.get(dst)
                if known is None:
                    if max_states is not None and len(seen) >= max_states:
                        lts.truncated = True
                        continue
                    seen[dst] = dst
                    lts.states.append(dst)
                    next_frontier.append(dst)
                elif (label, known) in emitted:  # set semantics on edges too
                    continue
                else:
                    dst = known
                emitted.add((label, dst))
                lts.edges.append((src, label, dst))
        frontier = next_frontier
        depth += 1
    return lts


def state_hash(rendered: str) -> str:
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:12]


def lts_text(lts: Lts, render_state: Callable[[object], str], header: str = "lts") -> str:
    """Canonical text form.  Lines are sorted, so the output is a pure
    function of the reachable graph (not of discovery order)."""
    hashes = {}
    state_lines = []
    for s in lts.states:
        rendered = render_state(s)
        h = state_hash(rendered)
        hashes[s] = h
        state_lines.append(f"STATE {h} {rendered}")
    state_lines.sort()
    edge_lines = sorted(
        f"EDGE {hashes[src]} {format_label(label)} {hashes[dst]}"
        for src, label, dst in set(lts.edges)
    )
    out = [f"LTS {header}", f"INITIAL {hashes[lts.initial]}"]
    out.extend(state_lines)
    out.extend(edge_lines)
    out.append(f"STATES {len(state_lines)}")
    out.append(f"EDGES {len(edge_lines)}")
    out.append(f"TRUNCATED {'true' if lts.truncated else 'false'}")
    return "\n".join(out) + "\n"


def lts_dot(lts: Lts, render_state: Callable[[object], str], name: str = "lts") -> str:
    """Graphviz rendering; observable edges solid, internal ones grey."""
    hashes = {s: state_hash(render_state(s)) for s in lts.states}
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box, fontsize=9];"]
    for s in sorted(lts.states, key=lambda s: hashes[s]):
        mark = ", style=bold" if s == lts.initial else ""
        tooltip = render_state(s).replace('"', "'")
        lines.append(f'  "{hashes[s]}" [tooltip="{tooltip}"{mark}];')
    for src, label, dst in sorted(set(lts.edges), key=lambda e: (hashes[e[0]], format_label(e[1]), hashes[e[2]])):
        if label == EPS:
            lines.append(f'  "{hashes[src]}" -> "{hashes[dst]}" [color=grey, label="eps", fontsize=8];')
        else:
            text = format_label(label).replace('"', "'")
            lines.append(f'  "{hashes[src]}" -> "{hashes[dst]}" [label="{text}", fontsize=8];')
    lines.append("}")
    return "\n".join(lines) + "\n"
