#!/usr/bin/env python3
"""Corrupt a translation on purpose and watch the certifier catch it.

Each mutation models a classic implementation slip (forgetting to undo
an insert, consuming where you should only read, ...).  All of them
must produce a not-bisimilar verdict with a concrete witness trace.

The certifier tests each stable state of the translated net as soon as
it has searched it, and stops at the first one that fails.  Most slips
leave a stable state whose contents no source state has, such as a fact
stored twice: a ``foreign-state`` witness with the path there.  A
runaway mutant that would pile up tokens forever is refused the same
way, long before any state cap.  The other slips show as a move of one
net that the other cannot answer (``unmatched-move``), or a firing that
never gives the lock back (``silent-dead-end``).
"""

from pathlib import Path

from dbnet import FreshPolicy, apply_mutation, certify_translation, parse_model, translate

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def load(name):
    return parse_model((CORPUS / f"{name}.dbn").read_text(encoding="utf-8")).model


# which small net shows off which defect best
stage = [
    ("drop-revert", "domviol"),
    ("swap-add-priorities", "touch"),
    ("skip-check-stage", "domviol"),
    ("forget-lock-on-cancel", "guarded"),
    ("consume-on-read", "touch"),
    ("reorder-del-add", "touch"),
]

policy = FreshPolicy.parse("recycling")

for name, net_name in stage:
    net = load(net_name)
    broken = apply_mutation(translate(net), name)
    res = certify_translation(net, policy=policy, translation=broken)
    print(f"=== {name} on {net.name!r}: {res.verdict}")
    print(f"    witness kind: {res.witness['kind']}")
    for line in res.trace[:6]:
        print(f"    {line}")
    print()

assert all(
    not certify_translation(
        load(n), policy=policy, translation=apply_mutation(translate(load(n)), m)
    ).bisimilar
    for m, n in stage
), "a mutation survived?!"
print("all six mutations detected")
