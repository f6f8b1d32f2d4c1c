#!/usr/bin/env python3
"""Corrupt a translation on purpose and watch the certifier catch it.

Each mutation models a classic implementation slip (forgetting to undo
an insert, consuming where you should only read, ...).  All of them
must produce a not-bisimilar verdict with a concrete witness trace.

Most slips leave the translated net with a stable state whose contents
no source state has, such as a fact stored twice.  The certifier stops
exploring at the first such state that its weak moves reach and prints
a ``foreign-state`` witness with the path there.  A runaway mutant that
would pile up tokens forever is refused the same way, long before any
state cap.  The other slips are caught by the full check: a weak move
with no answer (``unmatched-move``) or a firing that never gives the
lock back (``silent-dead-end``).
"""

from dbnet import FreshPolicy, MUTATIONS, apply_mutation, certify_translation, translate
from dbnet.corpus import build_domviol, build_guarded, build_touch

# which small net shows off which defect best
stage = [
    ("drop-revert", build_domviol),
    ("swap-add-priorities", build_touch),
    ("skip-check-stage", build_domviol),
    ("forget-lock-on-cancel", build_guarded),
    ("consume-on-read", build_touch),
    ("reorder-del-add", build_touch),
]

policy = FreshPolicy.parse("recycling")

for name, builder in stage:
    net = builder()
    broken = apply_mutation(translate(net), name)
    res = certify_translation(net, policy=policy, translation=broken)
    print(f"=== {name} on {net.name!r}: {res.verdict}")
    print(f"    witness kind: {res.witness['kind']}")
    for line in res.trace[:6]:
        print(f"    {line}")
    print()

assert all(
    not certify_translation(
        b(), policy=policy, translation=apply_mutation(translate(b()), m)
    ).bisimilar
    for m, b in stage
), "a mutation survived?!"
print("all six mutations detected")
