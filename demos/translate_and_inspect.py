#!/usr/bin/env python3
"""Translate the touch net and look at what came out.

The one-step source transitions get stretched into gadget chains:
enter -> guard -> update components -> constraint checks -> commit,
with a cancel/rollback path next to each decision.  This script dumps
the structure grouped by source transition, then certifies that the
stretched net still behaves identically.
"""

from pathlib import Path

from dbnet import FreshPolicy, certify_translation, parse_model, print_model, translate

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

net = parse_model((CORPUS / "touch.dbn").read_text(encoding="utf-8")).model
out = translate(net)

print(f"{net.name}: {len(net.transitions)} transitions -> "
      f"{len(out.net.transitions)} transitions, {len(out.net.places)} places")
print()

# group the generated elements by the transition they came from
by_source = {}
for element, (source, phase) in out.provenance.items():
    by_source.setdefault(source, []).append((phase, element))
for source in sorted(by_source):
    print(f"from {source}:")
    for phase, element in sorted(by_source[source]):
        kind = "place" if element in out.net.places else "trans"
        print(f"   {phase:8s} {kind}  {element}")
    print()

print("place classes in use:", sorted(set(out.place_classes.values())))
print()

res = certify_translation(net, policy=FreshPolicy.parse("recycling"), translation=out)
print("certificate:", res.verdict, res.stats)
print()
print("---- the translated net, in surface syntax ----")
print(print_model(out.net))
