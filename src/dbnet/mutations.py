"""Deliberately broken variants of the translation, for negative testing.

Each mutation takes a finished :class:`~dbnet.translate.TranslationOutput`
and returns a new one with one targeted defect.  A sound equivalence
checker must reject every one of them on a net that exercises the broken
piece; a checker that accepts any of these is vacuous.

The functions pick their target site automatically (first gadget where the
defect is expressible) and raise ``ContractError`` when no site exists.
"""

from __future__ import annotations

from dataclasses import replace

from .cpn import CpnTransition, P_HIGH, P_LOW, P_NORMAL
from .relational import ContractError, Variable
from .translate import TranslationOutput

__all__ = ["MUTATIONS", "apply_mutation"]


def _rebuild(out: TranslationOutput, transitions) -> TranslationOutput:
    net = replace(out.net, transitions=tuple(transitions))
    return TranslationOutput(
        net=net,
        place_classes=dict(out.place_classes),
        provenance=dict(out.provenance),
        lock_place=out.lock_place,
        relation_places=dict(out.relation_places),
        gadgets=dict(out.gadgets),
        ctl_type=out.ctl_type,
    )


def _by_name(out: TranslationOutput) -> dict:
    return {t.name: t for t in out.net.transitions}


def drop_revert(out: TranslationOutput) -> TranslationOutput:
    """Forget to compensate an insertion on rollback: the first undo
    component for an added fact is replaced by an unconditional skip, so
    the inserted token survives a rolled-back firing."""
    for g in out.gadgets.values():
        for comp in g.undo_components:
            if comp.kind != "add":
                continue
            index = _by_name(out)
            do = index[comp.do]
            chain = next(terms for p, terms in do.inputs if p == comp.entry)
            stub = CpnTransition(
                name=do.name,
                inputs=(
                    (comp.entry, chain),
                    (comp.done_place, (Variable(f"{g.transition}.mb", out.ctl_type),)),
                ),
                outputs=((comp.exit, chain),),
                priority=P_NORMAL,
            )
            ts = [stub if t.name == comp.do else t
                  for t in out.net.transitions if t.name != comp.skip]
            return _rebuild(out, ts)
    raise ContractError("no gadget with an add-undo component")


def swap_add_priorities(out: TranslationOutput) -> TranslationOutput:
    """Invert the priority scheme of the first duplicate-guarding pair:
    the token gets inserted even when it is already present, breaking the
    one-token-per-fact discipline of relation places."""
    for g in out.gadgets.values():
        for comp in g.update_components:
            if comp.kind != "add":
                continue
            ts = []
            for t in out.net.transitions:
                if t.name == comp.exists:
                    ts.append(replace(t, priority=P_LOW))
                elif t.name == comp.not_exists:
                    ts.append(replace(t, priority=P_HIGH))
                else:
                    ts.append(t)
            return _rebuild(out, ts)
    raise ContractError("no gadget with an add component")


def skip_check_stage(out: TranslationOutput) -> TranslationOutput:
    """Omit one constraint check: the last check stage of the first
    checked gadget is bypassed, so a firing that should roll back commits
    instead."""
    for g in out.gadgets.values():
        if not g.check_stages:
            continue
        stage = g.check_stages[-1]
        doomed = {name for _, name in stage.names}
        ts = []
        for t in out.net.transitions:
            if t.name in doomed:
                continue
            outs = tuple(
                (stage.exit if p == stage.entry else p, terms) for p, terms in t.outputs
            )
            ts.append(replace(t, outputs=outs) if outs != t.outputs else t)
        return _rebuild(out, ts)
    raise ContractError("no gadget with a check stage")


def forget_lock_on_cancel(out: TranslationOutput) -> TranslationOutput:
    """Cancelled firings keep the lock: every cancel transition returns
    the consumed input tokens but not the lock token, wedging the net in a
    state where nothing else can start."""
    cancels = {name for g in out.gadgets.values() for name in g.cancels}
    if not cancels:
        raise ContractError("no cancel transitions")
    ts = []
    for t in out.net.transitions:
        if t.name in cancels:
            outs = tuple((p, terms) for p, terms in t.outputs if p != out.lock_place)
            ts.append(replace(t, outputs=outs))
        else:
            ts.append(t)
    return _rebuild(out, ts)


def consume_on_read(out: TranslationOutput) -> TranslationOutput:
    """Turn the presence test of the first add component into consumption:
    inserting an already-present fact now eats the original token, so the
    fact silently disappears from the relation place."""
    for g in out.gadgets.values():
        for comp in g.update_components:
            if comp.kind != "add":
                continue
            ts = []
            for t in out.net.transitions:
                if t.name == comp.exists:
                    ts.append(replace(t, inputs=t.inputs + t.reads, reads=()))
                else:
                    ts.append(t)
            return _rebuild(out, ts)
    raise ContractError("no gadget with an add component")


def reorder_del_add(out: TranslationOutput) -> TranslationOutput:
    """Apply insertions before deletions in the first gadget that does
    both.  An action that deletes and re-inserts the same fact then ends
    with the fact gone, inverting the documented delete-first order."""
    for g in out.gadgets.values():
        kinds = {c.kind for c in g.update_components}
        if kinds != {"del", "add"}:
            continue
        comps = list(g.update_components)
        hops = [comps[0].entry] + [c.exit for c in comps]
        new_order = [c for c in comps if c.kind == "add"] + [
            c for c in comps if c.kind == "del"
        ]
        index = _by_name(out)
        patched = {}
        for j, comp in enumerate(new_order):
            entry, exit_ = hops[j], hops[j + 1]
            for name in (comp.exists, comp.not_exists):
                t = index[name]
                ins = tuple((entry if p == comp.entry else p, terms) for p, terms in t.inputs)
                outs = tuple((exit_ if p == comp.exit else p, terms) for p, terms in t.outputs)
                patched[name] = replace(t, inputs=ins, outputs=outs)
        ts = [patched.get(t.name, t) for t in out.net.transitions]
        return _rebuild(out, ts)
    raise ContractError("no gadget with both delete and add components")


MUTATIONS = {
    "drop-revert": drop_revert,
    "swap-add-priorities": swap_add_priorities,
    "skip-check-stage": skip_check_stage,
    "forget-lock-on-cancel": forget_lock_on_cancel,
    "consume-on-read": consume_on_read,
    "reorder-del-add": reorder_del_add,
}


def apply_mutation(out: TranslationOutput, name: str) -> TranslationOutput:
    try:
        fn = MUTATIONS[name]
    except KeyError:
        known = ", ".join(sorted(MUTATIONS))
        raise ContractError(f"unknown mutation {name!r}; known: {known}") from None
    return fn(out)
