"""Compilation of a three-layer net into a prioritized coloured net.

The output net simulates one atomic source firing with a chain of small
steps, serialized by a global lock:

    enter -> view stages -> guard -> update -> constraint checks
          -> consume/commit   (or)   undo/rollback

Relation places mirror the database (one token per fact); per-source-
transition gadget places carry a growing "chain" token that accumulates
the binding.  Every gadget transition is silent except the final commit
and rollback, which emit the source transition's label.

Boolean bookkeeping uses an internal control colour: a ``lock`` token
plus ``true``/``false`` tokens in the per-update Done places (the
"no-op" places) that steer the undo net.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .cpn import (
    CpnPlace,
    CpnTransition,
    Emit,
    NuCpn,
    P_HIGH,
    P_LOW,
    P_NORMAL,
)
from .fo import And, Compare, Formula, Or, TRUE
from .marking import Marking
from .model import DbNet, Snapshot, Transition, analyze_transition, validate
from .queries import UcqQuery
from .relational import (
    Action,
    ContractError,
    DataType,
    DomainConstraint,
    ForeignKey,
    Instance,
    PrimaryKey,
    Value,
    ValidationError,
    Variable,
    ground,
)

__all__ = [
    "TranslationOutput",
    "GadgetInfo",
    "UpdateComponent",
    "CheckStage",
    "UndoComponent",
    "translate",
    "snapshot_image",
    "facts_image",
    "CTL_LOCK",
    "CTL_TRUE",
    "CTL_FALSE",
]

# Class labels for place_classes.  "Done" places carry the control token
# that records whether an update component actually changed anything.
CLASS_ORIGINAL = "original-control"
CLASS_RELATION = "relation"
CLASS_LOCK = "lock"
CLASS_INTERMEDIATE = "intermediate"

CTL_LOCK = "lock"
CTL_TRUE = "true"
CTL_FALSE = "false"


@dataclass(frozen=True)
class UpdateComponent:
    kind: str  # "del" | "add"
    index: int  # 1-based within its kind
    relation: str
    terms: tuple  # inscription on the relation place
    entry: str
    exit: str
    done_place: str
    exists: str  # transition names
    not_exists: str


@dataclass(frozen=True)
class CheckStage:
    kind: str  # "key" | "ref" | "domain"
    entry: str
    exit: str
    names: tuple  # ((role, transition name), ...)


@dataclass(frozen=True)
class UndoComponent:
    kind: str  # "add" | "del"
    entry: str
    exit: str
    done_place: str
    do: str
    skip: str


@dataclass(frozen=True)
class GadgetInfo:
    transition: str
    entered: str
    bound: str
    guard_ok: str
    updated: str
    constr_ok: str
    enter: str
    cond: str
    cancels: tuple  # every cancel transition, the Bound-level one last
    compute_stages: tuple  # per view arc: tuple of compute transition names
    update_components: tuple
    check_stages: tuple
    undo_components: tuple
    commit: str
    rollback: str


@dataclass
class TranslationOutput:
    net: NuCpn
    place_classes: dict  # place name -> class label
    provenance: dict  # gadget element name -> (source transition, phase)
    lock_place: str
    relation_places: dict  # relation name -> place name
    gadgets: dict  # source transition name -> GadgetInfo
    ctl_type: str

    def provenance_jsonl(self) -> str:
        lines = []
        for name in sorted(self.provenance):
            source, phase = self.provenance[name]
            kind = "place" if name in self.net.places else "transition"
            lines.append(
                json.dumps(
                    {"element": name, "kind": kind, "source": source, "phase": phase},
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"


def _pick_name(base: str, taken: set) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


class _Builder:
    """Accumulates places/transitions plus all the bookkeeping maps."""

    def __init__(self):
        self.places: dict = {}
        self.transitions: list = []
        self.classes: dict = {}
        self.provenance: dict = {}

    def place(self, name: str, column_types: tuple, cls: str,
              source: Optional[str] = None, phase: Optional[str] = None) -> str:
        if name in self.places:
            raise ContractError(f"translated place name collision: {name!r}")
        self.places[name] = CpnPlace(name, tuple(column_types))
        self.classes[name] = cls
        if source is not None:
            self.provenance[name] = (source, phase)
        return name

    def transition(self, t: CpnTransition, source: str, phase: str):
        if any(x.name == t.name for x in self.transitions):
            raise ContractError(f"translated transition name collision: {t.name!r}")
        self.transitions.append(t)
        self.provenance[t.name] = (source, phase)
        return t


def translate(model: DbNet) -> TranslationOutput:
    """Compile ``model`` (which must validate cleanly) into the
    prioritized coloured net that weakly simulates it step by step."""
    problems = validate(model)
    if problems:
        raise ValidationError("model does not validate: " + "; ".join(problems))

    ctl_name = _pick_name("ctl", set(model.types))
    ctl = DataType(ctl_name, "string")
    b = _Builder()

    # Shared places: originals, relations, lock.
    for p in model.control_places.values():
        b.place(p.name, p.column_types, CLASS_ORIGINAL)
    taken = set(b.places)
    rel_prefix = "rel."
    while any(n.startswith(rel_prefix) for n in taken):
        rel_prefix = "x" + rel_prefix
    relation_places = {}
    for rname in sorted(model.schema.relations):
        rel = model.schema.relations[rname]
        relation_places[rname] = b.place(rel_prefix + rname, rel.column_types, CLASS_RELATION)
    lock_place = _pick_name("lock", set(b.places))
    b.place(lock_place, (ctl_name,), CLASS_LOCK)
    lock_tok = (Value(ctl_name, CTL_LOCK),)
    tok_true = (Value(ctl_name, CTL_TRUE),)
    tok_false = (Value(ctl_name, CTL_FALSE),)

    gadgets = {}
    for t in model.transitions:
        gadgets[t.name] = _build_gadget(
            b, model, t, relation_places, lock_place, lock_tok, tok_true, tok_false, ctl_name
        )

    initial = snapshot_image(model.initial_snapshot(), relation_places)

    types = dict(model.types)
    types[ctl_name] = ctl
    net = NuCpn(
        name=f"{model.name}.translated",
        types=types,
        places=dict(b.places),
        transitions=tuple(b.transitions),
        initial_marking=initial.update((), ((lock_place, lock_tok),)),
        samples=dict(model.samples),
        default_policy=model.default_policy,
        place_classes=dict(b.classes),
    )
    return TranslationOutput(
        net=net,
        place_classes=dict(b.classes),
        provenance=dict(b.provenance),
        lock_place=lock_place,
        relation_places=dict(relation_places),
        gadgets=gadgets,
        ctl_type=ctl_name,
    )


def snapshot_image(snap: Snapshot, relation_places: dict) -> Marking:
    """The image of a source snapshot in the translated net: its control
    tokens, on the original-control places, joined with the
    :func:`facts_image` of its instance.  It marks the translated net's
    visible places only, so a translated marking has the snapshot's
    contents exactly when its ``restrict`` to those places equals the
    image.  The translated initial marking is the initial snapshot's
    image plus the lock."""
    return snap.marking.join(facts_image(snap.instance, relation_places))


def facts_image(instance: Instance, relation_places: dict) -> Marking:
    """One token per fact of ``instance`` on the fact's relation place
    (``relation_places`` maps a relation name to it)."""
    return Marking.EMPTY.update((), [
        (relation_places[rel], row) for rel, rows in instance.facts.items() for row in rows
    ])


def _plain(v: Variable) -> Variable:
    """The non-creating twin of a variable, for arcs that only copy it."""
    return Variable(v.name, v.dtype) if v.fresh else v


def _colours(vars_) -> tuple:
    return tuple(v.dtype for v in vars_)


def _build_gadget(
    b: _Builder,
    model: DbNet,
    t: Transition,
    relation_places: dict,
    lock_place: str,
    lock_tok: tuple,
    tok_true: tuple,
    tok_false: tuple,
    ctl_name: str,
) -> GadgetInfo:
    T = t.name
    scope = analyze_transition(t)
    base_vars = tuple(
        sorted(scope.input_vars + scope.fresh_vars + scope.external_vars, key=lambda v: v.name)
    )
    chain = [ _plain(v) for v in base_vars ]

    # --- enter ------------------------------------------------------------
    entered = b.place(f"{T}.Entered", _colours(chain), "Entered", T, "enter")
    b.transition(
        CpnTransition(
            name=f"{T}.enter",
            inputs=tuple((p, tuple(vs)) for p, vs in t.inputs) + ((lock_place, lock_tok),),
            outputs=((entered, tuple(base_vars)),),  # fresh markers live here
            priority=P_NORMAL,
        ),
        T, "enter",
    )

    restore_outputs = tuple((p, tuple(vs)) for p, vs in t.inputs) + ((lock_place, lock_tok),)
    cancels = []

    # --- binding net: one sequential stage per view arc -------------------
    m = len(t.views)
    stage_place = entered
    compute_stages = []
    for i, (vplace_name, arc_vars) in enumerate(t.views, start=1):
        query: UcqQuery = model.queries[model.view_places[vplace_name].query]
        chain_names = {v.name for v in chain}
        new_vars = sorted(
            {v.name: v for v in arc_vars if v.name not in chain_names}.values(),
            key=lambda v: v.name,
        )
        if i == m:
            next_place = b.place(f"{T}.Bound", _colours(chain + list(new_vars)), "Bound", T, "binding")
        else:
            next_place = b.place(
                f"{T}.V{i}Computed", _colours(chain + list(new_vars)), CLASS_INTERMEDIATE, T, "binding"
            )
        stage_transitions = []
        multi = len(query.disjuncts) > 1
        for j, conj in enumerate(query.disjuncts, start=1):
            cname = f"{T}.computeV{i}" + (f".d{j}" if multi else "")
            reads, guard = _compile_conjunct(T, i, j, query, conj, arc_vars, relation_places)
            stage_transitions.append(
                b.transition(
                    CpnTransition(
                        name=cname,
                        inputs=((stage_place, tuple(chain)),),
                        reads=reads,
                        guard=guard,
                        outputs=((next_place, tuple(chain) + tuple(new_vars)),),
                        priority=P_NORMAL,
                    ),
                    T, "binding",
                ).name
            )
        compute_stages.append(tuple(stage_transitions))
        # An empty view must not strand the chain token: a low-priority
        # escape at every stage puts the inputs and the lock back.
        cancels.append(
            b.transition(
                CpnTransition(
                    name=f"{T}.cancel{i - 1}",
                    inputs=((stage_place, tuple(chain)),),
                    outputs=restore_outputs,
                    priority=P_LOW,
                ),
                T, "binding",
            ).name
        )
        chain = chain + list(new_vars)
        stage_place = next_place

    bound = stage_place  # equals Entered when there are no views

    # --- guard stage -------------------------------------------------------
    guard_ok = b.place(f"{T}.GuardOk", _colours(chain), "GuardOk", T, "guard")
    cond = b.transition(
        CpnTransition(
            name=f"{T}.cond",
            inputs=((bound, tuple(chain)),),
            guard=t.guard,
            outputs=((guard_ok, tuple(chain)),),
            priority=P_HIGH,
        ),
        T, "guard",
    ).name
    cancels.append(
        b.transition(
            CpnTransition(
                name=f"{T}.cancel",
                inputs=((bound, tuple(chain)),),
                outputs=restore_outputs,
                priority=P_LOW,
            ),
            T, "guard",
        ).name
    )

    # --- update net ---------------------------------------------------------
    action: Optional[Action] = model.actions[t.action[0]] if t.action else None
    components = []
    if action is not None:
        args = tuple(
            _plain(a) if isinstance(a, Variable) else a for a in t.action[1]
        )
        param_map = {p.name: a for p, a in zip(action.params, args)}
        for i, (rel, terms) in enumerate(action.dels, start=1):
            components.append(("del", i, rel, ground(terms, param_map)))
        for i, (rel, terms) in enumerate(action.adds, start=1):
            components.append(("add", i, rel, ground(terms, param_map)))

    update_components = []
    if components:
        updated = b.place(f"{T}.Updated", _colours(chain), "Updated", T, "update")
        hops = [guard_ok]
        for j in range(1, len(components)):
            hops.append(b.place(f"{T}.U{j}", _colours(chain), CLASS_INTERMEDIATE, T, "update"))
        hops.append(updated)
        for (kind, i, rel, terms), entry, exit_ in zip(components, hops, hops[1:]):
            rp = relation_places[rel]
            tag = "D" if kind == "del" else "A"
            done = b.place(f"{T}.Done{tag}{i}", (ctl_name,), "Done", T, "update")
            if kind == "del":
                exists = CpnTransition(
                    name=f"{T}.existsD{i}",
                    inputs=((entry, tuple(chain)), (rp, terms)),
                    outputs=((exit_, tuple(chain)), (done, tok_true)),
                    priority=P_HIGH,
                )
                absent = CpnTransition(
                    name=f"{T}.notExistsD{i}",
                    inputs=((entry, tuple(chain)),),
                    outputs=((exit_, tuple(chain)), (done, tok_false)),
                    priority=P_LOW,
                )
            else:
                exists = CpnTransition(
                    name=f"{T}.existsA{i}",
                    inputs=((entry, tuple(chain)),),
                    reads=((rp, terms),),
                    outputs=((exit_, tuple(chain)), (done, tok_false)),
                    priority=P_HIGH,
                )
                absent = CpnTransition(
                    name=f"{T}.notExistsA{i}",
                    inputs=((entry, tuple(chain)),),
                    outputs=((exit_, tuple(chain)), (rp, terms), (done, tok_true)),
                    priority=P_LOW,
                )
            b.transition(exists, T, "update")
            b.transition(absent, T, "update")
            update_components.append(
                UpdateComponent(kind, i, rel, terms, entry, exit_, done, exists.name, absent.name)
            )
    else:
        updated = guard_ok

    # --- constraint check net ----------------------------------------------
    constr_viol = b.place(f"{T}.ConstrViol", _colours(chain), "ConstrViol", T, "check")
    check_stages = []
    constraints = tuple(model.schema.constraints) if action is not None else ()
    if constraints:
        constr_ok = b.place(f"{T}.ConstrOk", _colours(chain), "ConstrOk", T, "check")
        entry = updated
        for k, c in enumerate(constraints, start=1):
            exit_ = (
                constr_ok
                if k == len(constraints)
                else b.place(f"{T}.C{k}Ok", _colours(chain), CLASS_INTERMEDIATE, T, "check")
            )
            check_stages.append(
                _build_check_stage(
                    b, model, T, k, c, entry, exit_, constr_viol, chain, relation_places
                )
            )
            entry = exit_
    else:
        constr_ok = updated

    # --- undo net ------------------------------------------------------------
    do_rollback = b.place(f"{T}.DoRollback", _colours(chain), "DoRollback", T, "undo")
    undo_components = []
    if update_components:
        # Additions are reverted first, then deletions; within each group
        # the order is the reverse of the update order.
        adds = [c for c in reversed(update_components) if c.kind == "add"]
        dels = [c for c in reversed(update_components) if c.kind == "del"]
        sequence = adds + dels
        hops = [constr_viol]
        for j in range(1, len(sequence)):
            hops.append(b.place(f"{T}.R{j}", _colours(chain), CLASS_INTERMEDIATE, T, "undo"))
        hops.append(do_rollback)
        for comp, entry, exit_ in zip(sequence, hops, hops[1:]):
            rp = relation_places[comp.relation]
            tag = "A" if comp.kind == "add" else "D"
            if comp.kind == "add":
                do = CpnTransition(
                    name=f"{T}.revertA{comp.index}",
                    inputs=((entry, tuple(chain)), (comp.done_place, tok_true), (rp, comp.terms)),
                    outputs=((exit_, tuple(chain)),),
                    priority=P_NORMAL,
                )
            else:
                do = CpnTransition(
                    name=f"{T}.revertD{comp.index}",
                    inputs=((entry, tuple(chain)), (comp.done_place, tok_true)),
                    outputs=((exit_, tuple(chain)), (rp, comp.terms)),
                    priority=P_NORMAL,
                )
            skip = CpnTransition(
                name=f"{T}.skipRevert{tag}{comp.index}",
                inputs=((entry, tuple(chain)), (comp.done_place, tok_false)),
                outputs=((exit_, tuple(chain)),),
                priority=P_NORMAL,
            )
            b.transition(do, T, "undo")
            b.transition(skip, T, "undo")
            undo_components.append(
                UndoComponent(comp.kind, entry, exit_, comp.done_place, do.name, skip.name)
            )
    else:
        # Unreachable without an action, but kept for structural uniformity.
        b.transition(
            CpnTransition(
                name=f"{T}.skipUndo",
                inputs=((constr_viol, tuple(chain)),),
                outputs=((do_rollback, tuple(chain)),),
                priority=P_NORMAL,
            ),
            T, "undo",
        )

    # --- consume net and the two observable exits ----------------------------
    do_commit = b.place(f"{T}.DoCommit", _colours(chain), "DoCommit", T, "finish")
    done_arcs = tuple(
        (comp.done_place, (Variable(f"{T}.b{idx}", ctl_name),))
        for idx, comp in enumerate(update_components)
    )
    b.transition(
        CpnTransition(
            name=f"{T}.emptyNoOp",
            inputs=((constr_ok, tuple(chain)),) + done_arcs,
            outputs=((do_commit, tuple(chain)),),
            priority=P_NORMAL,
        ),
        T, "finish",
    )
    emit_names = tuple(v.name for v in scope.order)
    # Name creation happened back at the enter step; the exits only copy
    # the chain, so their inscriptions carry the plain variables.
    plain_terms = lambda terms: tuple(
        _plain(x) if isinstance(x, Variable) else x for x in terms
    )
    commit = b.transition(
        CpnTransition(
            name=f"{T}.commit",
            inputs=((do_commit, tuple(chain)),),
            outputs=tuple((p, plain_terms(terms)) for p, terms in t.outputs)
            + ((lock_place, lock_tok),),
            priority=P_NORMAL,
            emit=Emit(T, "commit", emit_names),
        ),
        T, "finish",
    ).name
    rollback = b.transition(
        CpnTransition(
            name=f"{T}.rollback",
            inputs=((do_rollback, tuple(chain)),),
            outputs=tuple((p, plain_terms(terms)) for p, terms in t.rollbacks)
            + ((lock_place, lock_tok),),
            priority=P_NORMAL,
            emit=Emit(T, "rollback", emit_names),
        ),
        T, "finish",
    ).name

    return GadgetInfo(
        transition=T,
        entered=entered,
        bound=bound,
        guard_ok=guard_ok,
        updated=updated,
        constr_ok=constr_ok,
        enter=f"{T}.enter",
        cond=cond,
        cancels=tuple(cancels),
        compute_stages=tuple(compute_stages),
        update_components=tuple(update_components),
        check_stages=tuple(check_stages),
        undo_components=tuple(undo_components),
        commit=commit,
        rollback=rollback,
    )


def _compile_conjunct(
    T: str,
    stage: int,
    disjunct: int,
    query: UcqQuery,
    conj,
    arc_vars: tuple,
    relation_places: dict,
):
    """Read arcs + guard realizing one disjunct of a view query, with the
    query's head renamed to the transition's arc variables and the
    existential variables localized to this stage."""
    if len(arc_vars) != len(query.head):
        raise ContractError(
            f"transition {T}: view arc arity {len(arc_vars)} vs query {query.name} arity {len(query.head)}"
        )
    rename = {h.name: _plain(a) for h, a in zip(query.head, arc_vars)}

    def local(v: Variable) -> Variable:
        hit = rename.get(v.name)
        if hit is None:
            hit = Variable(f"{T}.v{stage}d{disjunct}.{v.name}", v.dtype)
            rename[v.name] = hit
        return hit

    reads = []
    for atom in conj.atoms:
        terms = tuple(local(x) if isinstance(x, Variable) else x for x in atom.terms)
        reads.append((relation_places[atom.relation], terms))
    filters = []
    for f in conj.filters:
        left = local(f.left) if isinstance(f.left, Variable) else f.left
        right = local(f.right) if isinstance(f.right, Variable) else f.right
        filters.append(Compare(f.op, left, right))
    guard: Formula = And(tuple(filters)) if filters else TRUE
    return tuple(reads), guard


def _build_check_stage(
    b: _Builder,
    model: DbNet,
    T: str,
    k: int,
    c,
    entry: str,
    exit_: str,
    constr_viol: str,
    chain: list,
    relation_places: dict,
) -> CheckStage:
    chain_t = tuple(chain)
    if isinstance(c, PrimaryKey):
        rel = model.schema.relation(c.relation)
        rp = relation_places[c.relation]
        ys = tuple(Variable(f"{T}.c{k}.y{j}", rel.column_types[j]) for j in range(rel.arity))
        ws = tuple(Variable(f"{T}.c{k}.w{j}", rel.column_types[j]) for j in range(rel.arity))
        eqs = tuple(Compare("=", ys[j], ws[j]) for j in c.cols)
        rest = [j for j in range(rel.arity) if j not in c.cols]
        guard: Formula = And(eqs)
        if rest:
            guard = And(eqs + (Or(tuple(Compare("!=", ys[j], ws[j]) for j in rest)),))
        else:
            # A key over every column can never be violated under set
            # semantics; the violation guard is unsatisfiable.
            guard = And(eqs + (Or(()),))
        viol = b.transition(
            CpnTransition(
                name=f"{T}.repeatedKey{k}",
                inputs=((entry, chain_t),),
                reads=((rp, ys), (rp, ws)),
                guard=guard,
                outputs=((constr_viol, chain_t),),
                priority=P_HIGH,
            ),
            T, "check",
        )
        ok = b.transition(
            CpnTransition(
                name=f"{T}.keyOk{k}",
                inputs=((entry, chain_t),),
                outputs=((exit_, chain_t),),
                priority=P_LOW,
            ),
            T, "check",
        )
        return CheckStage("key", entry, exit_, (("violation", viol.name), ("pass", ok.name)))

    if isinstance(c, ForeignKey):
        src = model.schema.relation(c.source)
        tgt = model.schema.relation(c.target)
        rp = relation_places[c.source]
        sp = relation_places[c.target]
        ys = tuple(Variable(f"{T}.c{k}.y{j}", src.column_types[j]) for j in range(src.arity))
        # The target inscription shares the referencing variables, which
        # realizes the match condition by unification.
        ws = []
        for j in range(tgt.arity):
            if j in c.target_cols:
                ws.append(ys[c.source_cols[c.target_cols.index(j)]])
            else:
                ws.append(Variable(f"{T}.c{k}.w{j}", tgt.column_types[j]))
        ws = tuple(ws)
        seen = b.place(f"{T}.C{k}Seen", src.column_types, CLASS_INTERMEDIATE, T, "check")
        violp = b.place(f"{T}.C{k}ViolPending", _colours(chain), CLASS_INTERMEDIATE, T, "check")
        passp = b.place(f"{T}.C{k}PassPending", _colours(chain), CLASS_INTERMEDIATE, T, "check")
        # Exhaustive scan: matched source tokens are parked in Seen until
        # either the source place drains (pass) or only unmatched tokens
        # remain (violation); afterwards the parked tokens are restored.
        scan = b.transition(
            CpnTransition(
                name=f"{T}.fkScan{k}",
                inputs=((entry, chain_t), (rp, ys)),
                reads=((sp, ws),),
                outputs=((entry, chain_t), (seen, ys)),
                priority=P_HIGH,
            ),
            T, "check",
        )
        scan_names = [("scan", scan.name)]
        if c.source == c.target:
            # The witness row may itself already be parked in Seen, so a
            # self-reference needs a second scan variant that matches there.
            scan_self = b.transition(
                CpnTransition(
                    name=f"{T}.fkScanSelf{k}",
                    inputs=((entry, chain_t), (rp, ys)),
                    reads=((seen, ws),),
                    outputs=((entry, chain_t), (seen, ys)),
                    priority=P_HIGH,
                ),
                T, "check",
            )
            scan_names.append(("scan-self", scan_self.name))
        y2 = tuple(Variable(f"{T}.c{k}.u{j}", src.column_types[j]) for j in range(src.arity))
        viol = b.transition(
            CpnTransition(
                name=f"{T}.fkViol{k}",
                inputs=((entry, chain_t),),
                reads=((rp, y2),),
                outputs=((violp, chain_t),),
                priority=P_NORMAL,
            ),
            T, "check",
        )
        ok = b.transition(
            CpnTransition(
                name=f"{T}.fkPass{k}",
                inputs=((entry, chain_t),),
                outputs=((passp, chain_t),),
                priority=P_LOW,
            ),
            T, "check",
        )
        y3 = tuple(Variable(f"{T}.c{k}.r{j}", src.column_types[j]) for j in range(src.arity))
        restore_v = b.transition(
            CpnTransition(
                name=f"{T}.fkRestoreViol{k}",
                inputs=((violp, chain_t), (seen, y3)),
                outputs=((violp, chain_t), (rp, y3)),
                priority=P_HIGH,
            ),
            T, "check",
        )
        restore_p = b.transition(
            CpnTransition(
                name=f"{T}.fkRestorePass{k}",
                inputs=((passp, chain_t), (seen, y3)),
                outputs=((passp, chain_t), (rp, y3)),
                priority=P_HIGH,
            ),
            T, "check",
        )
        emit_v = b.transition(
            CpnTransition(
                name=f"{T}.fkEmitViol{k}",
                inputs=((violp, chain_t),),
                outputs=((constr_viol, chain_t),),
                priority=P_LOW,
            ),
            T, "check",
        )
        emit_p = b.transition(
            CpnTransition(
                name=f"{T}.fkEmitPass{k}",
                inputs=((passp, chain_t),),
                outputs=((exit_, chain_t),),
                priority=P_LOW,
            ),
            T, "check",
        )
        return CheckStage(
            "ref", entry, exit_,
            tuple(scan_names) + (
                ("violation", viol.name),
                ("pass", ok.name),
                ("restore-violation", restore_v.name),
                ("restore-pass", restore_p.name),
                ("emit-violation", emit_v.name),
                ("emit-pass", emit_p.name),
            ),
        )

    if isinstance(c, DomainConstraint):
        rel = model.schema.relation(c.relation)
        rp = relation_places[c.relation]
        ys = tuple(Variable(f"{T}.c{k}.y{j}", rel.column_types[j]) for j in range(rel.arity))
        guard = And(tuple(Compare("!=", ys[c.col], v) for v in c.allowed))
        viol = b.transition(
            CpnTransition(
                name=f"{T}.wrongValue{k}",
                inputs=((entry, chain_t),),
                reads=((rp, ys),),
                guard=guard,
                outputs=((constr_viol, chain_t),),
                priority=P_HIGH,
            ),
            T, "check",
        )
        ok = b.transition(
            CpnTransition(
                name=f"{T}.valueOk{k}",
                inputs=((entry, chain_t),),
                outputs=((exit_, chain_t),),
                priority=P_LOW,
            ),
            T, "check",
        )
        return CheckStage("domain", entry, exit_, (("violation", viol.name), ("pass", ok.name)))

    raise ContractError(f"unsupported constraint kind {type(c).__name__}")
