"""Compilation of a three-layer net into a prioritized coloured net.

The output net simulates one atomic source firing with a chain of small
steps, serialized by a global lock:

    enter -> view stages -> guard -> update -> constraint checks
          -> consume/commit   (or)   undo/rollback

Relation places mirror the database (one token per fact); per-source-
transition gadget places carry a growing "chain" token that accumulates
the binding.  Every gadget transition is silent except the final commit
and rollback, which emit the source transition's label.

Most gadget transitions are *steps*: a step takes the chain token from
one stage place and puts it back unchanged on the next one (or on the
same one), and that pair of arcs comes first among its inputs and its
outputs, ahead of any fact or Done-token arcs.  ``_Gadget.step`` builds
every step, so the convention holds by construction.  Only ``enter``
(which makes the chain token), the compute stages (which widen it), the
cancels and the two exits (which consume it) are built otherwise.

Boolean bookkeeping uses an internal control colour: a ``lock`` token
plus ``true``/``false`` tokens in the per-update Done places (the
"no-op" places) that steer the undo net.
"""

from __future__ import annotations

import json
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
from .record import Record
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


class UpdateComponent(Record):
    kind: str  # "del" | "add"
    index: int  # 1-based within its kind
    relation: str
    terms: tuple  # inscription on the relation place
    entry: str
    exit: str
    done_place: str
    exists: str  # transition names
    not_exists: str


class CheckStage(Record):
    kind: str  # "key" | "ref" | "domain"
    entry: str
    exit: str
    names: tuple  # ((role, transition name), ...)


class UndoComponent(Record):
    kind: str  # "add" | "del"
    entry: str
    exit: str
    done_place: str
    do: str
    skip: str


class GadgetInfo(Record):
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


class TranslationOutput(Record, frozen=False):
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
        self.transitions: dict = {}  # name -> CpnTransition, in build order
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

    def transition(self, t: CpnTransition, source: str, phase: str) -> str:
        if t.name in self.transitions:
            raise ContractError(f"translated transition name collision: {t.name!r}")
        self.transitions[t.name] = t
        self.provenance[t.name] = (source, phase)
        return t.name


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

    gadgets = {}
    for t in model.transitions:
        gadgets[t.name] = _build_gadget(b, model, t, relation_places, lock_place, ctl_name)

    initial = snapshot_image(model.initial_snapshot(), relation_places)

    types = dict(model.types)
    types[ctl_name] = ctl
    net = NuCpn(
        name=f"{model.name}.translated",
        types=types,
        places=dict(b.places),
        transitions=tuple(b.transitions.values()),
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


def _plain(term):
    """The non-creating twin of a variable, for arcs that only copy it;
    any other term is itself."""
    return Variable(term.name, term.dtype) if isinstance(term, Variable) and term.fresh else term


def _colours(vars_) -> tuple:
    return tuple(v.dtype for v in vars_)


class _Gadget:
    """One source transition's gadget under construction.  Its elements
    are named ``{T}.<suffix>`` and attributed to ``T``; ``chain`` is the
    inscription of the chain token, which grows with each view stage."""

    def __init__(self, b: _Builder, T: str, chain: tuple):
        self.b, self.T, self.chain = b, T, chain

    def place(self, suffix: str, colours: tuple, cls: str, phase: str) -> str:
        return self.b.place(f"{self.T}.{suffix}", colours, cls, self.T, phase)

    def stage(self, suffix: str, cls: str, phase: str) -> str:
        """A place that holds the chain token."""
        return self.place(suffix, _colours(self.chain), cls, phase)

    def add(self, t: CpnTransition, phase: str) -> str:
        return self.b.transition(t, self.T, phase)

    def step(self, name: str, phase: str, src: str, dst: str, priority: int = P_NORMAL, *,
             inputs: tuple = (), reads: tuple = (), outputs: tuple = (),
             guard: Formula = TRUE) -> str:
        """The transition ``{T}.<name>`` that moves the chain token from
        ``src`` to ``dst``; that arc comes first among its inputs and
        among its outputs, ahead of the extra ``inputs`` and ``outputs``."""
        return self.add(
            CpnTransition(
                name=f"{self.T}.{name}",
                inputs=((src, self.chain),) + inputs,
                reads=reads,
                guard=guard,
                outputs=((dst, self.chain),) + outputs,
                priority=priority,
            ),
            phase,
        )


def _build_gadget(
    b: _Builder,
    model: DbNet,
    t: Transition,
    relation_places: dict,
    lock_place: str,
    ctl_name: str,
) -> GadgetInfo:
    T = t.name
    lock_tok, tok_true, tok_false = ((Value(ctl_name, w),) for w in (CTL_LOCK, CTL_TRUE, CTL_FALSE))
    scope = analyze_transition(t)
    base_vars = tuple(
        sorted(scope.input_vars + scope.fresh_vars + scope.external_vars, key=lambda v: v.name)
    )
    g = _Gadget(b, T, tuple(_plain(v) for v in base_vars))

    # --- enter ------------------------------------------------------------
    taken = tuple((p, tuple(vs)) for p, vs in t.inputs) + ((lock_place, lock_tok),)
    entered = g.stage("Entered", "Entered", "enter")
    g.add(
        CpnTransition(
            name=f"{T}.enter",
            inputs=taken,
            outputs=((entered, base_vars),),  # fresh markers live here
            priority=P_NORMAL,
        ),
        "enter",
    )

    cancels = []

    def cancel(name: str, phase: str, src: str, chain: tuple):
        # An empty view or a false guard must not strand the chain token:
        # a low-priority escape puts the inputs and the lock back.
        cancels.append(g.add(
            CpnTransition(name=f"{T}.{name}", inputs=((src, chain),), outputs=taken, priority=P_LOW),
            phase,
        ))

    # --- binding net: one sequential stage per view arc -------------------
    stage_place = entered
    compute_stages = []
    for i, (vplace_name, arc_vars) in enumerate(t.views, start=1):
        query: UcqQuery = model.queries[model.view_places[vplace_name].query]
        chain = g.chain
        chain_names = {v.name for v in chain}
        g.chain += tuple(sorted(
            {v.name: v for v in arc_vars if v.name not in chain_names}.values(),
            key=lambda v: v.name,
        ))
        if i == len(t.views):
            next_place = g.stage("Bound", "Bound", "binding")
        else:
            next_place = g.stage(f"V{i}Computed", CLASS_INTERMEDIATE, "binding")
        stage_transitions = []
        multi = len(query.disjuncts) > 1
        for j, conj in enumerate(query.disjuncts, start=1):
            reads, guard = _compile_conjunct(T, i, j, query, conj, arc_vars, relation_places)
            stage_transitions.append(g.add(
                CpnTransition(
                    name=f"{T}.computeV{i}" + (f".d{j}" if multi else ""),
                    inputs=((stage_place, chain),),
                    reads=reads,
                    guard=guard,
                    outputs=((next_place, g.chain),),
                    priority=P_NORMAL,
                ),
                "binding",
            ))
        compute_stages.append(tuple(stage_transitions))
        cancel(f"cancel{i - 1}", "binding", stage_place, chain)
        stage_place = next_place

    bound = stage_place  # equals Entered when there are no views

    # --- guard stage -------------------------------------------------------
    guard_ok = g.stage("GuardOk", "GuardOk", "guard")
    cond = g.step("cond", "guard", bound, guard_ok, P_HIGH, guard=t.guard)
    cancel("cancel", "guard", bound, g.chain)

    # --- update net ---------------------------------------------------------
    action: Optional[Action] = model.actions[t.action[0]] if t.action else None
    components = []
    if action is not None:
        args = tuple(_plain(a) for a in t.action[1])
        param_map = {p.name: a for p, a in zip(action.params, args)}
        for i, (rel, terms) in enumerate(action.dels, start=1):
            components.append(("del", i, rel, ground(terms, param_map)))
        for i, (rel, terms) in enumerate(action.adds, start=1):
            components.append(("add", i, rel, ground(terms, param_map)))

    update_components = []
    if components:
        updated = g.stage("Updated", "Updated", "update")
        hops = [guard_ok]
        for j in range(1, len(components)):
            hops.append(g.stage(f"U{j}", CLASS_INTERMEDIATE, "update"))
        hops.append(updated)
        for (kind, i, rel, terms), entry, exit_ in zip(components, hops, hops[1:]):
            fact = (relation_places[rel], terms)
            tag = "D" if kind == "del" else "A"
            done = g.place(f"Done{tag}{i}", (ctl_name,), "Done", "update")
            changed, unchanged = (done, tok_true), (done, tok_false)
            if kind == "del":
                exists = g.step(f"existsD{i}", "update", entry, exit_, P_HIGH,
                                inputs=(fact,), outputs=(changed,))
                absent = g.step(f"notExistsD{i}", "update", entry, exit_, P_LOW,
                                outputs=(unchanged,))
            else:
                exists = g.step(f"existsA{i}", "update", entry, exit_, P_HIGH,
                                reads=(fact,), outputs=(unchanged,))
                absent = g.step(f"notExistsA{i}", "update", entry, exit_, P_LOW,
                                outputs=(fact, changed))
            update_components.append(
                UpdateComponent(kind, i, rel, terms, entry, exit_, done, exists, absent)
            )
    else:
        updated = guard_ok

    # --- constraint check net ----------------------------------------------
    constr_viol = g.stage("ConstrViol", "ConstrViol", "check")
    check_stages = []
    constraints = tuple(model.schema.constraints) if action is not None else ()
    if constraints:
        constr_ok = g.stage("ConstrOk", "ConstrOk", "check")
        entry = updated
        for k, c in enumerate(constraints, start=1):
            exit_ = (
                constr_ok
                if k == len(constraints)
                else g.stage(f"C{k}Ok", CLASS_INTERMEDIATE, "check")
            )
            check_stages.append(
                _build_check_stage(g, model, k, c, entry, exit_, constr_viol, relation_places)
            )
            entry = exit_
    else:
        constr_ok = updated

    # --- undo net ------------------------------------------------------------
    do_rollback = g.stage("DoRollback", "DoRollback", "undo")
    undo_components = []
    if update_components:
        # Additions are reverted first, then deletions; within each group
        # the order is the reverse of the update order.
        adds = [c for c in reversed(update_components) if c.kind == "add"]
        dels = [c for c in reversed(update_components) if c.kind == "del"]
        sequence = adds + dels
        hops = [constr_viol]
        for j in range(1, len(sequence)):
            hops.append(g.stage(f"R{j}", CLASS_INTERMEDIATE, "undo"))
        hops.append(do_rollback)
        for comp, entry, exit_ in zip(sequence, hops, hops[1:]):
            fact = (relation_places[comp.relation], comp.terms)
            changed = (comp.done_place, tok_true)
            if comp.kind == "add":
                do = g.step(f"revertA{comp.index}", "undo", entry, exit_,
                            inputs=(changed, fact))
                tag = "A"
            else:
                do = g.step(f"revertD{comp.index}", "undo", entry, exit_,
                            inputs=(changed,), outputs=(fact,))
                tag = "D"
            skip = g.step(f"skipRevert{tag}{comp.index}", "undo", entry, exit_,
                          inputs=((comp.done_place, tok_false),))
            undo_components.append(
                UndoComponent(comp.kind, entry, exit_, comp.done_place, do, skip)
            )
    else:
        # Unreachable without an action, but kept for structural uniformity.
        g.step("skipUndo", "undo", constr_viol, do_rollback)

    # --- consume net and the two observable exits ----------------------------
    do_commit = g.stage("DoCommit", "DoCommit", "finish")
    done_arcs = tuple(
        (comp.done_place, (Variable(f"{T}.b{idx}", ctl_name),))
        for idx, comp in enumerate(update_components)
    )
    g.step("emptyNoOp", "finish", constr_ok, do_commit, inputs=done_arcs)
    emit_names = tuple(v.name for v in scope.order)

    def finish(place: str, arcs: tuple, outcome: str) -> str:
        # Name creation happened back at the enter step; the exits only
        # copy the chain, so their inscriptions carry the plain variables.
        return g.add(
            CpnTransition(
                name=f"{T}.{outcome}",
                inputs=((place, g.chain),),
                outputs=tuple(
                    (p, tuple(_plain(x) for x in terms)) for p, terms in arcs
                ) + ((lock_place, lock_tok),),
                priority=P_NORMAL,
                emit=Emit(T, outcome, emit_names),
            ),
            "finish",
        )

    commit = finish(do_commit, t.outputs, "commit")
    rollback = finish(do_rollback, t.rollbacks, "rollback")
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
    g: _Gadget,
    model: DbNet,
    k: int,
    c,
    entry: str,
    exit_: str,
    constr_viol: str,
    relation_places: dict,
) -> CheckStage:
    """Check stage ``k``: the chain token goes on from ``entry`` to
    ``exit_`` when the database satisfies ``c``, and to ``constr_viol``
    when it does not."""

    def step(name: str, src: str, dst: str, priority: int = P_NORMAL, **arcs) -> str:
        return g.step(f"{name}{k}", "check", src, dst, priority, **arcs)

    def columns(rel, letter: str) -> tuple:
        # one variable {T}.c{k}.{letter}{j} per column j of rel
        return tuple(
            Variable(f"{g.T}.c{k}.{letter}{j}", dtype) for j, dtype in enumerate(rel.column_types)
        )

    if isinstance(c, (PrimaryKey, DomainConstraint)):
        # A violating fact (or pair of facts) fires the violation at high
        # priority; the pass, at low priority, fires only when none does.
        rel = model.schema.relation(c.relation)
        rp = relation_places[c.relation]
        ys = columns(rel, "y")
        if isinstance(c, PrimaryKey):
            kind, viol_name, ok_name = "key", "repeatedKey", "keyOk"
            ws = columns(rel, "w")
            reads = ((rp, ys), (rp, ws))
            # Two facts that agree on the key columns and differ elsewhere.
            # A key over every column can never be violated under set
            # semantics; its empty disjunction is unsatisfiable.
            guard = And(
                tuple(Compare("=", ys[j], ws[j]) for j in c.cols)
                + (Or(tuple(Compare("!=", ys[j], ws[j]) for j in range(rel.arity)
                            if j not in c.cols)),)
            )
        else:
            kind, viol_name, ok_name = "domain", "wrongValue", "valueOk"
            reads = ((rp, ys),)
            guard = And(tuple(Compare("!=", ys[c.col], v) for v in c.allowed))
        viol = step(viol_name, entry, constr_viol, P_HIGH, reads=reads, guard=guard)
        ok = step(ok_name, entry, exit_, P_LOW)
        return CheckStage(kind, entry, exit_, (("violation", viol), ("pass", ok)))

    if isinstance(c, ForeignKey):
        src = model.schema.relation(c.source)
        rp = relation_places[c.source]
        sp = relation_places[c.target]
        ys = columns(src, "y")
        # The target inscription shares the referencing variables, which
        # realizes the match condition by unification.
        ws = tuple(
            ys[c.source_cols[c.target_cols.index(j)]] if j in c.target_cols else w
            for j, w in enumerate(columns(model.schema.relation(c.target), "w"))
        )
        seen = g.place(f"C{k}Seen", src.column_types, CLASS_INTERMEDIATE, "check")
        violp = g.stage(f"C{k}ViolPending", CLASS_INTERMEDIATE, "check")
        passp = g.stage(f"C{k}PassPending", CLASS_INTERMEDIATE, "check")
        # Exhaustive scan: matched source tokens are parked in Seen until
        # either the source place drains (pass) or only unmatched tokens
        # remain (violation); afterwards the parked tokens are restored.
        park = {"inputs": ((rp, ys),), "outputs": ((seen, ys),)}
        names = [("scan", step("fkScan", entry, entry, P_HIGH, reads=((sp, ws),), **park))]
        if c.source == c.target:
            # The witness row may itself already be parked in Seen, so a
            # self-reference needs a second scan variant that matches there.
            names.append(
                ("scan-self", step("fkScanSelf", entry, entry, P_HIGH, reads=((seen, ws),), **park))
            )
        rs = columns(src, "r")
        unpark = {"inputs": ((seen, rs),), "outputs": ((rp, rs),)}
        names += [
            ("violation", step("fkViol", entry, violp, reads=((rp, columns(src, "u")),))),
            ("pass", step("fkPass", entry, passp, P_LOW)),
            ("restore-violation", step("fkRestoreViol", violp, violp, P_HIGH, **unpark)),
            ("restore-pass", step("fkRestorePass", passp, passp, P_HIGH, **unpark)),
            ("emit-violation", step("fkEmitViol", violp, constr_viol, P_LOW)),
            ("emit-pass", step("fkEmitPass", passp, exit_, P_LOW)),
        ]
        return CheckStage("ref", entry, exit_, tuple(names))

    raise ContractError(f"unsupported constraint kind {type(c).__name__}")
