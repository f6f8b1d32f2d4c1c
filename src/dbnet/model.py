"""The three-layer net model and its execution semantics.

A model couples a relational schema (persistence layer), view queries and
parameterized actions (data logic layer) with a coloured control net whose
transitions may read views, call one action, and route tokens differently
depending on whether the action committed or rolled back.

States are snapshots ``(database instance, control marking)``.  Firings
are atomic at this layer: query evaluation, the update, the constraint
check and the token moves all happen in one step.  The translated form in
:mod:`dbnet.translate` stretches the same step over many small ones.

:func:`fire` checks that a binding is enabled (:func:`binding_problem`,
as :func:`dbnet.cpn.cpn_fire` does) and then applies it; :func:`build_lts`
applies only bindings it found itself, with no second check.  Both apply
a firing the same way (:func:`_firing`, :func:`_apply`): one
:func:`~dbnet.relational.apply_action`, which checks only the
constraints the update can break, and one ``Marking.apply`` of the
outcome's per-place deltas.  :func:`build_lts` also memoises, for one
exploration, each transition's firings per content of its input places
and answers of its view queries, the way :func:`dbnet.cpn.cpn_build_lts`
does on the translated side; a transition with a fresh variable is bound
afresh at every state, since its fresh values depend on the whole
snapshot.  It memoises each transaction, steps each place through a
``(record, delta)`` table as the translated side does, and keeps one
object per distinct instance and marking (hash-consing, as in Filliâtre
& Conchon, ML 2006, applied to whole state components, which SPIN's
collapse compression stores once each; Holzmann, SPIN 1997).  On shop
5x5 under ``bounded:2`` (16,181 states) that takes ``bind_transition``
from 145,629 calls to 721, ``check_constraint`` from 70,020 to 4,167
and ``apply_action`` from 10,460 to 2,800; its 31,510 token moves step
through 571 distinct ``(record, delta)`` pairs, and its states hold 352
``Instance`` and 5,501 ``Marking`` objects, one per distinct value,
where they held 951 and 16,181.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Optional

from .fo import And, Compare, Formula, Not, Or, Truth, TRUE, _compare
from .freshness import FreshPolicy
from .marking import Marking, place_deltas, render_token
from .queries import eval_ucq, join, validate_view_query
from .record import Record, _refuse, factory
from .relational import (
    COMMITTED,
    ContractError,
    Instance,
    Schema,
    Value,
    Variable,
    _fact_sort_key,
    active_domain,
    apply_action,
    check_constraint,
    ground,
    instance_lines,
    render_value,
)
from .lts import Lts, explore

__all__ = [
    "ControlPlace",
    "ViewPlace",
    "Transition",
    "DbNet",
    "Snapshot",
    "TransitionScope",
    "analyze_transition",
    "eval_guard",
    "validate",
    "bind_transition",
    "binding_problem",
    "enabled_bindings",
    "fire",
    "build_lts",
    "binding_label",
    "render_snapshot",
]

_set = object.__setattr__


class ControlPlace(Record):
    name: str
    column_types: tuple  # tuple of type names


class ViewPlace(Record):
    """A place whose content is not stored but assigned: it always holds
    exactly the answers of its query on the current database instance."""

    name: str
    query: str


class Transition(Record):
    name: str
    inputs: tuple = ()  # (control place name, tuple of Variable)
    views: tuple = ()  # (view place name, tuple of Variable)
    guard: Formula = TRUE
    action: Optional[tuple] = None  # (action name, tuple of Term)
    outputs: tuple = ()  # (control place name, tuple of Term)
    rollbacks: tuple = ()  # (control place name, tuple of Term)


class Snapshot:
    """A state: database instance and control marking, with its hash computed once."""

    __slots__ = ("instance", "marking", "_hash")

    def __init__(self, instance: Instance, marking: Marking):
        _set(self, "instance", instance)
        _set(self, "marking", marking)
        _set(self, "_hash", hash((instance, marking)))

    __setattr__ = __delattr__ = _refuse

    def __eq__(self, other):
        if other.__class__ is not Snapshot:
            return NotImplemented
        return self is other or (self._hash == other._hash and (
            self.instance, self.marking) == (other.instance, other.marking))  # tuples try `is` first

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Snapshot(instance={self.instance!r}, marking={self.marking!r})"

    def __reduce__(self):
        return (Snapshot, (self.instance, self.marking))


class DbNet(Record, frozen=False):
    name: str
    types: dict  # type name -> DataType
    schema: Schema
    queries: dict  # query name -> UcqQuery
    actions: dict  # action name -> Action
    control_places: dict  # name -> ControlPlace
    view_places: dict  # name -> ViewPlace
    transitions: tuple
    initial_instance: Instance
    initial_marking: Marking
    samples: dict = factory(dict)  # type name -> tuple of Value
    default_policy: FreshPolicy = factory(FreshPolicy)

    def initial_snapshot(self) -> Snapshot:
        return Snapshot(self.initial_instance, self.initial_marking)

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise ContractError(f"no transition named {name!r}")


# ---------------------------------------------------------------------------
# Variable scoping


class TransitionScope(Record):
    """Where each variable of a transition gets its value from."""

    input_vars: tuple  # bound by consuming control tokens
    view_vars: tuple  # bound by matching a view answer
    fresh_vars: tuple  # name-creation variables
    external_vars: tuple  # free in outputs/guard/action, fed from samples
    order: tuple  # every variable, sorted by name: the binding domain


def _walk_guard_vars(f: Formula, acc: dict):
    if isinstance(f, Truth):
        return
    if isinstance(f, Compare):
        for t in (f.left, f.right):
            if isinstance(t, Variable):
                acc.setdefault(t.name, t)
        return
    if isinstance(f, Not):
        _walk_guard_vars(f.sub, acc)
        return
    if isinstance(f, (And, Or)):
        for p in f.parts:
            _walk_guard_vars(p, acc)
        return
    raise ContractError(f"guards cannot contain {type(f).__name__} nodes")


def analyze_transition(t: Transition) -> TransitionScope:
    """Classify every variable of ``t``.  Inputs win over views for the
    purpose of the bookkeeping; a name used in both is a join."""
    by_name: dict = {}
    inputs: dict = {}
    views: dict = {}
    for _, vars_ in t.inputs:
        for v in vars_:
            by_name.setdefault(v.name, v)
            inputs.setdefault(v.name, v)
    for _, vars_ in t.views:
        for v in vars_:
            by_name.setdefault(v.name, v)
            if v.name not in inputs:
                views.setdefault(v.name, v)
    fresh: dict = {}
    external: dict = {}
    rest: dict = {}
    _walk_guard_vars(t.guard, rest)
    if t.action is not None:
        for term in t.action[1]:
            if isinstance(term, Variable):
                rest.setdefault(term.name, term)
    for _, terms in tuple(t.outputs) + tuple(t.rollbacks):
        for term in terms:
            if isinstance(term, Variable):
                rest.setdefault(term.name, term)
    for name, v in rest.items():
        by_name.setdefault(name, v)
        if name in inputs or name in views:
            continue
        if v.fresh:
            fresh.setdefault(name, v)
        else:
            external.setdefault(name, v)
    order = tuple(by_name[n] for n in sorted(by_name))
    pick = lambda d: tuple(d[n] for n in sorted(d))
    return TransitionScope(
        input_vars=pick(inputs),
        view_vars=pick(views),
        fresh_vars=pick(fresh),
        external_vars=pick(external),
        order=order,
    )


def eval_guard(guard: Formula, theta: Mapping[str, Value]) -> bool:
    if isinstance(guard, Truth):
        return True
    if isinstance(guard, Compare):
        left = theta[guard.left.name] if isinstance(guard.left, Variable) else guard.left
        right = theta[guard.right.name] if isinstance(guard.right, Variable) else guard.right
        return _compare(guard.op, left, right)
    if isinstance(guard, Not):
        return not eval_guard(guard.sub, theta)
    if isinstance(guard, And):
        return all(eval_guard(p, theta) for p in guard.parts)
    if isinstance(guard, Or):
        return any(eval_guard(p, theta) for p in guard.parts)
    raise ContractError(f"guards cannot contain {type(guard).__name__} nodes")


# ---------------------------------------------------------------------------
# Validation


def validate(model: DbNet) -> list:
    """Every structural problem in the model, as readable strings.  An
    empty result means the model is well-formed and the initial snapshot
    is admissible."""
    problems: list = []
    problems.extend(model.schema.validate(model.types))
    for q in model.queries.values():
        problems.extend(validate_view_query(model.types, model.schema, q))
    for a in model.actions.values():
        problems.extend(a.validate(model.schema))
        for p in a.params:
            if p.dtype not in model.types:
                problems.append(f"action {a.name}: parameter {p.name} has unknown type {p.dtype!r}")

    names = [p for p in model.control_places] + [p for p in model.view_places]
    if len(set(names)) != len(names):
        problems.append("control and view place names overlap")
    for place in model.control_places.values():
        for i, tn in enumerate(place.column_types):
            if tn not in model.types:
                problems.append(f"place {place.name}: column {i + 1} has unknown type {tn!r}")
    for vp in model.view_places.values():
        if vp.query not in model.queries:
            problems.append(f"view place {vp.name}: unknown query {vp.query!r}")

    tnames = [t.name for t in model.transitions]
    if len(set(tnames)) != len(tnames):
        problems.append("duplicate transition name")
    for t in model.transitions:
        problems.extend(_validate_transition(model, t))

    for tn, values in model.samples.items():
        if tn not in model.types:
            problems.append(f"sample domain for unknown type {tn!r}")
            continue
        for v in values:
            if v.dtype != tn:
                problems.append(f"sample domain of {tn}: value {v!r} of wrong type")

    problems.extend(f"initial database: {p}" for p in model.initial_instance.typecheck())
    if not problems:
        for c in model.schema.constraints:
            if not check_constraint(model.initial_instance, c):
                problems.append(f"initial database violates a constraint ({type(c).__name__})")
    for place in model.initial_marking.places_marked():
        if place not in model.control_places:
            problems.append(f"initial marking on unknown place {place!r}")
            continue
        cols = model.control_places[place].column_types
        for tok, _ in model.initial_marking.tokens(place):
            if len(tok) != len(cols) or any(v.dtype != tn for v, tn in zip(tok, cols)):
                problems.append(f"initial marking: token {tok!r} does not fit place {place!r}")
    return problems


def _inscription_types(model: DbNet, place: str):
    if place in model.control_places:
        return model.control_places[place].column_types
    if place in model.view_places:
        q = model.queries.get(model.view_places[place].query)
        if q is not None:
            return tuple(v.dtype for v in q.head)
    return None


def _validate_transition(model: DbNet, t: Transition) -> list:
    problems: list = []
    who = f"transition {t.name}"

    for place, vars_ in t.inputs:
        if place in model.view_places:
            problems.append(f"{who}: view place {place!r} used as consuming input")
            continue
        if place not in model.control_places:
            problems.append(f"{who}: input from unknown place {place!r}")
            continue
        problems.extend(_check_inscription(model, who, place, vars_, require_vars=True))
    for place, vars_ in t.views:
        if place not in model.view_places:
            problems.append(f"{who}: view arc from non-view place {place!r}")
            continue
        problems.extend(_check_inscription(model, who, place, vars_, require_vars=True))

    try:
        scope = analyze_transition(t)
    except ContractError as e:
        return problems + [f"{who}: {e}"]

    # Type agreement: one variable name, one type.
    seen: dict = {}
    def note(v: Variable):
        prev = seen.get(v.name)
        if prev is not None and prev.dtype != v.dtype:
            problems.append(f"{who}: variable {v.name} used at types {prev.dtype} and {v.dtype}")
        seen.setdefault(v.name, v)

    for _, vars_ in tuple(t.inputs) + tuple(t.views):
        for v in vars_:
            note(v)
            if v.fresh:
                problems.append(f"{who}: fresh variable {v.name} cannot appear on an input arc")
    for _, terms in tuple(t.outputs) + tuple(t.rollbacks):
        for term in terms:
            if isinstance(term, Variable):
                note(term)
    guard_vars: dict = {}
    try:
        _walk_guard_vars(t.guard, guard_vars)
    except ContractError as e:
        problems.append(f"{who}: {e}")
    for v in guard_vars.values():
        note(v)

    for v in scope.fresh_vars:
        if v.dtype not in model.types:
            problems.append(f"{who}: fresh variable {v.name} has unknown type {v.dtype!r}")
    for v in scope.external_vars:
        if not model.samples.get(v.dtype):
            problems.append(
                f"{who}: variable {v.name} is bound nowhere and type {v.dtype} has no sample domain"
            )

    if t.action is not None:
        aname, args = t.action
        action = model.actions.get(aname)
        if action is None:
            problems.append(f"{who}: unknown action {aname!r}")
        else:
            if len(args) != len(action.params):
                problems.append(f"{who}: action {aname} takes {len(action.params)} arguments")
            else:
                for term, param in zip(args, action.params):
                    dt = term.dtype if not isinstance(term, Variable) else seen.get(term.name, term).dtype
                    if dt != param.dtype:
                        problems.append(
                            f"{who}: action {aname} argument {param.name} expects {param.dtype}, got {dt}"
                        )
    elif t.rollbacks:
        problems.append(f"{who}: rollback outputs make no sense without an action")

    for place, terms in tuple(t.outputs) + tuple(t.rollbacks):
        if place in model.view_places:
            problems.append(f"{who}: cannot output to view place {place!r}")
            continue
        if place not in model.control_places:
            problems.append(f"{who}: output to unknown place {place!r}")
            continue
        problems.extend(_check_inscription(model, who, place, terms, require_vars=False))
    return problems


def _check_inscription(model: DbNet, who: str, place: str, terms, require_vars: bool) -> list:
    problems = []
    expected = _inscription_types(model, place)
    if expected is None:
        return problems
    if len(terms) != len(expected):
        return [f"{who}: inscription on {place!r} has arity {len(terms)}, place wants {len(expected)}"]
    for i, term in enumerate(terms):
        if isinstance(term, Variable):
            if term.dtype != expected[i]:
                problems.append(
                    f"{who}: {place} position {i + 1} is {expected[i]}, variable {term.name} is {term.dtype}"
                )
        elif require_vars:
            problems.append(f"{who}: inscription on {place!r} must use variables only")
        elif term.dtype != expected[i]:
            problems.append(f"{who}: {place} position {i + 1} constant of wrong type")
    return problems


# ---------------------------------------------------------------------------
# Enabled bindings and firing


def bind_transition(net, marking: Marking, t, reads: tuple, rows: Callable, external_vars: tuple,
                    fresh_vars: tuple, used: Callable, policy: FreshPolicy) -> list:
    """The enabled bindings of one transition, in a fixed order: the
    procedure that both net layers bind with.

    ``t.inputs`` are joined (:func:`dbnet.queries.join`) against the
    tokens of ``marking``; with two or more inputs, only the bindings
    whose grounded inputs ``marking`` covers as a multiset are kept.  The
    read-like arcs ``reads`` are then joined against ``rows(place)``.
    ``external_vars`` range over the sorted samples of their type;
    ``fresh_vars`` (sorted by name) branch over ``policy.candidates``,
    avoiding ``used(type name)`` and the earlier picks of the same
    firing.  The guard filters last.

    No binding comes out twice: distinct token and row choices give
    distinct bindings, and a sample value listed twice is taken once.
    """
    thetas = join([{}], t.inputs, marking.tokens)
    if len(t.inputs) > 1:  # a single token drawn from the marking is always there
        thetas = [
            theta for theta in thetas
            if marking.covers([(place, ground(terms, theta)) for place, terms in t.inputs])
        ]
    thetas = join(thetas, reads, rows)
    if not thetas:
        return thetas

    for var in external_vars:
        values = list(dict.fromkeys(sorted(net.samples.get(var.dtype, ()), key=Value.sort_key)))
        thetas = [{**theta, var.name: v} for theta in thetas for v in values]

    for i, var in enumerate(fresh_vars):
        dtype = net.types[var.dtype]
        avoid = used(var.dtype)
        earlier = [f.name for f in fresh_vars[:i] if f.dtype == var.dtype]
        grown = []
        for theta in thetas:
            for v in policy.candidates(dtype, avoid.union(theta[n] for n in earlier)):
                grown.append({**theta, var.name: v})
        thetas = grown

    return [theta for theta in thetas if eval_guard(t.guard, theta)]


def binding_problem(net, marking: Marking, t, reads: tuple, has_row: Callable,
                    external_vars: tuple, fresh_vars: tuple, used: Callable,
                    theta: Mapping[str, Value]) -> Optional[str]:
    """Why the binding ``theta`` of ``t`` is not enabled, or None: the
    check that both net layers fire with.  The arguments are
    :func:`bind_transition`'s, with ``has_row(place, row)`` in place of
    ``rows`` and no policy: a fresh value may be any value outside
    ``used`` and the other picks."""
    names = {term.name for _, terms in (*t.inputs, *reads) for term in terms
             if isinstance(term, Variable)}
    missing = sorted(names.union(v.name for v in (*external_vars, *fresh_vars)) - theta.keys())
    if missing:
        return f"binding misses {missing}"
    if not marking.covers([(place, ground(terms, theta)) for place, terms in t.inputs]):
        return "input tokens not available"
    for place, terms in reads:
        row = ground(terms, theta)
        if not has_row(place, row):
            return f"{place} does not contain {render_token(row)}"
    for var in external_vars:
        if theta[var.name] not in net.samples.get(var.dtype, ()):
            return f"{var.name} outside its sample domain"
    picked: set = set()
    for var in fresh_vars:
        v = theta[var.name]
        if v in picked or v in used(var.dtype):
            return f"value for {var.name} is not fresh"
        picked.add(v)
    if not eval_guard(t.guard, theta):
        return "guard rejects the binding"
    return None


def _marking_values(marking: Marking, dtype: str) -> set:
    return {v for v in marking.all_values() if v.dtype == dtype}


def _used_values(instance: Instance, marking: Marking, dtype: str) -> set:
    """What a fresh value must avoid: the active domain and the marking."""
    return active_domain(instance, dtype) | _marking_values(marking, dtype)


def enabled_bindings(model: DbNet, snap: Snapshot, policy: Optional[FreshPolicy] = None) -> list:
    """All ``(transition, binding)`` pairs enabled in ``snap``; binding
    domain is the transition's full variable scope.  Deterministic order."""
    policy = policy or model.default_policy
    out = []
    for t in model.transitions:
        for theta in transition_bindings(model, snap, t, analyze_transition(t), policy):
            out.append((t, theta))
    return out


def transition_bindings(model: DbNet, snap: Snapshot, t: Transition, scope: TransitionScope,
                        policy: FreshPolicy) -> list:
    """The bindings of ``t``, whose scope is ``scope``, in ``snap``.  A
    view arc reads the answers of its query, in sorted order; a fresh
    value avoids the active domain as well as the marking."""

    def view_rows(place: str) -> list:
        answers = eval_ucq(snap.instance, model.queries[model.view_places[place].query])
        return [(row, 1) for row in sorted(answers, key=_fact_sort_key)]

    return bind_transition(model, snap.marking, t, t.views, view_rows, scope.external_vars,
                           scope.fresh_vars, partial(_used_values, snap.instance, snap.marking),
                           policy)


def fire(model: DbNet, snap: Snapshot, t: Transition, theta: Mapping[str, Value]):
    """One atomic firing.  Returns ``(successor, outcome)`` where outcome
    is ``"commit"`` or ``"rollback"``.  Raises ``ContractError``, naming
    the reason, if the binding is not enabled in ``snap``."""
    def has_row(place, row):
        return row in eval_ucq(snap.instance, model.queries[model.view_places[place].query])

    scope = analyze_transition(t)
    problem = binding_problem(model, snap.marking, t, t.views, has_row, scope.external_vars,
                              scope.fresh_vars, partial(_used_values, snap.instance, snap.marking),
                              theta)
    if problem is not None:
        raise ContractError(f"transition {t.name}: {problem}")
    succ, label = _apply(snap, _firing(model, t, scope, theta), apply_action,
                         partial(Marking.apply, table=None))
    return succ, label[3]


def _firing(model: DbNet, t: Transition, scope: TransitionScope, theta: Mapping[str, Value]):
    """The firing of one enabled binding, apart from the database:
    ``(action, call, commit, rollback)``.  ``action`` and ``call`` are the
    action and its arguments, or None and None; ``commit`` and
    ``rollback`` are the ``(deltas, label)`` of each outcome, its token
    move as per-place deltas (``rollback`` is None without an action)."""
    removals = tuple((place, ground(vars_, theta)) for place, vars_ in t.inputs)

    def emit(arcs, outcome):
        additions = [(place, ground(terms, theta)) for place, terms in arcs]
        return place_deltas(removals, additions), binding_label(t.name, scope, theta, outcome)

    if t.action is None:
        return None, None, emit(t.outputs, "commit"), None
    aname, args = t.action
    action = model.actions[aname]
    call = dict(zip((p.name for p in action.params), ground(args, theta)))
    return action, call, emit(t.outputs, "commit"), emit(t.rollbacks, "rollback")


def _apply(snap: Snapshot, firing: tuple, run: Callable, move: Callable):
    """``(successor, label)``: run the firing's action on the instance by
    ``run(instance, action, call)``, which returns ``(instance', status)``
    as :func:`~dbnet.relational.apply_action` does, and move the tokens of
    the outcome by ``move(marking, deltas)``, which returns the marking
    as ``Marking.apply`` does."""
    action, call, commit, rollback = firing
    instance = snap.instance
    deltas, label = commit
    if action is not None:
        instance, status = run(instance, action, call)
        if status != COMMITTED:
            deltas, label = rollback
    return Snapshot(instance, move(snap.marking, deltas)), label


def binding_label(t_name: str, scope: TransitionScope, theta: Mapping[str, Value], outcome: str):
    pairs = tuple((v.name, render_value(theta[v.name])) for v in scope.order)
    return ("obs", t_name, pairs, outcome)


def render_snapshot(snap: Snapshot) -> str:
    return "; ".join(instance_lines(snap.instance)) + " | " + snap.marking.render()


def build_lts(
    model: DbNet,
    policy: Optional[FreshPolicy] = None,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Lts:
    """Exhaustive reachability graph of the model under the policy.  Edge
    labels expose the transition name, the full binding and the outcome.
    Refuses unbounded freshness, whose branching is infinite by design.

    Following the locality principle of CPN simulators (Mortensen, CPN
    Workshop 2001), the bindings of a transition depend only on the tokens
    of its input places and the answers of its view queries.  For the
    length of this call, each transition's firings (see :func:`_firing`)
    are memoised per content of its input places (``Marking.records``)
    and answer set of each view arc; a successor is then one
    :func:`apply_action` and one ``Marking.apply``, with no second check
    of enabledness.  A transition with an unmarked input place is skipped
    before its views are evaluated.  A transition with a fresh variable is
    never memoised: its fresh values avoid the whole active domain and
    every token, which no key of its own places and views captures.

    A successor's instance is memoised per ``(instance, action name,
    argument values in parameter order)``, the pure function
    :func:`apply_action` of that key, and its marking steps through one
    table of next place records, ``(record or None, delta) -> next record
    or None`` (``Marking.apply``), as :func:`dbnet.cpn.cpn_build_lts`
    steps the translated net.  Each new instance and marking is first
    replaced by the one object kept for its value, starting with the
    initial snapshot's; so every state holds the one object of its
    instance and of its marking, and states with equal instances share
    its view answers and its known consistency.  This is exact: equal
    instances have equal facts, so an action has equal outcomes on them
    (the delta rule of :func:`apply_action` decides only which
    constraints it checks, and it is sound).  On shop 5x5 under
    ``bounded:2`` it takes ``apply_action`` from 10,460 calls to 2,800,
    and the 31,510 token moves step through 571 distinct ``(record,
    delta)`` pairs."""
    policy = policy or model.default_policy
    if not policy.finite_branching:
        raise ContractError(
            "state-space construction requires a finite freshness policy "
            "(recycling or bounded); got unbounded"
        )

    table = []  # (position, transition, scope, input places, their set, view queries)
    for position, t in enumerate(model.transitions):
        inputs = tuple(place for place, _ in t.inputs)
        queries = tuple(model.queries[model.view_places[place].query] for place, _ in t.views)
        table.append((position, t, analyze_transition(t), inputs, frozenset(inputs), queries))
    # (position, input place records, view answers) -> the transition's
    # firings, for this exploration only
    memo: dict = {}
    # the transactions, the next place records, and one object per
    # distinct instance and marking, for this exploration only
    initial = model.initial_snapshot()
    instances = {initial.instance: initial.instance}
    markings = {initial.marking: initial.marking}
    transactions: dict = {}  # (instance, action name, arguments) -> (instance', status)
    nexts: dict = {}  # (record or None, delta) -> next record or None

    def run(instance, action, call):
        key = (instance, action.name, tuple(call.values()))
        found = transactions.get(key)
        if found is None:
            after, status = apply_action(instance, action, call)
            found = transactions[key] = (instances.setdefault(after, after), status)
        return found

    def move(marking, deltas):
        after = marking.apply(deltas, nexts)
        return markings.setdefault(after, after)

    def firings(snap: Snapshot, position, t, scope, inputs, queries) -> list:
        key = None
        if not scope.fresh_vars:
            key = (position, snap.marking.records(inputs),
                   tuple(eval_ucq(snap.instance, q) for q in queries))
            found = memo.get(key)
            if found is not None:
                return found
        found = [_firing(model, t, scope, theta)
                 for theta in transition_bindings(model, snap, t, scope, policy)]
        if key is not None:
            memo[key] = found
        return found

    def step(snap: Snapshot):
        marked = snap.marking.marked()
        steps = []
        for position, t, scope, inputs, needed, queries in table:
            if not marked >= needed:
                continue
            for firing in firings(snap, position, t, scope, inputs, queries):
                succ, label = _apply(snap, firing, run, move)
                steps.append((label, succ))
        return steps

    return explore(initial, step, max_states=max_states, max_depth=max_depth)
