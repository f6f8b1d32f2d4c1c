"""Typed values, relation schemas, database instances, constraints and actions.

This is the persistence layer of the three-layer model: a finite set of
pairwise-disjoint data types, typed relations, finite fact sets with set
semantics, and transactional action application (delete before add, commit
only if every constraint holds).
"""

from __future__ import annotations

import threading
import weakref
from decimal import Decimal, InvalidOperation
from typing import Iterable, Mapping, Optional, Union

from .record import Record, _refuse

__all__ = [
    "DataType",
    "Value",
    "Variable",
    "Term",
    "RelationSchema",
    "PrimaryKey",
    "ForeignKey",
    "DomainConstraint",
    "Constraint",
    "Schema",
    "Instance",
    "Action",
    "Binding",
    "ContractError",
    "ValidationError",
    "canon_decimal",
    "ground",
    "make_value",
    "null_value",
    "render_value",
    "render_fact",
    "instance_lines",
    "active_domain",
    "check_constraint",
    "apply_action",
    "COMMITTED",
    "ROLLED_BACK",
]

COMMITTED = "committed"
ROLLED_BACK = "rolled_back"

# Payload kinds.  String-like and integer-like domains are countably
# infinite; real-like uses exact decimals so token identity is bit-stable.
KIND_STRING = "string"
KIND_INT = "int"
KIND_REAL = "real"
_KINDS = (KIND_STRING, KIND_INT, KIND_REAL)
_ORDERED_KINDS = (KIND_INT, KIND_REAL)


class ContractError(Exception):
    """An operation was invoked outside its stated precondition."""


class ValidationError(Exception):
    """A model artifact violates a structural well-formedness rule."""


class DataType(Record):
    """A named value domain.  Distinct types have disjoint domains by
    construction (payload equality is always paired with the type name)."""

    name: str
    kind: str  # one of KIND_STRING / KIND_INT / KIND_REAL

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown domain kind {self.kind!r} for type {self.name!r}")

    @property
    def ordered(self) -> bool:
        return self.kind in _ORDERED_KINDS


# A TypeDomain is a plain mapping name -> DataType.
TypeDomain = Mapping[str, DataType]


def canon_decimal(raw: Union[str, int, Decimal]) -> Decimal:
    """Exact decimal with a canonical representation (no exponent form,
    no trailing zeros) so equal numbers serialize identically."""
    d = Decimal(str(raw))
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("", "-"):
        s = "0"
    return Decimal(s)


class Value:
    """A typed constant.  ``payload is None`` encodes the distinguished
    null literal of the type; it compares like any ordinary value.

    Values are interned (hash-consing, as in Filliâtre & Conchon,
    "Type-Safe Modular Hash-Consing", ML 2006): constructing a value
    returns the one live object for its ``(dtype, payload)``, so equal
    values are the same object.  Nets only ever test values for equality,
    and so equality is identity and hashing is by address, both done in C
    by ``object`` inside every dict, set and tuple operation."""

    __slots__ = ("dtype", "payload", "__weakref__")

    dtype: str  # DataType name
    payload: object  # str | int | Decimal | None

    def __new__(cls, dtype: str, payload: object) -> "Value":
        key = (dtype, payload)
        value = _INTERNED.get(key)
        if value is None:
            with _INTERN_LOCK:  # two threads must not make two objects for one key
                value = _INTERNED.get(key)
                if value is None:
                    value = object.__new__(cls)
                    object.__setattr__(value, "dtype", dtype)
                    object.__setattr__(value, "payload", payload)
                    _INTERNED[key] = value
        return value

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the intern table
        return (Value, (self.dtype, self.payload))

    def is_null(self) -> bool:
        return self.payload is None

    def sort_key(self):
        # Null sorts before every proper value of the same type.  Payloads
        # of one column are homogeneous, so the comparison is well defined.
        if self.payload is None:
            return (self.dtype, 0, "")
        return (self.dtype, 1, self.payload)

    def __repr__(self):  # keeps test failure output short
        return f"{self.dtype}:{render_value(self)}"


# (dtype, payload) -> the live Value with that key.  The table holds its
# values weakly, so it keeps none alive and never needs clearing.
_INTERNED = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class Variable(Record):
    """A typed variable; ``fresh`` marks name-creation variables that may
    only occur on output inscriptions and bind to unused values."""

    name: str
    dtype: str
    fresh: bool = False

    def __repr__(self):
        prefix = "~" if self.fresh else ""
        return f"{prefix}{self.name}:{self.dtype}"


Term = Union[Value, Variable]
# Bindings map variable *names* to Values; every consumer validates types
# against the Variable objects in scope.
Binding = Mapping[str, Value]


def ground(terms, theta: Mapping) -> tuple:
    """The terms with each variable replaced by its entry in ``theta``."""
    return tuple(theta[t.name] if isinstance(t, Variable) else t for t in terms)


def make_value(dtype: DataType, payload) -> Value:
    """Construct a well-typed Value, canonicalizing real payloads."""
    if payload is None:
        return Value(dtype.name, None)
    if dtype.kind == KIND_INT:
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise ValidationError(f"type {dtype.name}: expected integer payload, got {payload!r}")
        return Value(dtype.name, payload)
    if dtype.kind == KIND_REAL:
        try:
            number = canon_decimal(payload)
        except InvalidOperation:
            number = None
        if number is None or not number.is_finite():
            raise ValidationError(f"type {dtype.name}: expected a finite number, got {payload!r}")
        return Value(dtype.name, number)
    if not isinstance(payload, str):
        raise ValidationError(f"type {dtype.name}: expected text payload, got {payload!r}")
    return Value(dtype.name, payload)


def null_value(dtype: Union[DataType, str]) -> Value:
    name = dtype.name if isinstance(dtype, DataType) else dtype
    return Value(name, None)


def render_value(v: Value) -> str:
    if v.payload is None:
        return "null"
    if isinstance(v.payload, str):
        escaped = v.payload.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v.payload, Decimal):
        return format(v.payload, "f")
    return str(v.payload)


class RelationSchema(Record):
    name: str
    column_types: tuple  # tuple of DataType names

    def __post_init__(self):
        if len(self.column_types) < 1:
            raise ValidationError(f"relation {self.name!r} must have arity >= 1")

    @property
    def arity(self) -> int:
        return len(self.column_types)


class PrimaryKey(Record):
    """No two distinct facts of ``relation`` agree on all ``cols``.
    Column indices are 0-based and kept sorted."""

    relation: str
    cols: tuple

    def __post_init__(self):
        object.__setattr__(self, "cols", tuple(sorted(set(self.cols))))


class ForeignKey(Record):
    """Every projection of ``source`` on ``source_cols`` occurs as the
    projection of some ``target`` fact on ``target_cols`` (which must be a
    declared key of the target)."""

    source: str
    source_cols: tuple
    target: str
    target_cols: tuple

    def __post_init__(self):
        object.__setattr__(self, "source_cols", tuple(self.source_cols))
        object.__setattr__(self, "target_cols", tuple(self.target_cols))


class DomainConstraint(Record):
    """The value in column ``col`` of ``relation`` lies in ``allowed``."""

    relation: str
    col: int
    allowed: tuple  # tuple of Values

    def __post_init__(self):
        object.__setattr__(
            self, "allowed", tuple(sorted(set(self.allowed), key=lambda v: v.sort_key()))
        )


Constraint = Union[PrimaryKey, ForeignKey, DomainConstraint]


class Schema(Record):
    relations: Mapping[str, RelationSchema]
    constraints: tuple = ()

    def __post_init__(self):  # not a field: equality and repr ignore it
        object.__setattr__(self, "_well_formed", set())  # constraints found well-formed

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise ValidationError(f"unknown relation {name!r}") from None

    def keys_of(self, relation: str):
        """All column index sets declared as primary keys of ``relation``."""
        return [c.cols for c in self.constraints if isinstance(c, PrimaryKey) and c.relation == relation]

    def validate(self, types: TypeDomain):
        problems = []
        for rel in self.relations.values():
            for i, tn in enumerate(rel.column_types):
                if tn not in types:
                    problems.append(f"relation {rel.name}: column {i + 1} has unknown type {tn!r}")
        for c in self.constraints:
            problems.extend(self._validate_constraint(c))
        return problems

    def _require_well_formed(self, c: Constraint) -> None:
        """Raise ``ValidationError`` if ``c`` is ill-formed for this
        schema.  A well-formed constraint is validated once per schema, as
        neither it nor the schema ever changes."""
        if c in self._well_formed:
            return
        problems = self._validate_constraint(c)
        if problems:
            raise ValidationError("; ".join(problems))
        self._well_formed.add(c)

    def _validate_constraint(self, c: Constraint):
        problems = []
        if isinstance(c, PrimaryKey):
            if c.relation not in self.relations:
                return [f"key constraint on unknown relation {c.relation!r}"]
            if not c.cols:
                problems.append(f"key of {c.relation}: empty column set")
            if any(i < 0 or i >= self.relations[c.relation].arity for i in c.cols):
                problems.append(f"key of {c.relation}: column index out of range")
        elif isinstance(c, ForeignKey):
            for rel in (c.source, c.target):
                if rel not in self.relations:
                    return [f"reference constraint on unknown relation {rel!r}"]
            src, tgt = self.relations[c.source], self.relations[c.target]
            if not c.source_cols or len(c.source_cols) != len(c.target_cols):
                problems.append(f"reference {c.source}->{c.target}: column lists must be non-empty and equal length")
                return problems
            if any(i < 0 or i >= src.arity for i in c.source_cols) or any(
                i < 0 or i >= tgt.arity for i in c.target_cols
            ):
                problems.append(f"reference {c.source}->{c.target}: column index out of range")
                return problems
            for i, j in zip(c.source_cols, c.target_cols):
                if src.column_types[i] != tgt.column_types[j]:
                    problems.append(
                        f"reference {c.source}->{c.target}: column {i + 1} type mismatch"
                    )
            if tuple(sorted(set(c.target_cols))) not in self.keys_of(c.target):
                problems.append(
                    f"reference {c.source}->{c.target}: target columns are not a declared key of {c.target}"
                )
        elif isinstance(c, DomainConstraint):
            if c.relation not in self.relations:
                return [f"domain constraint on unknown relation {c.relation!r}"]
            rel = self.relations[c.relation]
            if c.col < 0 or c.col >= rel.arity:
                problems.append(f"domain constraint on {c.relation}: column index out of range")
            elif any(v.dtype != rel.column_types[c.col] for v in c.allowed):
                problems.append(f"domain constraint on {c.relation}: allowed value of wrong type")
        else:
            problems.append(f"unsupported constraint kind {type(c).__name__}")
        return problems


class Instance:
    """A finite, well-typed set of facts per relation (set semantics).

    Instances are immutable; update operations return new objects.
    ``facts`` maps every relation of the schema to a frozenset of rows.
    :meth:`with_changes` rebuilds only the relations an update touches,
    and the new instance shares every other relation's frozenset, the
    very same object, with its parent.  Equality compares the fact dicts,
    where shared frozensets match by identity; the hash combines the
    per-relation frozenset hashes, which CPython computes once per
    frozenset and caches.  No sorted form is kept: ``instance_lines``
    sorts when an instance is printed.

    ``_consistent`` records whether the instance is known to satisfy every
    constraint of its schema: None until :func:`apply_action` first takes
    it as input and checks it in full, True after a commit produced it.
    """

    __slots__ = ("schema", "facts", "_hash", "_adom", "_answers", "_consistent")

    def __init__(self, schema: Schema, facts: Optional[Mapping[str, Iterable[tuple]]] = None):
        frozen = {name: _NO_ROWS for name in schema.relations}
        if facts:
            for rel, rows in facts.items():
                if rel not in frozen:
                    raise ValidationError(f"facts for unknown relation {rel!r}")
                frozen[rel] = frozenset(tuple(r) for r in rows)
        self._set_up(schema, frozen)

    def _set_up(self, schema: Schema, facts: dict):
        self.schema = schema
        self.facts = facts
        # relation order may differ between equal instances, so the
        # (relation, rows) pairs are combined as a set
        self._hash = hash(frozenset(facts.items()))
        self._adom = None
        self._answers = {}  # query -> answer set, memoised by queries.eval_ucq
        self._consistent = None  # see apply_action

    def typecheck(self) -> list:
        problems = []
        for rel, rows in self.facts.items():
            sch = self.schema.relation(rel)
            for row in rows:
                if len(row) != sch.arity:
                    problems.append(f"{rel}: fact of arity {len(row)}, expected {sch.arity}")
                    continue
                for i, v in enumerate(row):
                    if not isinstance(v, Value) or v.dtype != sch.column_types[i]:
                        problems.append(f"{rel}: column {i + 1} value {v!r} has wrong type")
        return problems

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Instance) and self._hash == other._hash and self.facts == other.facts
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Instance(" + "; ".join(instance_lines(self)) + ")"

    def contains(self, rel: str, row: tuple) -> bool:
        return row in self.facts.get(rel, frozenset())

    def with_changes(self, dels, adds) -> "Instance":
        """New instance with ``dels`` removed first, then ``adds`` inserted.
        Only the relations named in ``dels`` or ``adds`` are rebuilt."""
        staged: dict = {}
        for edit, changes in ((set.discard, dels), (set.add, adds)):
            for rel, row in changes:
                rows = staged.get(rel)
                if rows is None:
                    rows = staged[rel] = set(self.facts[rel])
                edit(rows, row)
        facts = dict(self.facts)
        for rel, rows in staged.items():
            facts[rel] = frozenset(rows)
        out = Instance.__new__(Instance)
        out._set_up(self.schema, facts)
        return out

    def all_values(self):
        for rows in self.facts.values():
            for row in rows:
                yield from row


_NO_ROWS = frozenset()


def _fact_sort_key(row: tuple):
    return tuple(v.sort_key() for v in row)


def render_fact(rel: str, row: tuple) -> str:
    return f"{rel}({','.join(render_value(v) for v in row)})"


def instance_lines(instance: Instance) -> list:
    """Canonical textual serialization: one fact per line, sorted."""
    return sorted(render_fact(rel, row) for rel, rows in instance.facts.items() for row in rows)


def active_domain(instance: Instance, dtype: Union[DataType, str]) -> set:
    """All values of the given type occurring in any fact of the instance."""
    name = dtype.name if isinstance(dtype, DataType) else dtype
    if instance._adom is None:
        adom = {}
        for v in instance.all_values():
            adom.setdefault(v.dtype, set()).add(v)
        instance._adom = adom
    return set(instance._adom.get(name, ()))


def check_constraint(instance: Instance, c: Constraint) -> bool:
    """Decide one constraint on one instance, from scratch: it reads every
    fact of the relations ``c`` names and no earlier decision.  Raises
    ``ValidationError`` if ``c`` is ill-formed for the schema, which each
    schema checks once per constraint.
    :func:`apply_action` calls it only on the constraints an update can
    break."""
    instance.schema._require_well_formed(c)
    if isinstance(c, PrimaryKey):
        seen = {}
        for row in instance.facts.get(c.relation, ()):
            key = tuple(row[i] for i in c.cols)
            if key in seen and seen[key] != row:
                return False
            seen[key] = row
        return True
    if isinstance(c, ForeignKey):
        targets = {
            tuple(row[j] for j in c.target_cols) for row in instance.facts.get(c.target, ())
        }
        return all(
            tuple(row[i] for i in c.source_cols) in targets
            for row in instance.facts.get(c.source, ())
        )
    allowed = set(c.allowed)
    return all(row[c.col] in allowed for row in instance.facts.get(c.relation, ()))


class Action(Record):
    """A parameterized update: delete the instantiated ``dels`` templates,
    then insert the ``adds`` templates.  Template order is the declaration
    order; downstream tooling relies on it being stable."""

    name: str
    params: tuple  # tuple of Variable
    adds: tuple = ()  # tuple of (relation, tuple of Term)
    dels: tuple = ()

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValidationError(f"action {self.name}: duplicate parameter name")

    def validate(self, schema: Schema) -> list:
        problems = []
        declared = {p.name: p for p in self.params}
        for kind, templates in (("add", self.adds), ("del", self.dels)):
            for rel, terms in templates:
                if rel not in schema.relations:
                    problems.append(f"action {self.name}: {kind} targets unknown relation {rel!r}")
                    continue
                sch = schema.relation(rel)
                if len(terms) != sch.arity:
                    problems.append(f"action {self.name}: {kind} {rel} template arity mismatch")
                    continue
                for i, t in enumerate(terms):
                    expected = sch.column_types[i]
                    if isinstance(t, Variable):
                        if t.name not in declared:
                            problems.append(
                                f"action {self.name}: template variable {t.name!r} not a parameter"
                            )
                        elif declared[t.name].dtype != expected:
                            problems.append(
                                f"action {self.name}: {rel} column {i + 1} expects {expected}, "
                                f"parameter {t.name} has {declared[t.name].dtype}"
                            )
                    elif t.dtype != expected:
                        problems.append(
                            f"action {self.name}: {rel} column {i + 1} constant of wrong type"
                        )
        return problems

    def instantiate(self, theta: Binding):
        """Grounded (dels, adds) fact lists under the binding."""
        for p in self.params:
            v = theta.get(p.name)
            if v is None:
                raise ContractError(f"action {self.name}: parameter {p.name} unbound")
            if v.dtype != p.dtype:
                raise ContractError(
                    f"action {self.name}: parameter {p.name} expects {p.dtype}, got {v.dtype}"
                )
        dels = [(rel, ground(terms, theta)) for rel, terms in self.dels]
        adds = [(rel, ground(terms, theta)) for rel, terms in self.adds]
        return dels, adds


def apply_action(instance: Instance, action: Action, theta: Binding):
    """Transactional application: candidate = (I minus dels) plus adds,
    deletions first; commit only if every schema constraint holds on the
    candidate, otherwise return the input instance unchanged.

    The candidate is checked by the delta rule of incremental integrity
    checking (Nicolas, Acta Informatica 1982) when the input is known to
    satisfy every constraint: only a key or domain constraint whose
    relation the action adds to, and a reference whose source it adds to
    or whose target it deletes from, is checked.  Sound, since keys and
    domains hold on every subset of a relation that satisfies them, and a
    reference holds while its source gains nothing and its target loses
    nothing; so every skipped constraint still holds on the candidate.
    The input learns that it is consistent by one full check, the first
    time it is used, or by being committed; an input that fails the full
    check has the candidate checked in full, so the outcome is exact on
    every instance."""
    dels, adds = action.instantiate(theta)
    candidate = instance.with_changes(dels, adds)
    constraints = instance.schema.constraints
    if _consistent(instance):
        added = {rel for rel, _ in adds}
        deleted = {rel for rel, _ in dels}
        constraints = [c for c in constraints if _can_break(c, added, deleted)]
    for c in constraints:
        if not check_constraint(candidate, c):
            return instance, ROLLED_BACK
    candidate._consistent = True
    return candidate, COMMITTED


def _consistent(instance: Instance) -> bool:
    """Whether ``instance`` satisfies every constraint, decided once.  An
    ill-formed constraint counts as not known to hold, so that the full
    check of the candidate raises exactly where it always did."""
    if instance._consistent is None:
        try:
            instance._consistent = all(
                check_constraint(instance, c) for c in instance.schema.constraints
            )
        except ValidationError:
            instance._consistent = False
    return instance._consistent


def _can_break(c: Constraint, added: set, deleted: set) -> bool:
    """Whether an update that adds facts to the relations ``added`` and
    deletes from ``deleted`` can make ``c`` fail on a consistent instance."""
    if isinstance(c, ForeignKey):
        return c.source in added or c.target in deleted
    return c.relation in added
