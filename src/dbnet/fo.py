"""Naive first-order evaluation over the active domain.

This module is deliberately the *slow, obvious* route: formulas are
evaluated by structural recursion with quantifiers ranging over the active
domain of the relevant type.  It exists so that the optimized evaluator in
``queries`` has something independent to be checked against, and so that
constraint satisfaction has a second formulation as a closed formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .relational import (
    Constraint,
    DomainConstraint,
    ForeignKey,
    Instance,
    PrimaryKey,
    Term,
    Value,
    Variable,
    ContractError,
    active_domain,
)

__all__ = [
    "Atom",
    "Compare",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "TRUE",
    "Formula",
    "free_variables",
    "eval_fo_oracle",
    "constraint_to_fo",
]


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple  # tuple of Term


@dataclass(frozen=True)
class Compare:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Exists:
    var: Variable
    sub: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Variable
    sub: "Formula"


@dataclass(frozen=True)
class Truth:
    pass


TRUE = Truth()

Formula = Union[Atom, Compare, Not, And, Or, Exists, Forall, Truth]


def free_variables(f: Formula) -> dict:
    """Free variables of a formula, name -> Variable."""
    out: dict = {}
    _collect_free(f, out, set())
    return out


def _collect_free(f: Formula, out: dict, bound: set):
    if isinstance(f, Truth):
        return
    if isinstance(f, Atom):
        for t in f.terms:
            if isinstance(t, Variable) and t.name not in bound:
                out[t.name] = t
    elif isinstance(f, Compare):
        for t in (f.left, f.right):
            if isinstance(t, Variable) and t.name not in bound:
                out[t.name] = t
    elif isinstance(f, Not):
        _collect_free(f.sub, out, bound)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            _collect_free(p, out, bound)
    elif isinstance(f, (Exists, Forall)):
        _collect_free(f.sub, out, bound | {f.var.name})
    else:
        raise ContractError(f"unknown formula node {type(f).__name__}")


def _resolve(t: Term, env: Mapping[str, Value]) -> Value:
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise ContractError(f"free variable {t.name!r} not bound by environment") from None
    return t


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare(op: str, a: Value, b: Value) -> bool:
    if a.dtype != b.dtype:
        raise ContractError(f"comparison across types {a.dtype}/{b.dtype}")
    if op in ("=", "!="):
        return _CMP[op](a, b)
    # Order predicates: only on ordered domains, never on null.
    if a.payload is None or b.payload is None:
        return False
    return _CMP[op](a.payload, b.payload)


def eval_fo_oracle(instance: Instance, formula: Formula, env: Mapping[str, Value] = None) -> bool:
    """Truth of ``formula`` on ``instance`` under ``env`` (active-domain
    semantics: quantifiers range over the values of the variable's type
    present in the instance plus the values mentioned in ``env``)."""
    env = dict(env or {})
    missing = [n for n in free_variables(formula) if n not in env]
    if missing:
        raise ContractError(f"environment does not bind {sorted(missing)}")
    return _eval(instance, formula, env)


def _quant_range(instance: Instance, var: Variable, env: Mapping[str, Value]):
    dom = active_domain(instance, var.dtype)
    dom.update(v for v in env.values() if v.dtype == var.dtype)
    return sorted(dom, key=lambda v: v.sort_key())


def _eval(instance: Instance, f: Formula, env: dict) -> bool:
    if isinstance(f, Truth):
        return True
    if isinstance(f, Atom):
        row = tuple(_resolve(t, env) for t in f.terms)
        return instance.contains(f.relation, row)
    if isinstance(f, Compare):
        return _compare(f.op, _resolve(f.left, env), _resolve(f.right, env))
    if isinstance(f, Not):
        return not _eval(instance, f.sub, env)
    if isinstance(f, And):
        return all(_eval(instance, p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(instance, p, env) for p in f.parts)
    if isinstance(f, Exists):
        for v in _quant_range(instance, f.var, env):
            env2 = dict(env)
            env2[f.var.name] = v
            if _eval(instance, f.sub, env2):
                return True
        return False
    if isinstance(f, Forall):
        for v in _quant_range(instance, f.var, env):
            env2 = dict(env)
            env2[f.var.name] = v
            if not _eval(instance, f.sub, env2):
                return False
        return True
    raise ContractError(f"unknown formula node {type(f).__name__}")


def constraint_to_fo(schema, c: Constraint) -> Formula:
    """Closed formula asserting the constraint, for the dual-route check."""
    if isinstance(c, PrimaryKey):
        rel = schema.relation(c.relation)
        ys = tuple(Variable(f"_k{i}", rel.column_types[i]) for i in range(rel.arity))
        ws = tuple(Variable(f"_w{i}", rel.column_types[i]) for i in range(rel.arity))
        same_key = And(tuple(Compare("=", ys[i], ws[i]) for i in c.cols))
        rest = [i for i in range(rel.arity) if i not in c.cols]
        # Facts are a set, so a violation needs two rows that agree on the
        # key yet differ somewhere else.  A key spanning every column makes
        # the disjunction empty (false): such a key cannot be violated.
        differs = Or(tuple(Compare("!=", ys[i], ws[i]) for i in rest))
        bad = And((Atom(c.relation, ys), Atom(c.relation, ws), same_key, differs))
        for v in reversed(ys + ws):
            bad = Exists(v, bad)
        return Not(bad)
    if isinstance(c, ForeignKey):
        src = schema.relation(c.source)
        tgt = schema.relation(c.target)
        ys = tuple(Variable(f"_s{i}", src.column_types[i]) for i in range(src.arity))
        ws = tuple(Variable(f"_t{i}", tgt.column_types[i]) for i in range(tgt.arity))
        links = And(
            tuple(Compare("=", ys[i], ws[j]) for i, j in zip(c.source_cols, c.target_cols))
        )
        target_side: Formula = And((Atom(c.target, ws), links))
        for v in reversed(ws):
            target_side = Exists(v, target_side)
        body: Formula = Or((Not(Atom(c.source, ys)), target_side))
        for v in reversed(ys):
            body = Forall(v, body)
        return body
    if isinstance(c, DomainConstraint):
        rel = schema.relation(c.relation)
        ys = tuple(Variable(f"_d{i}", rel.column_types[i]) for i in range(rel.arity))
        ok = Or(tuple(Compare("=", ys[c.col], v) for v in c.allowed))
        body: Formula = Or((Not(Atom(c.relation, ys)), ok))
        for v in reversed(ys):
            body = Forall(v, body)
        return body
    raise ContractError(f"unsupported constraint kind {type(c).__name__}")
