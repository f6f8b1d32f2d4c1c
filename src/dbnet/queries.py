"""Unions of conjunctive queries with filters, and their evaluation.

The data-logic layer exposes the database through queries of the shape

    Q(x1..xk) :- exists y*. R1(t*) & ... & Rn(t*) & f1 & ... & fm
               | ...                                      (more disjuncts)

where each filter ``fi`` compares a variable against a variable or
constant.  ``eval_ucq`` is the production evaluator (backtracking join
with most-bound-first atom selection); ``ucq_to_fo`` reduces a query to a
first-order formula so ``fo.eval_fo_oracle`` can serve as an independent
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .fo import And, Compare, Exists, Formula, Or, _compare
from .relational import ContractError, Instance, Schema, Variable

__all__ = [
    "Conjunct",
    "UcqQuery",
    "eval_ucq",
    "ucq_to_fo",
    "validate_view_query",
]

_ORDER_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class Conjunct:
    atoms: tuple  # tuple of fo.Atom
    filters: tuple = ()  # tuple of fo.Compare

    def variables(self) -> dict:
        """All variables of the conjunct, name -> Variable (first occurrence)."""
        out: dict = {}
        for a in self.atoms:
            for t in a.terms:
                if isinstance(t, Variable):
                    out.setdefault(t.name, t)
        for f in self.filters:
            for t in (f.left, f.right):
                if isinstance(t, Variable):
                    out.setdefault(t.name, t)
        return out


@dataclass(frozen=True)
class UcqQuery:
    name: str
    head: tuple  # tuple of Variable
    disjuncts: tuple  # tuple of Conjunct

    @property
    def arity(self) -> int:
        return len(self.head)


def validate_view_query(types: Mapping, schema: Schema, query: UcqQuery) -> list:
    """Structural safety checks; returns a list of human-readable problems.

    A query is admissible when every disjunct mentions every head variable
    in some relational atom (range restriction), every filter variable also
    occurs in an atom of the same disjunct, all occurrences agree with the
    column types of the schema, and order comparisons are only applied to
    ordered domains.
    """
    problems = []
    if not query.disjuncts:
        problems.append(f"query {query.name}: no disjuncts")
    head_names = [v.name for v in query.head]
    if len(set(head_names)) != len(head_names):
        problems.append(f"query {query.name}: duplicate head variable")
    for v in query.head:
        if v.dtype not in types:
            problems.append(f"query {query.name}: head variable {v.name} has unknown type {v.dtype!r}")
    for di, conj in enumerate(query.disjuncts, start=1):
        where = f"query {query.name}, disjunct {di}"
        atom_vars: dict = {}
        for a in conj.atoms:
            if a.relation not in schema.relations:
                problems.append(f"{where}: unknown relation {a.relation!r}")
                continue
            sch = schema.relation(a.relation)
            if len(a.terms) != sch.arity:
                problems.append(f"{where}: {a.relation} used with arity {len(a.terms)}")
                continue
            for i, t in enumerate(a.terms):
                expected = sch.column_types[i]
                if isinstance(t, Variable):
                    if t.dtype != expected:
                        problems.append(
                            f"{where}: variable {t.name} has type {t.dtype}, "
                            f"column {i + 1} of {a.relation} is {expected}"
                        )
                    prev = atom_vars.setdefault(t.name, t)
                    if prev.dtype != t.dtype:
                        problems.append(f"{where}: variable {t.name} used at two types")
                elif t.dtype != expected:
                    problems.append(f"{where}: constant of type {t.dtype} in {expected} column of {a.relation}")
        for v in query.head:
            if v.name not in atom_vars:
                problems.append(f"{where}: head variable {v.name} not bound by any atom")
            elif atom_vars[v.name].dtype != v.dtype:
                problems.append(f"{where}: head variable {v.name} bound at type {atom_vars[v.name].dtype}")
        for f in conj.filters:
            sides = []
            for t in (f.left, f.right):
                if isinstance(t, Variable):
                    if t.name not in atom_vars:
                        problems.append(f"{where}: filter variable {t.name} not bound by any atom")
                        break
                    sides.append(atom_vars[t.name].dtype)
                else:
                    sides.append(t.dtype)
            else:
                if sides[0] != sides[1]:
                    problems.append(f"{where}: filter compares {sides[0]} against {sides[1]}")
                elif f.op in _ORDER_OPS:
                    dt = types.get(sides[0])
                    if dt is not None and not dt.ordered:
                        problems.append(f"{where}: order comparison on unordered type {sides[0]}")
                if f.op not in ("=", "!=") + _ORDER_OPS:
                    problems.append(f"{where}: unknown comparison {f.op!r}")
    return problems


def ucq_to_fo(query: UcqQuery) -> Formula:
    """The query body as a formula whose free variables are the head."""
    head = {v.name for v in query.head}
    parts = []
    for conj in query.disjuncts:
        body: Formula = And(tuple(conj.atoms) + tuple(conj.filters))
        existential = [v for n, v in sorted(conj.variables().items()) if n not in head]
        for v in reversed(existential):
            body = Exists(v, body)
        parts.append(body)
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


# ---------------------------------------------------------------------------
# Evaluation.  State-space construction asks the same few view queries of
# each database state, so each immutable ``Instance`` memoises its answer
# sets, as it does its active domain; the memo dies with the instance.


def eval_ucq(instance: Instance, query: UcqQuery) -> frozenset:
    """All answer tuples of ``query`` on ``instance`` (set semantics)."""
    answers = instance._answers.get(query)
    if answers is None:
        found = set()
        for conj in query.disjuncts:
            _eval_conjunct(instance, query.head, conj, found)
        answers = instance._answers[query] = frozenset(found)
    return answers


def _eval_conjunct(instance: Instance, head, conj: Conjunct, answers: set):
    def holds(f: Compare, theta: dict) -> bool:
        left = theta[f.left.name] if isinstance(f.left, Variable) else f.left
        right = theta[f.right.name] if isinstance(f.right, Variable) else f.right
        return _compare(f.op, left, right)

    def fully_bound(f: Compare, theta: dict) -> bool:
        return all(
            not isinstance(t, Variable) or t.name in theta for t in (f.left, f.right)
        )

    def extend(theta: dict, remaining: list):
        # Prune with every filter that is fully bound so far; re-checking a
        # filter on a later call is harmless and keeps the bookkeeping flat.
        if any(fully_bound(f, theta) and not holds(f, theta) for f in conj.filters):
            return
        if not remaining:
            try:
                answers.add(tuple(theta[v.name] for v in head))
            except KeyError as e:
                raise ContractError(f"unsafe query: head variable {e} unbound") from None
            return
        # Most-bound-first: join the atom with the fewest unbound positions.
        def boundness(a):
            return sum(1 for t in a.terms if not isinstance(t, Variable) or t.name in theta)

        atom = max(remaining, key=boundness)
        rest = [a for a in remaining if a is not atom]
        for row in instance.facts.get(atom.relation, ()):
            theta2 = dict(theta)
            ok = True
            for t, v in zip(atom.terms, row):
                if isinstance(t, Variable):
                    bound = theta2.get(t.name)
                    if bound is None:
                        theta2[t.name] = v
                    elif bound != v:
                        ok = False
                        break
                elif t != v:
                    ok = False
                    break
            if ok:
                extend(theta2, rest)

    extend({}, list(conj.atoms))
