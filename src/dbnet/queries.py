"""Unions of conjunctive queries with filters, and their evaluation.

The data-logic layer exposes the database through queries of the shape

    Q(x1..xk) :- exists y*. R1(t*) & ... & Rn(t*) & f1 & ... & fm
               | ...                                      (more disjuncts)

where each filter ``fi`` compares a variable against a variable or
constant.  ``eval_ucq`` is the production evaluator: it joins each
disjunct's atoms one at a time with :func:`join`, the procedure that
also binds the transitions of both net layers (a view arc of the
translated net is exactly such an atom, read from a relation place), and
filters the complete bindings.  ``ucq_to_fo`` reduces a query to a
first-order formula so ``fo.eval_fo_oracle`` can serve as an independent
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .fo import And, Exists, Formula, Or, _compare
from .relational import ContractError, Instance, Schema, Variable, ground

__all__ = [
    "Conjunct",
    "UcqQuery",
    "eval_ucq",
    "join",
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


def _extend(terms, row, theta: dict) -> Optional[dict]:
    """``theta`` extended so that the inscription ``terms`` matches
    ``row``, or None on a clash.  Inscriptions may mix variables with
    constants; ``theta`` itself comes back when the row binds nothing new."""
    out = theta
    for term, value in zip(terms, row):
        if isinstance(term, Variable):
            bound = out.get(term.name)
            if bound is None:
                if out is theta:
                    out = dict(theta)
                out[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return out


def join(thetas: list, arcs, rows: Callable) -> list:
    """Every extension of a binding in ``thetas`` that matches each arc
    ``(name, terms)`` of ``arcs``, in order, against a row of
    ``rows(name)``: ``(row, multiplicity)`` pairs, as ``Marking.tokens``
    gives them.  ``rows`` is asked once per arc, and only while some
    binding is left.  Distinct row choices give distinct bindings."""
    for name, terms in arcs:
        if not thetas:
            break
        arc_rows = rows(name)
        thetas = [
            theta2 for theta in thetas for row, _count in arc_rows
            if (theta2 := _extend(terms, row, theta)) is not None
        ]
    return thetas


def eval_ucq(instance: Instance, query: UcqQuery) -> frozenset:
    """All answer tuples of ``query`` on ``instance`` (set semantics).
    Each disjunct joins its atoms in the order written, keeps the
    bindings its filters accept and contributes their head projection."""
    answers = instance._answers.get(query)
    if answers is None:
        facts = instance.facts

        def rows(relation: str) -> list:
            return [(row, 1) for row in facts.get(relation, ())]

        found = set()
        for conj in query.disjuncts:
            arcs = [(atom.relation, atom.terms) for atom in conj.atoms]
            for theta in join([{}], arcs, rows):
                try:
                    if all(_compare(f.op, *ground((f.left, f.right), theta))
                           for f in conj.filters):
                        found.add(ground(query.head, theta))
                except KeyError as e:
                    raise ContractError(f"unsafe query: variable {e} unbound") from None
        answers = instance._answers[query] = frozenset(found)
    return answers
