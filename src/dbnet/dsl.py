"""Textual model files: one grammar, two layers.

A ``.dbn`` file declares all three layers of a model — types, relations
with constraints, view queries, actions, and the control net — plus the
initial database and marking and a freshness policy.  A ``.cpn`` file
uses the same surface syntax minus the persistence sections and gains
``read`` arcs on arbitrary places, ``priority`` and ``emit`` clauses.

Resolution is single pass: every name must be declared before (or in the
section where) it is used.  Variable types are never written inside net
inscriptions or query bodies; they are inferred from the typed position
the variable occurs in (place column, relation column, query head,
action parameter), with ``~x`` marking name-creation variables.

``print_model`` emits a canonical form; parsing its output yields a
model equal to the one printed, so ``parse . print . parse = parse``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple, Optional

from .cpn import CpnPlace, CpnTransition, Emit, NuCpn, P_NORMAL, _PRIORITY_NAMES
from .fo import And, Atom, Compare, Formula, Not, Or, Truth, TRUE
from .freshness import FreshPolicy
from .marking import Marking
from .model import ControlPlace, DbNet, Transition, ViewPlace
from .queries import Conjunct, UcqQuery
from .relational import (
    Action,
    DataType,
    DomainConstraint,
    ForeignKey,
    Instance,
    PrimaryKey,
    RelationSchema,
    Schema,
    ValidationError,
    Value,
    Variable,
    _fact_sort_key,
    make_value,
)

__all__ = ["DslError", "ModelFile", "parse_model", "print_model"]

_KINDS = ("int", "real", "string")
_PRIORITY_WORDS = {name: level for level, name in _PRIORITY_NAMES.items()}
_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class DslError(ValidationError):
    """Parse or resolution failure, with a 1-based source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class ModelFile:
    """A parsed model plus the surface details needed to print it back
    faithfully (column names exist only in the text, not in the schema)."""

    kind: str  # "dbnet" | "cpn"
    model: object  # DbNet | NuCpn
    column_names: dict = field(default_factory=dict)  # relation -> tuple of str


# ---------------------------------------------------------------------------
# Lexer


class _Tok(NamedTuple):
    kind: str  # "ident" | "int" | "real" | "string" | punctuation itself
    value: object
    line: int
    col: int


_PUNCT2 = (":=", "!=", "<=", ">=", "->")
_PUNCT1 = "(){},;:=<>&|!~@"

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_DIGITS = "0123456789"  # INT and REAL are ASCII: int("²") fails


def _lex(text: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise DslError("unterminated string literal", start_line, start_col)
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise DslError("bad string escape", line, col)
                    buf.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                    continue
                buf.append(ch)
                i += 1
                col += 1
            toks.append(_Tok("string", "".join(buf), start_line, start_col))
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                toks.append(_Tok("real", Decimal(text[i:j]), start_line, start_col))
            else:
                toks.append(_Tok("int", int(text[i:j]), start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Tok("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            toks.append(_Tok(two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            toks.append(_Tok(c, c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0
        # Symbol tables, filled strictly in declaration order.
        self.types: dict = {}
        self.relations: dict = {}
        self.column_names: dict = {}
        self.constraints: list = []
        self.queries: dict = {}
        self.actions: dict = {}
        self.places: dict = {}  # control/cpn places
        self.views: dict = {}
        self.place_classes: dict = {}
        self.transitions: list = []
        self.facts: dict = {}
        self.tokens: list = []
        self.samples: dict = {}
        self.policy = FreshPolicy()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Optional[_Tok]:
        k = self.pos + ahead
        return self.toks[k] if k < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise self.end_of_file("")
        self.pos += 1
        return t

    def expect(self, kind: str, what: str = "") -> _Tok:
        t = self.next()
        if t.kind != kind:
            want = what or f"{kind!r}"
            raise DslError(f"expected {want}, found {t.value!r}", t.line, t.col)
        return t

    def keyword(self, *words: str) -> str:
        t = self.expect("ident", " or ".join(repr(w) for w in words))
        if t.value not in words:
            raise DslError(
                f"expected {' or '.join(repr(w) for w in words)}, found {t.value!r}",
                t.line,
                t.col,
            )
        return t.value

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "ident" and t.value == word

    def err(self, message: str, tok: _Tok) -> DslError:
        return DslError(message, tok.line, tok.col)

    def end_of_file(self, where: str) -> DslError:
        """The text ends too early: located at its last token."""
        return self.err(f"unexpected end of file{where}", self.toks[-1])

    # -- shared small pieces ----------------------------------------------

    def fresh_name(self, table: dict, tok: _Tok, what: str) -> str:
        if tok.value in table:
            raise self.err(f"duplicate {what} {tok.value!r}", tok)
        return tok.value

    def lookup_type(self, tok: _Tok) -> DataType:
        dt = self.types.get(tok.value)
        if dt is None:
            raise self.err(f"unknown type {tok.value!r}", tok)
        return dt

    def literal(self, dtype: DataType) -> Value:
        """A literal in a position of known type."""
        t = self.next()
        if t.kind == "ident" and t.value == "null":
            return Value(dtype.name, None)
        try:
            if t.kind == "int":
                if dtype.kind == "real":
                    return make_value(dtype, Decimal(t.value))
                return make_value(dtype, t.value)
            if t.kind in ("real", "string"):
                return make_value(dtype, t.value)
        except ValidationError as exc:
            raise self.err(str(exc), t) from exc
        raise self.err(f"expected a literal, found {t.value!r}", t)

    def literal_list(self, dtype: DataType, closer: str) -> tuple:
        out = []
        if not (self.peek() and self.peek().kind == closer):
            out.append(self.literal(dtype))
            while self.peek() and self.peek().kind == ",":
                self.next()
                out.append(self.literal(dtype))
        self.expect(closer)
        return tuple(out)

    # -- top level ---------------------------------------------------------

    def parse(self) -> ModelFile:
        if not self.toks:
            raise DslError("empty model: no declarations", 1, 1)
        kind = self.keyword("dbnet", "cpn")
        name = self.expect("string", "model name string").value
        self.expect(";")
        while self.peek() is not None:
            t = self.peek()
            if t.kind != "ident":
                raise self.err(f"expected a declaration, found {t.value!r}", t)
            handler = getattr(self, f"item_{t.value}", None)
            allowed = (
                ("type", "relation", "constraint", "query", "action",
                 "place", "view", "transition", "init", "policy")
                if kind == "dbnet"
                else ("type", "place", "transition", "init", "policy")
            )
            if t.value not in allowed or handler is None:
                raise self.err(f"unknown declaration {t.value!r}", t)
            self.next()
            handler(kind)
        model = self.build_dbnet(name) if kind == "dbnet" else self.build_cpn(name)
        return ModelFile(kind=kind, model=model, column_names=dict(self.column_names))

    # -- declarations ------------------------------------------------------

    def item_type(self, kind: str):
        tok = self.expect("ident", "type name")
        name = self.fresh_name(self.types, tok, "type")
        self.expect("=")
        k = self.keyword(*_KINDS)
        self.expect(";")
        self.types[name] = DataType(name, k)

    def item_relation(self, kind: str):
        tok = self.expect("ident", "relation name")
        name = self.fresh_name(self.relations, tok, "relation")
        self.expect("(")
        cols, names, keycols = [], [], []
        while True:
            cn = self.expect("ident", "column name")
            if cn.value in names:
                raise self.err(f"duplicate column {cn.value!r}", cn)
            self.expect(":")
            dt = self.lookup_type(self.expect("ident", "type name"))
            if self.at_keyword("key"):
                self.next()
                keycols.append(len(cols))
            names.append(cn.value)
            cols.append(dt.name)
            if self.peek() and self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(")")
        self.expect(";")
        self.relations[name] = RelationSchema(name, tuple(cols))
        self.column_names[name] = tuple(names)
        if keycols:
            self.constraints.append(PrimaryKey(name, tuple(keycols)))

    def rel_and_cols(self) -> tuple:
        tok = self.expect("ident", "relation name")
        rel = self.relations.get(tok.value)
        if rel is None:
            raise self.err(f"unknown relation {tok.value!r}", tok)
        self.expect("(")
        idxs = []
        while True:
            cn = self.expect("ident", "column name")
            try:
                idxs.append(self.column_names[rel.name].index(cn.value))
            except ValueError:
                raise self.err(f"{rel.name!r} has no column {cn.value!r}", cn) from None
            if self.peek() and self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(")")
        return rel, tuple(idxs)

    def item_constraint(self, kind: str):
        what = self.keyword("key", "foreign", "domain")
        if what == "key":
            rel, idxs = self.rel_and_cols()
            self.constraints.append(PrimaryKey(rel.name, idxs))
        elif what == "foreign":
            src, sidx = self.rel_and_cols()
            self.expect("->")
            tgt, tidx = self.rel_and_cols()
            self.constraints.append(ForeignKey(src.name, sidx, tgt.name, tidx))
        else:
            tok = self.expect("ident", "relation.column")
            rel, col = self.split_qualified(tok)
            self.keyword("in")
            self.expect("{")
            dt = self.types[rel.column_types[col]]
            allowed = self.literal_list(dt, "}")
            self.constraints.append(DomainConstraint(rel.name, col, allowed))
        self.expect(";")

    def split_qualified(self, tok: _Tok) -> tuple:
        """`Rel.column` — split at the rightmost dot whose prefix is a
        declared relation with such a column."""
        text = tok.value
        i = text.rfind(".")
        while i > 0:
            rel = self.relations.get(text[:i])
            if rel is not None and text[i + 1 :] in self.column_names[rel.name]:
                return rel, self.column_names[rel.name].index(text[i + 1 :])
            i = text.rfind(".", 0, i)
        raise self.err(f"cannot resolve column reference {text!r}", tok)

    def typed_params(self) -> tuple:
        """`(name: type, ...)` — shared by query heads and action headers."""
        self.expect("(")
        out = []
        seen = set()
        while self.peek() and self.peek().kind != ")":
            pn = self.expect("ident", "parameter name")
            if pn.value in seen:
                raise self.err(f"duplicate parameter {pn.value!r}", pn)
            seen.add(pn.value)
            self.expect(":")
            dt = self.lookup_type(self.expect("ident", "type name"))
            out.append(Variable(pn.value, dt.name))
            if self.peek() and self.peek().kind == ",":
                self.next()
        self.expect(")")
        return tuple(out)

    def item_query(self, kind: str):
        tok = self.expect("ident", "query name")
        name = self.fresh_name(self.queries, tok, "query")
        head = self.typed_params()
        self.expect(":=")
        disjuncts = [self.disjunct(head)]
        while self.peek() and self.peek().kind == "|":
            self.next()
            disjuncts.append(self.disjunct(head))
        self.expect(";")
        self.queries[name] = UcqQuery(name, head, tuple(disjuncts))

    def disjunct(self, head: tuple) -> Conjunct:
        vartab = {v.name: v for v in head}
        atoms, raw_filters = [], []
        while True:
            t = self.peek()
            if t is None:
                raise self.end_of_file(" in query body")
            if t.kind == "ident" and self.peek(1) and self.peek(1).kind == "(":
                atoms.append(self.query_atom(vartab))
            else:
                raw_filters.append(self.raw_compare())
            if self.peek() and self.peek().kind == "&":
                self.next()
                continue
            break
        filters = tuple(self.resolve_compare(rc, vartab) for rc in raw_filters)
        return Conjunct(tuple(atoms), filters)

    def query_atom(self, vartab: dict) -> Atom:
        tok = self.expect("ident", "relation name")
        rel = self.relations.get(tok.value)
        if rel is None:
            raise self.err(f"unknown relation {tok.value!r}", tok)
        self.expect("(")
        terms = []
        for col_type in rel.column_types:
            if terms:
                self.expect(",")
            dt = self.types[col_type]
            t = self.peek()
            if t.kind == "ident" and t.value != "null":
                self.next()
                var = vartab.get(t.value)
                if var is None:
                    var = Variable(t.value, dt.name)
                    vartab[t.value] = var
                terms.append(var)
            else:
                terms.append(self.literal(dt))
        self.expect(")")
        return Atom(rel.name, tuple(terms))

    # Comparisons are collected raw and typed once the atoms of the same
    # scope have bound the variables.
    def raw_compare(self) -> tuple:
        left = self.raw_term()
        op_tok = self.next()
        if op_tok.kind not in _COMPARE_OPS:
            raise self.err(f"expected a comparison operator, found {op_tok.value!r}", op_tok)
        right = self.raw_term()
        return (left, op_tok, right)

    def raw_term(self) -> _Tok:
        t = self.next()
        if t.kind in ("ident", "int", "real", "string"):
            return t
        raise self.err(f"expected a term, found {t.value!r}", t)

    def resolve_compare(self, rc: tuple, vartab: dict) -> Compare:
        left_tok, op_tok, right_tok = rc

        def side_type(tok: _Tok) -> Optional[str]:
            if tok.kind == "ident" and tok.value != "null" and tok.value in vartab:
                return vartab[tok.value].dtype
            return None

        dtype_name = side_type(left_tok) or side_type(right_tok)
        if dtype_name is None:
            raise self.err("cannot infer the type of this comparison", op_tok)
        dt = self.types[dtype_name]

        def resolve(tok: _Tok):
            if tok.kind == "ident" and tok.value != "null":
                var = vartab.get(tok.value)
                if var is None:
                    raise self.err(f"unbound variable {tok.value!r}", tok)
                return var
            if tok.kind == "ident":  # null
                return Value(dt.name, None)
            if tok.kind == "int" and dt.kind == "real":
                return make_value(dt, Decimal(tok.value))
            try:
                return make_value(dt, tok.value)
            except ValidationError as exc:
                raise self.err(str(exc), tok) from exc

        return Compare(op_tok.value, resolve(left_tok), resolve(right_tok))

    def item_action(self, kind: str):
        tok = self.expect("ident", "action name")
        name = self.fresh_name(self.actions, tok, "action")
        params = self.typed_params()
        vartab = {p.name: p for p in params}
        self.expect("{")
        adds, dels = [], []
        while not (self.peek() and self.peek().kind == "}"):
            which = self.keyword("add", "del")
            rtok = self.expect("ident", "relation name")
            rel = self.relations.get(rtok.value)
            if rel is None:
                raise self.err(f"unknown relation {rtok.value!r}", rtok)
            self.expect("(")
            terms = []
            for col_type in rel.column_types:
                if terms:
                    self.expect(",")
                dt = self.types[col_type]
                t = self.peek()
                if t.kind == "ident" and t.value != "null":
                    self.next()
                    if t.value not in vartab:
                        raise self.err(f"{t.value!r} is not a parameter of {name!r}", t)
                    terms.append(vartab[t.value])
                else:
                    terms.append(self.literal(dt))
            self.expect(")")
            self.expect(";")
            (adds if which == "add" else dels).append((rel.name, tuple(terms)))
        self.expect("}")
        self.actions[name] = Action(name, params, tuple(adds), tuple(dels))

    def item_place(self, kind: str):
        tok = self.expect("ident", "place name")
        if tok.value in self.places or tok.value in self.views:
            raise self.err(f"duplicate place {tok.value!r}", tok)
        name = tok.value
        self.expect("(")
        cols = []
        while self.peek() and self.peek().kind != ")":
            cols.append(self.lookup_type(self.expect("ident", "type name")).name)
            if self.peek() and self.peek().kind == ",":
                self.next()
        self.expect(")")
        if self.peek() and self.peek().kind == "@":
            self.next()
            cls = self.expect("string", "place class string").value
            self.place_classes[name] = cls
        self.expect(";")
        ctor = ControlPlace if kind == "dbnet" else CpnPlace
        self.places[name] = ctor(name, tuple(cols))

    def item_view(self, kind: str):
        tok = self.expect("ident", "view place name")
        if tok.value in self.places or tok.value in self.views:
            raise self.err(f"duplicate place {tok.value!r}", tok)
        self.expect(":=")
        qtok = self.expect("ident", "query name")
        if qtok.value not in self.queries:
            raise self.err(f"unknown query {qtok.value!r}", qtok)
        self.expect(";")
        self.views[tok.value] = ViewPlace(tok.value, qtok.value)

    # -- transitions -------------------------------------------------------

    def place_columns(self, tok: _Tok, *, views_ok: bool) -> tuple:
        if tok.value in self.places:
            return tuple(self.places[tok.value].column_types)
        if views_ok and tok.value in self.views:
            q = self.queries[self.views[tok.value].query]
            return tuple(v.dtype for v in q.head)
        raise self.err(f"unknown place {tok.value!r}", tok)

    def inscription(self, col_types: tuple, vartab: dict, *, vars_only: bool) -> tuple:
        """A parenthesized term list typed against ``col_types``."""
        self.expect("(")
        terms: list = []
        for ct in col_types:
            if terms:
                self.expect(",")
            dt = self.types[ct]
            t = self.peek()
            fresh = False
            if t is not None and t.kind == "~":
                self.next()
                fresh = True
                t = self.peek()
            if t is not None and t.kind == "ident" and t.value != "null":
                self.next()
                var = vartab.get(t.value)
                if var is None:
                    var = Variable(t.value, dt.name, fresh=fresh)
                    vartab[t.value] = var
                elif var.fresh != fresh:
                    raise self.err(
                        f"variable {t.value!r} is used both with and without '~'", t
                    )
                terms.append(var)
            elif fresh:
                raise self.err("'~' must be followed by a variable name", t or self.toks[-1])
            elif vars_only:
                raise self.err("this inscription takes variables only", t or self.toks[-1])
            else:
                terms.append(self.literal(dt))
        close = self.peek()
        if close is not None and close.kind == ",":
            raise self.err("too many terms for this place", close)
        self.expect(")")
        return tuple(terms)

    def item_transition(self, kind: str):
        tok = self.expect("ident", "transition name")
        if any(t.name == tok.value for t in self.transitions):
            raise self.err(f"duplicate transition {tok.value!r}", tok)
        name = tok.value
        self.expect("{")
        vartab: dict = {}
        inputs, readsv, outputs, rollbacks = [], [], [], []
        guard: Formula = TRUE
        action = None
        priority = P_NORMAL
        emit = None
        dbn = kind == "dbnet"
        while not (self.peek() and self.peek().kind == "}"):
            what = self.keyword(
                *(("in", "read", "guard", "act", "out", "rollback")
                  if dbn
                  else ("in", "read", "guard", "out", "priority", "emit"))
            )
            if what == "in":
                p = self.expect("ident", "place name")
                if dbn and p.value not in self.places:
                    raise self.err(f"unknown place {p.value!r}", p)
                cols = self.place_columns(p, views_ok=not dbn)
                inputs.append((p.value, self.inscription(cols, vartab, vars_only=dbn)))
                self.expect(";")
            elif what == "read":
                p = self.expect("ident", "place name")
                if dbn and p.value not in self.views:
                    raise self.err(f"{p.value!r} is not a view place", p)
                cols = self.place_columns(p, views_ok=True)
                readsv.append((p.value, self.inscription(cols, vartab, vars_only=dbn)))
                self.expect(";")
            elif what == "guard":
                guard = self.formula(vartab)
                self.expect(";")
            elif what == "act":
                a = self.expect("ident", "action name")
                act = self.actions.get(a.value)
                if act is None:
                    raise self.err(f"unknown action {a.value!r}", a)
                args = self.inscription(
                    tuple(p.dtype for p in act.params), vartab, vars_only=False
                )
                action = (act.name, args)
                self.expect(";")
            elif what in ("out", "rollback"):
                p = self.expect("ident", "place name")
                if p.value not in self.places:
                    raise self.err(f"unknown place {p.value!r}", p)
                cols = tuple(self.places[p.value].column_types)
                arc = (p.value, self.inscription(cols, vartab, vars_only=False))
                (outputs if what == "out" else rollbacks).append(arc)
                self.expect(";")
            elif what == "priority":
                priority = _PRIORITY_WORDS[self.keyword(*_PRIORITY_WORDS)]
                self.expect(";")
            else:  # emit
                tname = self.expect("ident", "transition name").value
                outcome = self.keyword("commit", "rollback")
                self.expect("(")
                names = []
                while self.peek() and self.peek().kind != ")":
                    names.append(self.expect("ident", "variable name").value)
                    if self.peek() and self.peek().kind == ",":
                        self.next()
                self.expect(")")
                self.expect(";")
                emit = Emit(tname, outcome, tuple(names))
        self.expect("}")
        if dbn:
            self.transitions.append(
                Transition(name, tuple(inputs), tuple(readsv), guard, action,
                           tuple(outputs), tuple(rollbacks))
            )
        else:
            self.transitions.append(
                CpnTransition(name, tuple(inputs), tuple(readsv), guard,
                              tuple(outputs), priority, emit)
            )

    # -- guard formulas ----------------------------------------------------

    def formula(self, vartab: dict) -> Formula:
        parts = [self.formula_and(vartab)]
        while self.peek() and self.peek().kind == "|":
            self.next()
            parts.append(self.formula_and(vartab))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def formula_and(self, vartab: dict) -> Formula:
        parts = [self.formula_unary(vartab)]
        while self.peek() and self.peek().kind == "&":
            self.next()
            parts.append(self.formula_unary(vartab))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def formula_unary(self, vartab: dict) -> Formula:
        t = self.peek()
        if t is None:
            raise self.end_of_file(" in guard")
        if t.kind == "!":
            self.next()
            return Not(self.formula_unary(vartab))
        if t.kind == "(":
            self.next()
            f = self.formula(vartab)
            self.expect(")")
            return f
        if t.kind == "ident" and t.value == "true":
            self.next()
            return TRUE
        if t.kind == "ident" and t.value == "false":
            self.next()
            return Or(())
        return self.resolve_compare(self.raw_compare(), vartab)

    # -- init and policy ---------------------------------------------------

    def item_init(self, kind: str):
        self.expect("{")
        while not (self.peek() and self.peek().kind == "}"):
            what = self.keyword(*(("fact", "token") if kind == "dbnet" else ("token",)))
            tok = self.expect("ident", "name")
            if what == "fact":
                rel = self.relations.get(tok.value)
                if rel is None:
                    raise self.err(f"unknown relation {tok.value!r}", tok)
                self.expect("(")
                row = self.typed_row(tuple(rel.column_types))
                self.facts.setdefault(rel.name, []).append(row)
            else:
                if tok.value in self.views:
                    raise self.err("view places cannot hold initial tokens", tok)
                if tok.value not in self.places:
                    raise self.err(f"unknown place {tok.value!r}", tok)
                self.expect("(")
                row = self.typed_row(tuple(self.places[tok.value].column_types))
                self.tokens.append((tok.value, row))
            self.expect(";")
        self.expect("}")

    def typed_row(self, col_types: tuple) -> tuple:
        row = []
        for ct in col_types:
            if row:
                self.expect(",")
            row.append(self.literal(self.types[ct]))
        self.expect(")")
        return tuple(row)

    def item_policy(self, kind: str):
        self.expect("{")
        while not (self.peek() and self.peek().kind == "}"):
            what = self.keyword("fresh", "sample")
            if what == "fresh":
                mode = self.keyword("recycling", "unbounded", "bounded")
                if mode == "bounded":
                    self.expect(":")
                    width = self.expect("int", "width")
                    if width.value < 1:
                        raise self.err("bounded freshness needs a positive width", width)
                    self.policy = FreshPolicy("bounded", width.value)
                else:
                    self.policy = FreshPolicy(mode)
            else:
                dt = self.lookup_type(self.expect("ident", "type name"))
                self.expect("{")
                vals = self.literal_list(dt, "}")
                self.samples[dt.name] = vals
            self.expect(";")
        self.expect("}")

    # -- assembly ----------------------------------------------------------

    def build_dbnet(self, name: str) -> DbNet:
        schema = Schema(relations=dict(self.relations), constraints=tuple(self.constraints))
        return DbNet(
            name=name,
            types=dict(self.types),
            schema=schema,
            queries=dict(self.queries),
            actions=dict(self.actions),
            control_places=dict(self.places),
            view_places=dict(self.views),
            transitions=tuple(self.transitions),
            initial_instance=Instance(schema, self.facts),
            initial_marking=Marking.from_tokens(self.tokens),
            samples=dict(self.samples),
            default_policy=self.policy,
        )

    def build_cpn(self, name: str) -> NuCpn:
        return NuCpn(
            name=name,
            types=dict(self.types),
            places=dict(self.places),
            transitions=tuple(self.transitions),
            initial_marking=Marking.from_tokens(self.tokens),
            samples=dict(self.samples),
            default_policy=self.policy,
            place_classes=dict(self.place_classes),
        )


def parse_model(text: str) -> ModelFile:
    """Parse a ``.dbn`` or ``.cpn`` file.  Raises :class:`DslError` with a
    1-based line/column on the first problem found."""
    return _Parser(_lex(text)).parse()


# ---------------------------------------------------------------------------
# Printer


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _lit(v: Value) -> str:
    if v.payload is None:
        return "null"
    if isinstance(v.payload, str):
        return _quote(v.payload)
    return str(v.payload)


def _term(t) -> str:
    if isinstance(t, Variable):
        return ("~" if t.fresh else "") + t.name
    return _lit(t)


def _terms(ts) -> str:
    return ", ".join(_term(t) for t in ts)


def _fmt_formula(f: Formula, prec: int = 0) -> str:
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Or):
        if not f.parts:
            return "false"
        body = " | ".join(_fmt_formula(p, 1) for p in f.parts)
        return f"({body})" if prec > 1 else body
    if isinstance(f, And):
        if not f.parts:
            return "true"
        body = " & ".join(_fmt_formula(p, 2) for p in f.parts)
        return f"({body})" if prec > 2 else body
    if isinstance(f, Not):
        return "!(" + _fmt_formula(f.sub, 0) + ")"
    if isinstance(f, Compare):
        return f"{_term(f.left)} {f.op} {_term(f.right)}"
    raise ValidationError(f"guard construct {type(f).__name__} has no textual form")


class _Printer:
    def __init__(self):
        self.lines: list = []

    def line(self, s: str = ""):
        self.lines.append(s)

    def blank(self):
        if self.lines and self.lines[-1] != "":
            self.lines.append("")

    def types_section(self, types: dict):
        self.blank()
        for name, dt in types.items():
            self.line(f"type {name} = {dt.kind};")

    def policy_section(self, policy: FreshPolicy, samples: dict):
        self.blank()
        self.line("policy {")
        self.line(f"  fresh {policy.describe()};")
        for tname in sorted(samples):
            vals = ", ".join(_lit(v) for v in samples[tname])
            self.line(f"  sample {tname} {{{vals}}};")
        self.line("}")

    def render(self) -> str:
        return "\n".join(self.lines).rstrip("\n") + "\n"


def _colnames(mf_names: dict, rel: RelationSchema) -> tuple:
    names = mf_names.get(rel.name)
    if names and len(names) == rel.arity:
        return names
    return tuple(f"c{i}" for i in range(rel.arity))


def _print_dbnet(net: DbNet, column_names: dict) -> str:
    p = _Printer()
    p.line(f"dbnet {_quote(net.name)};")
    p.types_section(net.types)

    if net.schema.relations:
        p.blank()
    for rel in net.schema.relations.values():
        cols = ", ".join(
            f"{cn}: {ct}" for cn, ct in zip(_colnames(column_names, rel), rel.column_types)
        )
        p.line(f"relation {rel.name}({cols});")
    for c in net.schema.constraints:
        rel = net.schema.relations[c.relation if hasattr(c, "relation") else c.source]
        names = _colnames(column_names, rel)
        if isinstance(c, PrimaryKey):
            p.line(f"constraint key {c.relation}({', '.join(names[i] for i in c.cols)});")
        elif isinstance(c, ForeignKey):
            tgt = net.schema.relations[c.target]
            tnames = _colnames(column_names, tgt)
            p.line(
                f"constraint foreign {c.source}({', '.join(names[i] for i in c.source_cols)})"
                f" -> {c.target}({', '.join(tnames[i] for i in c.target_cols)});"
            )
        else:
            vals = ", ".join(_lit(v) for v in c.allowed)
            p.line(f"constraint domain {c.relation}.{names[c.col]} in {{{vals}}};")

    if net.queries:
        p.blank()
    for q in net.queries.values():
        head = ", ".join(f"{v.name}: {v.dtype}" for v in q.head)
        bodies = []
        for d in q.disjuncts:
            items = [f"{a.relation}({_terms(a.terms)})" for a in d.atoms]
            items += [f"{_term(f.left)} {f.op} {_term(f.right)}" for f in d.filters]
            bodies.append(" & ".join(items))
        p.line(f"query {q.name}({head}) := {' | '.join(bodies)};")

    if net.actions:
        p.blank()
    for a in net.actions.values():
        params = ", ".join(f"{v.name}: {v.dtype}" for v in a.params)
        body = "".join(f" del {r}({_terms(ts)});" for r, ts in a.dels)
        body += "".join(f" add {r}({_terms(ts)});" for r, ts in a.adds)
        p.line(f"action {a.name}({params}) {{{body} }}")

    if net.control_places or net.view_places:
        p.blank()
    for pl in net.control_places.values():
        p.line(f"place {pl.name}({', '.join(pl.column_types)});")
    for v in net.view_places.values():
        p.line(f"view {v.name} := {v.query};")

    for t in net.transitions:
        p.blank()
        p.line(f"transition {t.name} {{")
        for pl, terms in t.inputs:
            p.line(f"  in {pl}({_terms(terms)});")
        for pl, terms in t.views:
            p.line(f"  read {pl}({_terms(terms)});")
        if t.guard != TRUE:
            p.line(f"  guard {_fmt_formula(t.guard)};")
        if t.action is not None:
            aname, args = t.action
            p.line(f"  act {aname}({_terms(args)});")
        for pl, terms in t.outputs:
            p.line(f"  out {pl}({_terms(terms)});")
        for pl, terms in t.rollbacks:
            p.line(f"  rollback {pl}({_terms(terms)});")
        p.line("}")

    p.blank()
    p.line("init {")
    for rel in net.initial_instance.facts:
        for row in sorted(net.initial_instance.facts[rel], key=_fact_sort_key):
            p.line(f"  fact {rel}({_terms(row)});")
    mk = net.initial_marking
    for place in mk.places_marked():
        for tok, count in mk.tokens(place):
            for _ in range(count):
                p.line(f"  token {place}({_terms(tok)});")
    p.line("}")

    p.policy_section(net.default_policy, net.samples)
    return p.render()


def _print_cpn(net: NuCpn) -> str:
    p = _Printer()
    p.line(f"cpn {_quote(net.name)};")
    p.types_section(net.types)

    p.blank()
    for pl in net.places.values():
        cls = net.place_classes.get(pl.name)
        suffix = f" @ {_quote(cls)}" if cls is not None else ""
        p.line(f"place {pl.name}({', '.join(pl.column_types)}){suffix};")

    for t in net.transitions:
        p.blank()
        p.line(f"transition {t.name} {{")
        for pl, terms in t.inputs:
            p.line(f"  in {pl}({_terms(terms)});")
        for pl, terms in t.reads:
            p.line(f"  read {pl}({_terms(terms)});")
        if t.guard != TRUE:
            p.line(f"  guard {_fmt_formula(t.guard)};")
        for pl, terms in t.outputs:
            p.line(f"  out {pl}({_terms(terms)});")
        if t.priority != P_NORMAL:
            p.line(f"  priority {_PRIORITY_NAMES[t.priority]};")
        if t.emit is not None:
            p.line(
                f"  emit {t.emit.transition} {t.emit.outcome}"
                f" ({', '.join(t.emit.var_names)});"
            )
        p.line("}")

    p.blank()
    p.line("init {")
    mk = net.initial_marking
    for place in mk.places_marked():
        for tok, count in mk.tokens(place):
            for _ in range(count):
                p.line(f"  token {place}({_terms(tok)});")
    p.line("}")

    p.policy_section(net.default_policy, net.samples)
    return p.render()


def print_model(target) -> str:
    """Canonical text for a :class:`ModelFile`, :class:`DbNet` or
    :class:`NuCpn`."""
    if isinstance(target, ModelFile):
        if target.kind == "dbnet":
            return _print_dbnet(target.model, target.column_names)
        return _print_cpn(target.model)
    if isinstance(target, DbNet):
        return _print_dbnet(target, {})
    if isinstance(target, NuCpn):
        return _print_cpn(target)
    raise ValidationError(f"cannot print a {type(target).__name__}")
