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

import re
from decimal import Decimal
from typing import NamedTuple, Optional

from .cpn import CpnPlace, CpnTransition, Emit, NuCpn, P_NORMAL, _PRIORITY_NAMES
from .fo import And, Atom, Compare, Formula, Not, Or, Truth, TRUE
from .freshness import FreshPolicy
from .marking import Marking
from .model import ControlPlace, DbNet, Transition, ViewPlace
from .queries import Conjunct, UcqQuery
from .record import Record, factory
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


class ModelFile(Record, frozen=False):
    """A parsed model plus the surface details needed to print it back
    faithfully (column names exist only in the text, not in the schema)."""

    kind: str  # "dbnet" | "cpn"
    model: object  # DbNet | NuCpn
    column_names: dict = factory(dict)  # relation -> tuple of str


# ---------------------------------------------------------------------------
# Lexer


class _Tok(NamedTuple):
    kind: str  # "ident" | "int" | "real" | "string" | punctuation itself
    value: object
    line: int
    col: int


# One match per token, blanks before it included.  The alternatives are
# tried in order; IDENT, INT and REAL are the lexical rules of
# docs/dsl.md, so identifiers and numbers are ASCII.  A string that never
# closes matches only ``open``; a character no rule takes matches ``bad``.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<punct>:=|!=|<=|>=|->|[(){},;:=<>&|!~@])
    | (?P<newline>\n)
    | (?P<skip>\#[^\n]*|\Z)
    | (?P<real>-?[0-9]+\.[0-9]+)
    | (?P<int>-?[0-9]+)
    | (?P<string>"(?:[^"\\\n]|\\["\\nt])*")
    | (?P<open>"(?:[^"\\\n]|\\["\\nt])*)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _string_value(quoted: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], quoted[1:-1])


_VALUES = {"int": int, "real": Decimal, "string": _string_value}


def _lex(text: str) -> list:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        value = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "punct":
            kind = value
        elif kind in _VALUES:
            value = _VALUES[kind](value)
        elif kind == "open":
            # the string stops short at a bad escape, a newline or the end
            if text.startswith("\\", m.end()):
                raise DslError("bad string escape", line, col + len(value))
            raise DslError("unterminated string literal", line, col)
        elif kind == "bad":
            raise DslError(f"unexpected character {value!r}", line, col)
        toks.append(_Tok(kind, value, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

_DBNET_ITEMS = ("type", "relation", "constraint", "query", "action",
                "place", "view", "transition", "init", "policy")
_CPN_ITEMS = ("type", "place", "transition", "init", "policy")
_DBNET_LINES = ("in", "read", "guard", "act", "out", "rollback")
_CPN_LINES = ("in", "read", "guard", "out", "priority", "emit")


class _Parser:
    def __init__(self, toks: list):
        # A closing "end" token at the last real one's location spares
        # every lookahead a bounds check.
        self.toks = toks + [_Tok("end", None, toks[-1].line, toks[-1].col)]
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
        self.policy: Optional[FreshPolicy] = None  # set by the `fresh` line

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.pos + ahead]

    def at(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind == "end":
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
        t = self.next()
        if t.kind != "ident" or t.value not in words:
            want = " or ".join(repr(w) for w in words)
            raise self.err(f"expected {want}, found {t.value!r}", t)
        return t.value

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value == word

    def err(self, message: str, tok: _Tok) -> DslError:
        return DslError(message, tok.line, tok.col)

    def end_of_file(self, where: str) -> DslError:
        """The text ends too early: located at its last token."""
        return self.err(f"unexpected end of file{where}", self.toks[-1])

    # -- shared small pieces ----------------------------------------------

    def fresh_name(self, table, tok: _Tok, what: str) -> str:
        if tok.value in table:
            raise self.err(f"duplicate {what} {tok.value!r}", tok)
        return tok.value

    def lookup(self, table: dict, tok: _Tok, what: str):
        """The declaration ``tok`` names in ``table``."""
        found = table.get(tok.value)
        if found is None:
            raise self.err(f"unknown {what} {tok.value!r}", tok)
        return found

    def named(self, table: dict, what: str):
        """The declaration the next token names in ``table``."""
        return self.lookup(table, self.expect("ident", f"{what} name"), what)

    def listed(self, item, brackets: str = "()", *, empty: bool = True) -> tuple:
        """``open item (',' item)* close``; with ``empty`` the items are
        optional."""
        self.expect(brackets[0])
        out = []
        if not (empty and self.at(brackets[1])):
            out.append(item())
            while self.at(","):
                self.next()
                out.append(item())
        self.expect(brackets[1])
        return tuple(out)

    def row(self, col_types: tuple, term) -> tuple:
        """``( term, ... )`` with one ``term(type)`` per column."""
        self.expect("(")
        out = []
        for ct in col_types:
            if out:
                self.expect(",")
            out.append(term(self.types[ct]))
        self.expect(")")
        return tuple(out)

    def variable(self) -> Optional[_Tok]:
        """The next token, consumed, if it names a variable: an
        identifier other than ``null``."""
        t = self.toks[self.pos]
        if t.kind == "ident" and t.value != "null":
            self.pos += 1
            return t
        return None

    def literal(self, dtype: DataType) -> Value:
        """A literal in a position of known type."""
        t = self.next()
        if t.kind in ("int", "real", "string") or (t.kind == "ident" and t.value == "null"):
            return self.value_of(t, dtype)
        raise self.err(f"expected a literal, found {t.value!r}", t)

    def value_of(self, t: _Tok, dtype: DataType) -> Value:
        """The literal token ``t`` read at ``dtype``."""
        if t.kind == "ident":  # null
            return Value(dtype.name, None)
        if t.kind == "string" and dtype.kind == "real":  # make_value would read it
            raise self.err(f"type {dtype.name}: expected real payload, got {t.value!r}", t)
        try:
            if t.kind == "int" and dtype.kind == "real":
                return make_value(dtype, Decimal(t.value))
            return make_value(dtype, t.value)
        except ValidationError as exc:
            raise self.err(str(exc), t) from exc

    # -- top level ---------------------------------------------------------

    def parse(self) -> ModelFile:
        kind = self.keyword("dbnet", "cpn")
        name = self.expect("string", "model name string").value
        self.expect(";")
        allowed = _DBNET_ITEMS if kind == "dbnet" else _CPN_ITEMS
        while not self.at("end"):
            t = self.next()
            if t.kind != "ident":
                raise self.err(f"expected a declaration, found {t.value!r}", t)
            if t.value not in allowed:
                raise self.err(f"unknown declaration {t.value!r}", t)
            getattr(self, f"item_{t.value}")(kind)
        model = self.build_dbnet(name) if kind == "dbnet" else self.build_cpn(name)
        return ModelFile(kind=kind, model=model, column_names=dict(self.column_names))

    # -- declarations ------------------------------------------------------

    def item_type(self, kind: str):
        name = self.fresh_name(self.types, self.expect("ident", "type name"), "type")
        self.expect("=")
        k = self.keyword(*_KINDS)
        self.expect(";")
        self.types[name] = DataType(name, k)

    def item_relation(self, kind: str):
        name = self.fresh_name(self.relations, self.expect("ident", "relation name"), "relation")
        names, keycols = [], []

        def col() -> str:
            cn = self.expect("ident", "column name")
            names.append(self.fresh_name(names, cn, "column"))
            self.expect(":")
            dt = self.named(self.types, "type")
            if self.at_keyword("key"):
                self.next()
                keycols.append(len(names) - 1)
            return dt.name

        cols = self.listed(col, empty=False)
        self.expect(";")
        self.relations[name] = RelationSchema(name, cols)
        self.column_names[name] = tuple(names)
        if keycols:
            self.constraints.append(PrimaryKey(name, tuple(keycols)))

    def rel_and_cols(self) -> tuple:
        rel = self.named(self.relations, "relation")
        names = self.column_names[rel.name]

        def col() -> int:
            cn = self.expect("ident", "column name")
            if cn.value not in names:
                raise self.err(f"{rel.name!r} has no column {cn.value!r}", cn)
            return names.index(cn.value)

        return rel, self.listed(col, empty=False)

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
            dt = self.types[rel.column_types[col]]
            allowed = self.listed(lambda: self.literal(dt), "{}")
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
        seen = set()

        def param() -> Variable:
            pn = self.expect("ident", "parameter name")
            seen.add(self.fresh_name(seen, pn, "parameter"))
            self.expect(":")
            return Variable(pn.value, self.named(self.types, "type").name)

        return self.listed(param)

    def item_query(self, kind: str):
        name = self.fresh_name(self.queries, self.expect("ident", "query name"), "query")
        head = self.typed_params()
        self.expect(":=")
        disjuncts = [self.disjunct(head)]
        while self.at("|"):
            self.next()
            disjuncts.append(self.disjunct(head))
        self.expect(";")
        self.queries[name] = UcqQuery(name, head, tuple(disjuncts))

    def disjunct(self, head: tuple) -> Conjunct:
        vartab = {v.name: v for v in head}
        atoms, raw_filters = [], []
        while True:
            t = self.peek()
            if t.kind == "end":
                raise self.end_of_file(" in query body")
            if t.kind == "ident" and self.peek(1).kind == "(":
                atoms.append(self.query_atom(vartab))
            else:
                raw_filters.append(self.raw_compare())
            if not self.at("&"):
                break
            self.next()
        filters = tuple(self.resolve_compare(rc, vartab) for rc in raw_filters)
        return Conjunct(tuple(atoms), filters)

    def query_atom(self, vartab: dict) -> Atom:
        rel = self.named(self.relations, "relation")

        def qterm(dt: DataType):
            t = self.variable()
            if t is None:
                return self.literal(dt)
            if t.value not in vartab:
                vartab[t.value] = Variable(t.value, dt.name)
            return vartab[t.value]

        return Atom(rel.name, self.row(rel.column_types, qterm))

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
            return self.value_of(tok, dt)

        return Compare(op_tok.value, resolve(left_tok), resolve(right_tok))

    def item_action(self, kind: str):
        name = self.fresh_name(self.actions, self.expect("ident", "action name"), "action")
        params = self.typed_params()
        vartab = {p.name: p for p in params}

        def aterm(dt: DataType):
            t = self.variable()
            if t is None:
                return self.literal(dt)
            if t.value not in vartab:
                raise self.err(f"{t.value!r} is not a parameter of {name!r}", t)
            return vartab[t.value]

        self.expect("{")
        adds, dels = [], []
        while not self.at("}"):
            which = self.keyword("add", "del")
            rel = self.named(self.relations, "relation")
            terms = self.row(rel.column_types, aterm)
            self.expect(";")
            (adds if which == "add" else dels).append((rel.name, terms))
        self.expect("}")
        self.actions[name] = Action(name, params, tuple(adds), tuple(dels))

    def item_place(self, kind: str):
        tok = self.expect("ident", "place name")
        if tok.value in self.places or tok.value in self.views:
            raise self.err(f"duplicate place {tok.value!r}", tok)
        name = tok.value
        cols = self.listed(lambda: self.named(self.types, "type").name)
        if self.at("@"):
            self.next()
            self.place_classes[name] = self.expect("string", "place class string").value
        self.expect(";")
        ctor = ControlPlace if kind == "dbnet" else CpnPlace
        self.places[name] = ctor(name, cols)

    def item_view(self, kind: str):
        tok = self.expect("ident", "view place name")
        if tok.value in self.places or tok.value in self.views:
            raise self.err(f"duplicate place {tok.value!r}", tok)
        self.expect(":=")
        query = self.named(self.queries, "query")
        self.expect(";")
        self.views[tok.value] = ViewPlace(tok.value, query.name)

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

        def term(dt: DataType):
            fresh = self.at("~")
            if fresh:
                self.next()
            t = self.variable()
            if t is None:
                if not (fresh or vars_only):
                    return self.literal(dt)
                t = self.next()
                if fresh:
                    raise self.err("'~' must be followed by a variable name", t)
                raise self.err("this inscription takes variables only", t)
            var = vartab.get(t.value)
            if var is None:
                var = vartab[t.value] = Variable(t.value, dt.name, fresh=fresh)
            elif var.fresh != fresh:
                raise self.err(f"variable {t.value!r} is used both with and without '~'", t)
            return var

        return self.row(col_types, term)

    def item_transition(self, kind: str):
        tok = self.expect("ident", "transition name")
        if any(t.name == tok.value for t in self.transitions):
            raise self.err(f"duplicate transition {tok.value!r}", tok)
        self.expect("{")
        dbn = kind == "dbnet"
        vartab: dict = {}
        arcs: dict = {"in": [], "read": [], "out": [], "rollback": []}
        guard: Formula = TRUE
        action, priority, emit = None, P_NORMAL, None
        while not self.at("}"):
            what = self.keyword(*(_DBNET_LINES if dbn else _CPN_LINES))
            if what in arcs:
                p = self.expect("ident", "place name")
                if dbn and what == "read" and p.value not in self.views:
                    raise self.err(f"{p.value!r} is not a view place", p)
                cols = self.place_columns(p, views_ok=what == "read")
                vars_only = dbn and what in ("in", "read")
                arcs[what].append((p.value, self.inscription(cols, vartab, vars_only=vars_only)))
            elif what == "guard":
                guard = self.formula(vartab)
            elif what == "act":
                act = self.named(self.actions, "action")
                param_types = tuple(p.dtype for p in act.params)
                action = (act.name, self.inscription(param_types, vartab, vars_only=False))
            elif what == "priority":
                priority = _PRIORITY_WORDS[self.keyword(*_PRIORITY_WORDS)]
            else:  # emit
                tname = self.expect("ident", "transition name").value
                outcome = self.keyword("commit", "rollback")
                names = self.listed(lambda: self.expect("ident", "variable name").value)
                emit = Emit(tname, outcome, names)
            self.expect(";")
        self.expect("}")
        inputs, reads, outputs = (tuple(arcs[k]) for k in ("in", "read", "out"))
        if dbn:
            t = Transition(tok.value, inputs, reads, guard, action, outputs,
                           tuple(arcs["rollback"]))
        else:
            t = CpnTransition(tok.value, inputs, reads, guard, outputs, priority, emit)
        self.transitions.append(t)

    # -- guard formulas ----------------------------------------------------

    def formula(self, vartab: dict) -> Formula:
        parts = [self.formula_and(vartab)]
        while self.at("|"):
            self.next()
            parts.append(self.formula_and(vartab))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def formula_and(self, vartab: dict) -> Formula:
        parts = [self.formula_unary(vartab)]
        while self.at("&"):
            self.next()
            parts.append(self.formula_unary(vartab))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def formula_unary(self, vartab: dict) -> Formula:
        t = self.peek()
        if t.kind == "end":
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
        while not self.at("}"):
            what = self.keyword(*(("fact", "token") if kind == "dbnet" else ("token",)))
            tok = self.expect("ident", "name")
            if what == "fact":
                rel = self.lookup(self.relations, tok, "relation")
                row = self.row(rel.column_types, self.literal)
                self.facts.setdefault(rel.name, []).append(row)
            else:
                if tok.value in self.views:
                    raise self.err("view places cannot hold initial tokens", tok)
                place = self.lookup(self.places, tok, "place")
                self.tokens.append((tok.value, self.row(place.column_types, self.literal)))
            self.expect(";")
        self.expect("}")

    def item_policy(self, kind: str):
        self.expect("{")
        while not self.at("}"):
            t = self.peek()
            if self.keyword("fresh", "sample") == "fresh":
                if self.policy is not None:
                    raise self.err("duplicate fresh line", t)
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
                tok = self.expect("ident", "type name")
                dt = self.lookup(self.types, tok, "type")
                self.fresh_name(self.samples, tok, "sample for type")
                self.samples[dt.name] = self.listed(lambda: self.literal(dt), "{}")
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
            default_policy=self.policy or FreshPolicy(),
        )

    def build_cpn(self, name: str) -> NuCpn:
        return NuCpn(
            name=name,
            types=dict(self.types),
            places=dict(self.places),
            transitions=tuple(self.transitions),
            initial_marking=Marking.from_tokens(self.tokens),
            samples=dict(self.samples),
            default_policy=self.policy or FreshPolicy(),
            place_classes=dict(self.place_classes),
        )


def parse_model(text: str) -> ModelFile:
    """Parse a ``.dbn`` or ``.cpn`` file.  Raises :class:`DslError` with a
    1-based line/column on the first problem found."""
    toks = _lex(text)
    if not toks:
        raise DslError("empty model: no declarations", 1, 1)
    return _Parser(toks).parse()


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
    if isinstance(f, (And, Or)) and len(f.parts) == 1:
        return _fmt_formula(f.parts[0], prec)
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
