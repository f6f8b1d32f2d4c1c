"""View queries: evaluation, validation, and the formula reading."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from dbnet.fo import Atom, Compare, Exists, Forall, Or, Truth, Variable, eval_fo_oracle
from dbnet.marking import Marking
from dbnet.model import eval_guard
from dbnet.queries import Conjunct, UcqQuery, eval_ucq, join, ucq_to_fo, validate_view_query
from dbnet.relational import (
    ContractError,
    DataType,
    Instance,
    RelationSchema,
    Schema,
    ground,
    make_value,
    null_value,
)
from dbnet.translate import _compile_conjunct

INT = DataType("int", "int")
STR = DataType("string", "string")
REAL = DataType("real", "real")
TYPES = {"int": INT, "string": STR, "real": REAL}

SHOP = Schema(
    relations={
        "User": RelationSchema("User", ("int", "string")),
        "InWarehouse": RelationSchema("InWarehouse", ("int", "string", "real")),
    }
)


def iv(n):
    return make_value(INT, n)


def sv(s):
    return make_value(STR, s)


def rv(x):
    return make_value(REAL, x)


def shop_instance():
    return Instance(
        SHOP,
        {
            "User": [(iv(1), sv("a")), (iv(2), sv("b"))],
            "InWarehouse": [
                (iv(7), sv("tv"), rv("99.9")),
                (iv(8), sv("radio"), null_value(REAL)),
            ],
        },
    )


Q_USERS = UcqQuery(
    "Q_users",
    (Variable("uid", "int"),),
    (Conjunct((Atom("User", (Variable("uid", "int"), Variable("c", "string"))),), ()),),
)

# all products whose cost is known
Q_PRODUCTS = UcqQuery(
    "Q_products",
    (Variable("pid", "int"), Variable("pn", "string"), Variable("c", "real")),
    (
        Conjunct(
            (
                Atom(
                    "InWarehouse",
                    (Variable("pid", "int"), Variable("pn", "string"), Variable("c", "real")),
                ),
            ),
            (Compare("!=", Variable("c", "real"), null_value(REAL)),),
        ),
    ),
)


def test_projection_drops_the_existential_column():
    got = eval_ucq(shop_instance(), Q_USERS)
    assert got == frozenset({(iv(1),), (iv(2),)})
    assert got == gen.answers_by_oracle(shop_instance(), Q_USERS)


def test_null_filter_screens_out_unknown_cost():
    got = eval_ucq(shop_instance(), Q_PRODUCTS)
    assert got == frozenset({(iv(7), sv("tv"), rv("99.9"))})
    assert got == gen.answers_by_oracle(shop_instance(), Q_PRODUCTS)


def test_empty_instance_empty_answers():
    assert eval_ucq(Instance(SHOP), Q_USERS) == frozenset()


def test_constants_in_atoms_select():
    q = UcqQuery(
        "Q_a",
        (Variable("uid", "int"),),
        (Conjunct((Atom("User", (Variable("uid", "int"), sv("a"))),), ()),),
    )
    assert eval_ucq(shop_instance(), q) == frozenset({(iv(1),)})


def test_union_is_the_union_of_disjuncts():
    c1 = Conjunct((Atom("User", (Variable("uid", "int"), sv("a"))),), ())
    c2 = Conjunct((Atom("User", (Variable("uid", "int"), sv("b"))),), ())
    both = UcqQuery("Q_or", (Variable("uid", "int"),), (c1, c2))
    left = UcqQuery("Q_l", (Variable("uid", "int"),), (c1,))
    right = UcqQuery("Q_r", (Variable("uid", "int"),), (c2,))
    i = shop_instance()
    assert eval_ucq(i, both) == eval_ucq(i, left) | eval_ucq(i, right)


def test_repeated_variable_means_join():
    sch = Schema(relations={"E": RelationSchema("E", ("int", "int"))})
    i = Instance(sch, {"E": [(iv(1), iv(2)), (iv(2), iv(3)), (iv(5), iv(5))]})
    hops = UcqQuery(
        "two_hop",
        (Variable("x", "int"), Variable("z", "int")),
        (
            Conjunct(
                (
                    Atom("E", (Variable("x", "int"), Variable("y", "int"))),
                    Atom("E", (Variable("y", "int"), Variable("z", "int"))),
                ),
                (),
            ),
        ),
    )
    assert eval_ucq(i, hops) == frozenset({(iv(1), iv(3)), (iv(5), iv(5))})


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_the_shop_queries():
    assert validate_view_query(TYPES, SHOP, Q_USERS) == []
    assert validate_view_query(TYPES, SHOP, Q_PRODUCTS) == []


def test_validate_flags_type_mismatch():
    q = UcqQuery(
        "bad",
        (Variable("uid", "string"),),
        (Conjunct((Atom("User", (Variable("uid", "string"), Variable("c", "string"))),), ()),),
    )
    probs = validate_view_query(TYPES, SHOP, q)
    assert any("type" in p for p in probs)


def test_validate_flags_arity_misuse():
    q = UcqQuery(
        "bad",
        (Variable("uid", "int"),),
        (Conjunct((Atom("User", (Variable("uid", "int"),)),), ()),),
    )
    assert any("arity" in p for p in validate_view_query(TYPES, SHOP, q))


def test_validate_flags_unbound_head_variable():
    q = UcqQuery(
        "loose",
        (Variable("z", "int"),),
        (Conjunct((Atom("User", (Variable("uid", "int"), Variable("c", "string"))),), ()),),
    )
    assert any("not bound" in p for p in validate_view_query(TYPES, SHOP, q))


def test_validate_flags_order_comparison_on_unordered_type():
    q = UcqQuery(
        "ord",
        (Variable("c", "string"),),
        (
            Conjunct(
                (Atom("User", (Variable("uid", "int"), Variable("c", "string"))),),
                (Compare("<", Variable("c", "string"), sv("m")),),
            ),
        ),
    )
    assert any("unordered" in p for p in validate_view_query(TYPES, SHOP, q))


def test_validate_flags_no_disjuncts():
    q = UcqQuery("none", (Variable("x", "int"),), ())
    assert any("no disjuncts" in p for p in validate_view_query(TYPES, SHOP, q))


# ---------------------------------------------------------------------------
# the naive evaluator itself


def test_quantifiers_over_empty_domain():
    empty = Instance(SHOP)
    x = Variable("x", "int")
    assert eval_fo_oracle(empty, Forall(x, Or(())))  # vacuously true
    assert not eval_fo_oracle(empty, Exists(x, Truth()))


def test_oracle_quantifies_over_env_values_too():
    i = Instance(SHOP, {"User": [(iv(1), sv("a"))]})
    x = Variable("x", "int")
    probe = Exists(x, Compare("=", x, Variable("y", "int")))
    assert eval_fo_oracle(i, probe, {"y": iv(1)})
    # 9 is absent from the instance, so only the env can supply it
    assert eval_fo_oracle(i, probe, {"y": iv(9)})


# ---------------------------------------------------------------------------
# agreement with the formula route


def test_thousand_random_queries_agree_with_oracle():
    rng = random.Random(415)
    for i in range(1000):
        inst = gen.random_instance(rng)
        q = gen.random_query(rng, f"Q{i}")
        assert validate_view_query(gen.TYPES, gen.GEN_SCHEMA, q) == []
        assert eval_ucq(inst, q) == gen.answers_by_oracle(inst, q), q


def test_compiled_view_disjuncts_agree_with_eval_ucq_and_oracle():
    # The translation realises each disjunct of a view as read arcs on the
    # relation places plus a guard.  Grounded over a marking of those
    # places, the compiled disjuncts must answer what the query answers.
    # The arc variables reuse the query's own names in another order, so
    # an existential left unrenamed would clash with one of them.
    rng = random.Random(2914)
    places = {rel: f"rel.{rel}" for rel in gen.GEN_SCHEMA.relations}
    for i in range(1000):
        inst = gen.random_instance(rng)
        q = gen.random_query(rng, f"Q{i}")
        marking = Marking.from_tokens(
            (places[rel], row) for rel, rows in inst.facts.items() for row in rows
        )
        arc = tuple(Variable(f"x{len(q.head) - 1 - k}", h.dtype) for k, h in enumerate(q.head))
        found = set()
        for j, conj in enumerate(q.disjuncts, start=1):
            reads, guard = _compile_conjunct("T", 1, j, q, conj, arc, places)
            for theta in join([{}], reads, marking.tokens):
                if eval_guard(guard, theta):
                    found.add(ground(arc, theta))
        assert found == eval_ucq(inst, q) == gen.answers_by_oracle(inst, q), q


def test_unbound_variables_make_a_query_unsafe():
    x, y = Variable("x", "int"), Variable("y", "int")
    inst = Instance(gen.GEN_SCHEMA, {"A": [(iv(1),)]})
    unbound_head = UcqQuery("H", (y,), (Conjunct((Atom("A", (x,)),)),))
    unbound_filter = UcqQuery("F", (x,), (Conjunct((Atom("A", (x,)),), (Compare("!=", y, iv(0)),)),))
    for q in (unbound_head, unbound_filter):
        with pytest.raises(ContractError, match="unsafe query"):
            eval_ucq(inst, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
def test_single_conjunct_queries_are_monotone(seed, extra):
    rng = random.Random(seed)
    small = gen.random_instance(rng)
    q = gen.random_query(rng)
    grown = {rel: set(rows) for rel, rows in small.facts.items()}
    for a, b in extra:
        grown["B"].add((iv(a), sv("ab"[b % 2])))
        grown["A"].add((iv(b),))
    big = Instance(gen.GEN_SCHEMA, grown)
    assert eval_ucq(small, q) <= eval_ucq(big, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_answers_are_well_typed(seed):
    rng = random.Random(seed)
    inst = gen.random_instance(rng)
    q = gen.random_query(rng)
    for row in eval_ucq(inst, q):
        assert len(row) == len(q.head)
        for v, h in zip(row, q.head):
            assert v.dtype == h.dtype


def test_formula_reading_round_trip_shapes():
    fo = ucq_to_fo(Q_USERS)
    # one existential for the non-head variable, body mentions the atom
    assert isinstance(fo, Exists)
    assert fo.var.name == "c"
