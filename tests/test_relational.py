"""Typed instances, constraints and transactional action application."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dbnet.dsl import parse_model
from dbnet.fo import constraint_to_fo, eval_fo_oracle
from dbnet.freshness import stream_value
from dbnet.relational import (
    COMMITTED,
    ROLLED_BACK,
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
    active_domain,
    apply_action,
    canon_decimal,
    check_constraint,
    instance_lines,
    make_value,
    null_value,
)

INT = DataType("int", "int")
STR = DataType("string", "string")
REAL = DataType("real", "real")
TYPES = {"int": INT, "string": STR, "real": REAL}


def iv(n):
    return make_value(INT, n)


def sv(s):
    return make_value(STR, s)


def rv(x):
    return make_value(REAL, x)


# Two-relation schema used throughout: R(int) with key, S(int,int) whose
# second column references R.
FK = ForeignKey("S", (1,), "R", (0,))
PK_R = PrimaryKey("R", (0,))
SCHEMA = Schema(
    relations={
        "R": RelationSchema("R", ("int",)),
        "S": RelationSchema("S", ("int", "int")),
    },
    constraints=(PK_R, FK),
)


def inst(r_rows=(), s_rows=()):
    return Instance(
        SCHEMA,
        {
            "R": [(iv(a),) for a in r_rows],
            "S": [(iv(a), iv(b)) for a, b in s_rows],
        },
    )


# ---------------------------------------------------------------------------
# values


def test_make_value_canonicalizes_reals():
    assert make_value(REAL, "1.50") == make_value(REAL, "1.5")
    assert make_value(REAL, 2) == make_value(REAL, "2.000")
    assert str(canon_decimal("1e3")) == "1000"


@pytest.mark.parametrize("payload", ["x", True, [1], "NaN", "-Infinity", float("nan"),
                                     float("inf")])
def test_make_value_refuses_a_real_payload_that_is_no_finite_number(payload):
    # a NaN value could not equal itself
    with pytest.raises(ValidationError, match="expected a finite number"):
        make_value(REAL, payload)


def test_make_value_rejects_wrong_payload_kind():
    with pytest.raises(ValidationError):
        make_value(INT, "7")
    with pytest.raises(ValidationError):
        make_value(INT, True)  # bool is not an int here
    with pytest.raises(ValidationError):
        make_value(STR, 7)


def test_null_is_a_value_of_its_type():
    n = null_value(INT)
    assert n.is_null()
    assert n.dtype == "int"
    assert n != iv(0)
    # distinct types have disjoint domains, null included
    assert null_value(INT) != null_value(STR)


def test_disjoint_domains():
    assert iv(1) != make_value(REAL, 1)
    assert sv("1") != iv(1)


# ---------------------------------------------------------------------------
# interning: one live object per (dtype, payload)


def test_every_constructor_returns_the_interned_value():
    one = make_value(INT, 1)
    assert make_value(INT, 1) is one
    assert Value("int", 1) is one
    assert Value(dtype="int", payload=1) is one
    assert Value(payload=1, dtype="int") is one
    assert make_value(REAL, "1.50") is make_value(REAL, "1.5")
    assert null_value(INT) is null_value("int") is Value("int", None)
    assert stream_value(INT, 1) is one
    assert stream_value(STR, 2) is sv("v2")
    assert stream_value(REAL, 3) is rv("3.00")


def test_dsl_literals_are_the_interned_values():
    mf = parse_model(
        'dbnet "m";\n'
        "type int = int;\n"
        "type string = string;\n"
        "type real = real;\n"
        "relation T(i: int, s: string, r: real);\n"
        "constraint domain T.i in {7, null};\n"
        'constraint domain T.s in {"a"};\n'
        "constraint domain T.r in {2.50};\n"
    )
    allowed = [v for c in mf.model.schema.constraints if isinstance(c, DomainConstraint)
               for v in c.allowed]
    assert len(allowed) == 4
    wanted = [null_value(INT), iv(7), sv("a"), rv("2.5")]
    assert all(any(v is w for v in allowed) for w in wanted)


@pytest.mark.parametrize("value", [iv(3), sv("x"), rv("0.25"), null_value(REAL)])
def test_copies_and_pickles_return_the_interned_value(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy((value, [value]))[0] is value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value


def test_values_are_immutable():
    v = iv(4)
    with pytest.raises(AttributeError):
        v.payload = 5
    with pytest.raises(AttributeError):
        v.extra = 5
    with pytest.raises(AttributeError):
        del v.dtype
    assert (v.dtype, v.payload) == ("int", 4)
    assert make_value(INT, 4) is v


def test_equality_and_hashing_stay_in_c():
    # a decorator that brought back generated __eq__/__hash__ would make
    # every token, fact and marking hash through Python code again
    assert Value.__hash__ is object.__hash__
    assert Value.__eq__ is object.__eq__
    assert "__dict__" not in dir(iv(1))


def test_threads_constructing_one_key_get_one_object():
    def build(out):
        out.extend(Value("racy", i) for i in range(2000))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for made in zip(*results):
        assert all(v is made[0] for v in made)
    assert len(results[0]) == 2000


payloads = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.text(alphabet="ab1", max_size=2),
    st.decimals(min_value=-2, max_value=2, places=1, allow_nan=False, allow_infinity=False),
)
keys = st.tuples(st.sampled_from(["int", "string", "real", "other"]), payloads)


@given(keys, keys)
def test_interning_keeps_the_dataclass_equality(k1, k2):
    a, b = Value(*k1), Value(*k2)
    # the frozen dataclass compared exactly these pairs
    assert (a == b) == (k1 == k2)
    assert (a is b) == (a == b)
    assert (a == b) == ((a.dtype, a.payload) == (b.dtype, b.payload))
    assert (hash(a) == hash(b)) or a != b


# ---------------------------------------------------------------------------
# active domain


def test_active_domain_per_type():
    user = Schema(relations={"User": RelationSchema("User", ("int", "string"))})
    i = Instance(user, {"User": [(iv(1), sv("a")), (iv(2), sv("b"))]})
    assert active_domain(i, INT) == {iv(1), iv(2)}
    assert active_domain(i, STR) == {sv("a"), sv("b")}
    assert active_domain(i, REAL) == set()


def test_active_domain_empty_instance():
    assert active_domain(inst(), INT) == set()


def test_active_domain_sees_every_column():
    sch = Schema(
        relations={"InWarehouse": RelationSchema("InWarehouse", ("int", "string", "real"))}
    )
    i = Instance(sch, {"InWarehouse": [(iv(100), sv("tv"), rv("99.9"))]})
    assert active_domain(i, STR) == {sv("tv")}
    assert active_domain(i, REAL) == {rv("99.9")}


# ---------------------------------------------------------------------------
# instances


def test_set_semantics_duplicate_rows_collapse():
    once = inst(r_rows=[1])
    twice = Instance(SCHEMA, {"R": [(iv(1),), (iv(1),)], "S": []})
    assert once == twice
    assert hash(once) == hash(twice)


def test_instance_lines_sorted_and_stable():
    i = inst(r_rows=[2, 1], s_rows=[(5, 1)])
    assert instance_lines(i) == ["R(1)", "R(2)", "S(5,1)"]


def test_typecheck_flags_wrong_arity_and_type():
    bad = Instance(SCHEMA, {"R": [(iv(1), iv(2))]})
    assert bad.typecheck()
    bad2 = Instance(SCHEMA, {"R": [(sv("x"),)]})
    assert any("wrong type" in p for p in bad2.typecheck())


def test_facts_for_unknown_relation_rejected():
    with pytest.raises(ValidationError):
        Instance(SCHEMA, {"T": [(iv(1),)]})


# ---------------------------------------------------------------------------
# constraints


def test_key_holds_and_fails():
    user = Schema(relations={"User": RelationSchema("User", ("int", "string"))})
    pk = PrimaryKey("User", (0,))
    ok = Instance(user, {"User": [(iv(1), sv("a")), (iv(2), sv("a"))]})
    assert check_constraint(ok, pk)
    dup = Instance(user, {"User": [(iv(1), sv("a")), (iv(1), sv("b"))]})
    assert not check_constraint(dup, pk)


def test_reference_holds_fails_and_is_vacuous_on_empty_source():
    assert check_constraint(inst(r_rows=[1], s_rows=[(2, 1)]), FK)
    assert not check_constraint(inst(r_rows=[1], s_rows=[(2, 5)]), FK)
    assert check_constraint(inst(r_rows=[], s_rows=[]), FK)  # nothing to refer


def test_domain_constraint():
    dc = DomainConstraint("R", 0, (iv(1), iv(2)))
    assert check_constraint(inst(r_rows=[1, 2]), dc)
    assert not check_constraint(inst(r_rows=[3]), dc)


def test_check_constraint_rejects_ill_formed():
    with pytest.raises(ValidationError):
        check_constraint(inst(), PrimaryKey("Nope", (0,)))


def test_each_constraint_is_validated_once_per_schema(monkeypatch):
    validated = []
    real = Schema._validate_constraint
    monkeypatch.setattr(Schema, "_validate_constraint",
                        lambda schema, c: validated.append(c) or real(schema, c))
    schema = Schema(relations=SCHEMA.relations, constraints=SCHEMA.constraints)
    for rows in ([1], [1, 2], [3]):
        for c in schema.constraints:
            check_constraint(Instance(schema, {"R": [(iv(n),) for n in rows], "S": []}), c)
    assert validated == list(schema.constraints)
    # another schema validates on its own; an ill-formed constraint raises
    # on every call and is never taken for well-formed
    other = Schema(relations=SCHEMA.relations, constraints=SCHEMA.constraints)
    check_constraint(Instance(other, {"R": [], "S": []}), FK)
    bad = PrimaryKey("Nope", (0,))
    for _ in range(2):
        with pytest.raises(ValidationError, match="unknown relation"):
            check_constraint(Instance(schema, {"R": [], "S": []}), bad)
    assert validated == [*schema.constraints, FK, bad, bad]


def test_null_participates_in_keys_like_any_value():
    sch = Schema(relations={"T": RelationSchema("T", ("int", "int"))})
    pk = PrimaryKey("T", (0,))
    i = Instance(sch, {"T": [(null_value(INT), iv(1)), (null_value(INT), iv(2))]})
    assert not check_constraint(i, pk)


# ---------------------------------------------------------------------------
# actions


ADD_S = Action(
    "link",
    params=(Variable("a", "int"), Variable("b", "int")),
    adds=(("S", (Variable("a", "int"), Variable("b", "int"))),),
)


def test_apply_action_commit():
    out, outcome = apply_action(inst(r_rows=[1]), ADD_S, {"a": iv(9), "b": iv(1)})
    assert outcome == COMMITTED
    assert out.contains("S", (iv(9), iv(1)))


def test_apply_action_rollback_on_dangling_reference():
    start = inst(r_rows=[1])
    out, outcome = apply_action(start, ADD_S, {"a": iv(9), "b": iv(7)})
    assert outcome == ROLLED_BACK
    assert out == start
    assert instance_lines(out) == instance_lines(start)


def test_delete_before_add_keeps_readded_fact():
    # del and add of the very same fact in one action: deletions are
    # applied first, so the fact survives.
    both = Action(
        "churn",
        params=(Variable("x", "int"),),
        dels=(("R", (Variable("x", "int"),)),),
        adds=(("R", (Variable("x", "int"),)),),
    )
    out, outcome = apply_action(inst(r_rows=[1]), both, {"x": iv(1)})
    assert outcome == COMMITTED
    assert out.contains("R", (iv(1),))


def test_delete_of_absent_fact_is_a_no_op():
    drop = Action("drop", params=(Variable("x", "int"),), dels=(("R", (Variable("x", "int"),)),))
    out, outcome = apply_action(inst(r_rows=[1]), drop, {"x": iv(42)})
    assert outcome == COMMITTED
    assert out == inst(r_rows=[1])


def test_action_validate_catches_template_mistakes():
    bad = Action("bad", params=(Variable("x", "string"),), adds=(("R", (Variable("x", "string"),)),))
    assert any("expects int" in p for p in bad.validate(SCHEMA))
    worse = Action("worse", params=(), adds=(("R", (Variable("y", "int"),)),))
    assert any("not a parameter" in p for p in worse.validate(SCHEMA))


# ---------------------------------------------------------------------------
# properties

rows_r = st.lists(st.integers(0, 4), max_size=5)
rows_s = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5)


@given(rows_r, rows_s, st.integers(0, 5), st.integers(0, 5))
def test_outcome_dichotomy(r, s, a, b):
    start = inst(r, s)
    out, outcome = apply_action(start, ADD_S, {"a": iv(a), "b": iv(b)})
    if outcome == COMMITTED:
        for c in SCHEMA.constraints:
            assert check_constraint(out, c)
    else:
        assert outcome == ROLLED_BACK
        assert out == start


@given(rows_r, st.integers(0, 5))
def test_pure_add_is_idempotent(r, x):
    add_r = Action("addr", params=(Variable("x", "int"),), adds=(("R", (Variable("x", "int"),)),))
    theta = {"x": iv(x)}
    once, o1 = apply_action(inst(r), add_r, theta)
    twice, o2 = apply_action(once, add_r, theta)
    assert o1 == o2 == COMMITTED
    assert once == twice


@settings(max_examples=60)
@given(rows_r, rows_s)
def test_constraints_agree_with_fo_reading(r, s):
    i = inst(r, s)
    for c in SCHEMA.constraints:
        assert check_constraint(i, c) == eval_fo_oracle(i, constraint_to_fo(SCHEMA, c))


def test_thousand_random_instances_agree_with_fo_reading():
    # dual-route check on 1000 random instances, <=5 tuples per relation
    rng = random.Random(20250817)
    dc = DomainConstraint("S", 0, (iv(0), iv(1)))
    checked = 0
    for _ in range(1000):
        r = [rng.randrange(4) for _ in range(rng.randrange(6))]
        s = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(6))]
        i = inst(r, s)
        for c in (PK_R, FK, dc):
            assert check_constraint(i, c) == eval_fo_oracle(i, constraint_to_fo(SCHEMA, c))
            checked += 1
    assert checked == 3000


# ---------------------------------------------------------------------------
# transactions: the delta rule against a full check of the candidate

# R(int) keyed; S(int, int) keyed on its first column, whose first column
# lies in {0, 1, 2} and whose second column references R; T(int) is
# unconstrained.
TX_SCHEMA = Schema(
    relations={
        "R": RelationSchema("R", ("int",)),
        "S": RelationSchema("S", ("int", "int")),
        "T": RelationSchema("T", ("int",)),
    },
    constraints=(
        PK_R,
        PrimaryKey("S", (0,)),
        FK,
        DomainConstraint("S", 0, (iv(0), iv(1), iv(2))),
    ),
)

small = st.integers(0, 3)
tx_facts = st.one_of(
    st.tuples(st.just("R"), st.tuples(small)),
    st.tuples(st.just("S"), st.tuples(small, small)),
    st.tuples(st.just("T"), st.tuples(small)),
)
tx_update = st.tuples(st.lists(tx_facts, max_size=3), st.lists(tx_facts, max_size=3))


def tx_row(row):
    return tuple(iv(n) for n in row)


def tx_action(dels, adds) -> Action:
    """A parameterless action deleting, then adding, the given facts."""
    return Action(
        "tx",
        params=(),
        dels=tuple((rel, tx_row(row)) for rel, row in dels),
        adds=tuple((rel, tx_row(row)) for rel, row in adds),
    )


def reference_apply(instance, action):
    """Transactional application with every constraint checked from
    scratch on a candidate built afresh."""
    dels, adds = action.instantiate({})
    staged = {rel: set(rows) for rel, rows in instance.facts.items()}
    for rel, row in dels:
        staged[rel].discard(row)
    for rel, row in adds:
        staged[rel].add(row)
    candidate = Instance(instance.schema, staged)
    if all(check_constraint(candidate, c) for c in instance.schema.constraints):
        return candidate, COMMITTED
    return instance, ROLLED_BACK


@settings(max_examples=300)
@given(st.lists(tx_facts, max_size=6), st.lists(tx_update, min_size=1, max_size=4))
def test_apply_action_agrees_with_a_full_check(facts, updates):
    # Random instances are consistent or not; a chain of updates also
    # feeds committed results, known to be consistent, back in.
    staged = {}
    for rel, row in facts:
        staged.setdefault(rel, []).append(tx_row(row))
    instance = Instance(TX_SCHEMA, staged)
    for dels, adds in updates:
        action = tx_action(dels, adds)
        want, want_status = reference_apply(instance, action)
        got, status = apply_action(instance, action, {})
        assert status == want_status
        assert got == want and hash(got) == hash(want)
        assert instance_lines(got) == instance_lines(want)
        instance = got


def test_inconsistent_input_rolls_back_an_unconstrained_update():
    dangling = Instance(TX_SCHEMA, {"S": [tx_row((1, 3))]})  # R(3) is missing
    out, outcome = apply_action(dangling, tx_action([], [("T", (0,))]), {})
    assert outcome == ROLLED_BACK
    assert out == dangling


def test_commits_share_untouched_relations():
    start = Instance(TX_SCHEMA, {"R": [tx_row((1,))], "T": [tx_row((0,))]})
    out, outcome = apply_action(start, tx_action([], [("S", (0, 1))]), {})
    assert outcome == COMMITTED
    assert out.facts["R"] is start.facts["R"] and out.facts["T"] is start.facts["T"]
    assert out.facts["S"] == {tx_row((0, 1))}


def test_apply_action_raises_on_an_ill_formed_constraint():
    bad = Schema(relations=SCHEMA.relations, constraints=(PK_R, PrimaryKey("Nope", (0,))))
    start = Instance(bad, {"R": [(iv(1),)]})
    add_r = Action("addr", params=(), adds=(("R", (iv(2),)),))
    for _ in range(2):  # on first use, and again once the input was checked
        with pytest.raises(ValidationError):
            apply_action(start, add_r, {})
