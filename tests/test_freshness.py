"""Fresh value supply policies."""

from decimal import Decimal

import pytest

from dbnet.freshness import BOUNDED, RECYCLING, UNBOUNDED, FreshPolicy, stream_value
from dbnet.relational import ContractError, DataType, ValidationError, make_value

INT = DataType("int", "int")
STR = DataType("string", "string")
REAL = DataType("real", "real")


def test_streams_are_one_based_and_typed():
    assert stream_value(INT, 1) == make_value(INT, 1)
    assert stream_value(INT, 3) == make_value(INT, 3)
    assert stream_value(STR, 2) == make_value(STR, "v2")
    assert stream_value(REAL, 2) == make_value(REAL, Decimal(2))
    with pytest.raises(ContractError):
        stream_value(INT, 0)


def test_parse_and_describe():
    assert FreshPolicy.parse("recycling").mode == RECYCLING
    assert FreshPolicy.parse("unbounded").mode == UNBOUNDED
    p = FreshPolicy.parse("bounded:3")
    assert (p.mode, p.width) == (BOUNDED, 3)
    assert p.describe() == "bounded:3"
    assert FreshPolicy().describe() == "recycling"
    # the width is ASCII digits: int() rejects "²", and reads "٣" as 3
    for bad in ("bounded", "bounded:x", "fresh", "bounded:-1", "bounded:²", "bounded:1²",
                "bounded:٣"):
        with pytest.raises(ValidationError):
            FreshPolicy.parse(bad)


def test_zero_width_rejected():
    with pytest.raises(ValidationError):
        FreshPolicy(BOUNDED, 0)


def test_recycling_returns_first_unused():
    p = FreshPolicy()
    assert p.candidates(STR, set()) == [make_value(STR, "v1")]
    used = {make_value(STR, "v1"), make_value(STR, "v3")}
    assert p.candidates(STR, used) == [make_value(STR, "v2")]
    # freed values come back
    assert p.candidates(STR, {make_value(STR, "v3")}) == [make_value(STR, "v1")]


def test_bounded_returns_k_distinct_unused():
    p = FreshPolicy(BOUNDED, 3)
    got = p.candidates(INT, {make_value(INT, 2)})
    assert got == [make_value(INT, 1), make_value(INT, 3), make_value(INT, 4)]
    assert len(set(got)) == 3


def test_candidates_depend_only_on_used_set():
    p = FreshPolicy(BOUNDED, 2)
    used = {make_value(INT, 1)}
    assert p.candidates(INT, used) == p.candidates(INT, set(used))


def test_unbounded_branches_infinitely_in_principle():
    p = FreshPolicy(UNBOUNDED)
    assert not p.finite_branching
    assert FreshPolicy().finite_branching
