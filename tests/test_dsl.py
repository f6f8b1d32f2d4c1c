"""Surface syntax: parsing, printing, and the canonical round trip."""

from pathlib import Path

import pytest

from dbnet.corpus import CORPUS, corpus_model_file
from dbnet.cpn import cpn_build_lts
from dbnet.dsl import DslError, parse_model, print_model
from dbnet.model import build_lts, validate
from dbnet.relational import PrimaryKey
from dbnet.translate import translate

from conftest import RECYCLING

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_files_round_trip(name):
    text = (CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8")
    mf1 = parse_model(text)
    printed = print_model(mf1)
    mf2 = parse_model(printed)
    assert mf2.model == mf1.model
    assert mf2.column_names == mf1.column_names
    # printing is a fixpoint: a second pass changes nothing
    assert print_model(mf2) == printed


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_files_match_the_builders(name):
    text = (CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8")
    assert parse_model(text).model == corpus_model_file(name).model


def test_inline_key_markers_become_key_constraints():
    mf = parse_model(
        'dbnet "m";\n'
        "type int = int;\n"
        "type string = string;\n"
        "relation User(ID: int key, card: string);\n"
    )
    sch = mf.model.schema
    assert sch.relations["User"].column_types == ("int", "string")
    assert PrimaryKey("User", (0,)) in sch.constraints
    assert mf.column_names["User"] == ("ID", "card")


def test_action_blocks_parse_in_order():
    mf = parse_model(
        'dbnet "m";\n'
        "type int = int;\n"
        "type string = string;\n"
        "relation WithBonus(UID: int, btype: string);\n"
        "action addb(uid: int, bt: string) { add WithBonus(uid, bt); }\n"
        "action swap(uid: int, o: string, n: string) "
        "{ del WithBonus(uid, o); add WithBonus(uid, n); }\n"
    )
    addb = mf.model.actions["addb"]
    assert [p.name for p in addb.params] == ["uid", "bt"]
    assert addb.adds[0][0] == "WithBonus"
    swap = mf.model.actions["swap"]
    assert len(swap.dels) == len(swap.adds) == 1


def test_strings_with_escapes_round_trip():
    mf = parse_model(
        'dbnet "m";\n'
        "type string = string;\n"
        "relation T(v: string);\n"
        'constraint domain T.v in {"a\\"b", "c\\\\d", "e\\nf"};\n'
    )
    printed = print_model(mf)
    assert parse_model(printed).model == mf.model


def test_negative_numbers_and_reals():
    mf = parse_model(
        'dbnet "m";\n'
        "type int = int;\n"
        "type real = real;\n"
        "place p(int, real);\n"
        "init { token p(-3, -1.50); }\n"
    )
    ((tok, n),) = mf.model.initial_marking.tokens("p")
    assert tok[0].payload == -3
    assert str(tok[1].payload) == "-1.5"  # canonical decimal


# ---------------------------------------------------------------------------
# diagnostics


def err_of(text):
    with pytest.raises(DslError) as e:
        parse_model(text)
    return e.value


def test_empty_file_is_a_clean_diagnostic():
    e = err_of("")
    assert (e.line, e.col) == (1, 1)
    assert "empty" in e.message
    assert str(e).startswith("1:1:")


def test_unknown_type_is_located():
    e = err_of('dbnet "m";\nrelation R(a: int);')
    assert e.line == 2
    assert "unknown type" in e.message


def test_duplicate_names_are_rejected():
    e = err_of('dbnet "m";\ntype int = int;\nrelation R(a: int);\nrelation R(b: int);')
    assert "duplicate relation" in e.message


def test_unknown_place_in_transition():
    e = err_of('dbnet "m";\ntype int = int;\nplace p(int);\ntransition T {\n  in q(x);\n}')
    assert "unknown place" in e.message
    assert e.line == 5


def test_mixed_fresh_markers_are_rejected():
    e = err_of(
        'dbnet "m";\ntype int = int;\nplace p(int);\nplace q(int);\n'
        "transition T {\n  in p(~x);\n  out q(x);\n}"
    )
    assert "with and without" in e.message


def test_fresh_marker_on_input_is_a_validation_problem_not_a_parse_error():
    mf = parse_model(
        'dbnet "m";\ntype int = int;\nplace p(int);\n'
        "transition T {\n  in p(~x);\n}\ninit { token p(1); }"
    )
    assert any("input arc" in p for p in validate(mf.model))


def test_arity_mismatch_in_token():
    # A one-column place stops reading terms after the first, so the
    # surplus term trips the close-paren check.
    e = err_of('dbnet "m";\ntype int = int;\nplace p(int);\ninit { token p(1, 2); }')
    assert "expected ')'" in e.message
    assert e.line == 4


def test_garbage_after_the_model():
    e = err_of('dbnet "m";\ntype int = int;\nwibble;')
    assert e.line == 3


# ---------------------------------------------------------------------------
# the translated dialect


def test_translated_net_survives_print_and_reparse(touch):
    out = translate(touch)
    printed = print_model(out.net)
    back = parse_model(printed)
    assert back.kind == "cpn"
    net2 = back.model
    # guards may lose a redundant singleton conjunction, so compare by
    # behaviour: identical state spaces, edge for edge
    l1 = cpn_build_lts(out.net, RECYCLING)
    l2 = cpn_build_lts(net2, RECYCLING)
    assert l1.state_count == l2.state_count
    r1 = {(l1.states[s].render(), l, l1.states[d].render()) for s, l, d in l1.edges}
    r2 = {(l2.states[s].render(), l, l2.states[d].render()) for s, l, d in l2.edges}
    assert r1 == r2


def test_translated_shop_reparses(shop_translation):
    printed = print_model(shop_translation.net)
    back = parse_model(printed)
    assert len(back.model.places) == len(shop_translation.net.places)
    assert len(back.model.transitions) == len(shop_translation.net.transitions)
    assert back.model.initial_marking == shop_translation.net.initial_marking
