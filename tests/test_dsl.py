"""Surface syntax: parsing, printing, and the canonical round trip."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from dbnet.corpus import build_shopping_cart, shop_text
from dbnet.cpn import cpn_build_lts
from dbnet.dsl import DslError, _fmt_formula, parse_model, print_model
from dbnet.fo import And, Compare, Or
from dbnet.model import build_lts, validate
from dbnet.relational import PrimaryKey, Variable
from dbnet.translate import translate

from conftest import CORPUS_DIR, CORPUS_NAMES, RECYCLING, load_corpus


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_files_round_trip(name):
    text = (CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8")
    mf1 = parse_model(text)
    printed = print_model(mf1)
    mf2 = parse_model(printed)
    assert mf2.model == mf1.model
    assert mf2.column_names == mf1.column_names
    # printing is a fixpoint: a second pass changes nothing
    assert print_model(mf2) == printed


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_files_are_in_printed_form(name):
    # each file is exactly what print_model writes for the net it defines,
    # after a leading template marker
    text = (CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8")
    body = text.partition("\n")[2] if text.startswith("# template:") else text
    assert print_model(parse_model(text)) == body


def test_shop_file_is_the_template_at_one_user_and_one_product():
    text = (CORPUS_DIR / "shopping-cart.dbn").read_text(encoding="utf-8")
    assert shop_text(1, 1) == text
    assert text.startswith("# template: shopping-cart\n")


# sha256 of print_model of the shop, users x products, as the Python
# constructors that the template text replaced built it
SHOP_DIGESTS = {
    (1, 1): "7e797954621f0ab14c054962b7576f11f6c9c522b4facab515bfd1f02feccb1f",
    (1, 2): "1a2405ef9a20dcfda48ac5beb5f6bb580549a17372eced7661f68760605889b7",
    (2, 1): "19e8203c175b50244e9ced137bdae3528de1ec73cdba54c885a00d1ec9dbd6c6",
    (2, 2): "fb7f3de53d2d6039b4ea183f07cb0530e413887813db40946d727995ec9869f3",
    (3, 3): "7478acdf597c08b8b13a98715889b069711a9fae1346b3c0a4baf8133e7b3653",
    (5, 5): "9ca965370467ae58e160f518fc52fb7ee224d5e8c553dad179c8e5e3bcf7ebb4",
}


@pytest.mark.parametrize("size", SHOP_DIGESTS, ids=lambda size: "%dx%d" % size)
def test_shop_template_prints_as_pinned(size):
    printed = print_model(parse_model(shop_text(*size)))
    assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == SHOP_DIGESTS[size]


@pytest.mark.parametrize("size", [(0, 1), (1, 0)])
def test_shop_sizes_below_one_are_rejected(size):
    with pytest.raises(ValueError, match="at least one user and one product"):
        build_shopping_cart(*size)


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


@pytest.mark.parametrize("literal, col", [("²", 11), ("1²", 12), ("٣", 11)])
def test_a_non_ascii_digit_is_an_unexpected_character(literal, col):
    # INT and REAL are ASCII digits; str.isdigit also accepts "²", which
    # int() rejects, and "٣", which it reads as 3
    text = (CORPUS_DIR / "touch.dbn").read_text(encoding="utf-8")
    e = err_of(text.replace("token p(1);", f"token p({literal});"))
    assert (e.line, e.col, e.message) == (28, col, f"unexpected character {literal[-1]!r}")


def test_a_non_ascii_letter_ends_an_identifier():
    # IDENT is ASCII; str.isalnum would take "é" and "²" into the name
    e = err_of('dbnet "m";\ntype id = int;\nplace pé²(id);\n')
    assert (e.line, e.col, e.message) == (3, 8, "unexpected character 'é'")


@pytest.mark.parametrize("literal", ['"x"', '"1.5"'])
def test_a_string_in_a_real_position_is_located(literal):
    # make_value reads a Python string at a real type as a decimal, so
    # the parser refuses the STRING token itself
    e = err_of(f'dbnet "m";\ntype r = real;\nplace p(r);\ninit {{ token p({literal}); }}\n')
    assert (e.line, e.col) == (4, 16)
    assert e.message == f"type r: expected real payload, got {literal[1:-1]!r}"


CORPUS_TEXTS = [(CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8") for name in CORPUS_NAMES]
# characters that reach the lexer's branches, with non-ASCII digits and
# letters among them
LEXER_CHARS = st.one_of(
    st.characters(), st.sampled_from('0123456789²٣éßﬁ-."\\#(){},;:=<>!~@_ \n')
)


@st.composite
def mutated_texts(draw) -> str:
    """A corpus text with one span replaced by arbitrary characters, or
    arbitrary text."""
    if draw(st.booleans()):
        return draw(st.text(LEXER_CHARS, max_size=40))
    text = draw(st.sampled_from(CORPUS_TEXTS))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 6)))
    return text[:start] + draw(st.text(LEXER_CHARS, max_size=4)) + text[end:]


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_parsing_any_text_raises_only_dsl_error(text):
    try:
        parse_model(text)
    except DslError:
        pass


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


def test_zero_width_bounded_freshness_is_located():
    e = err_of('dbnet "m";\ntype int = int;\npolicy {\n  fresh bounded:0;\n}')
    assert (e.line, e.col) == (4, 17)
    assert "positive width" in e.message


@pytest.mark.parametrize("text, where", [
    ('dbnet "m";\ntype int = int;\nquery Q(x: int) :=', (3, 17)),
    ('dbnet "m";\ntype int = int;\nplace p(int);\ntransition T {\n  in p(x);\n  guard', (6, 3)),
    ('dbnet "m";\ntype int = int;\nplace p(int);\ntransition T {\n  in p(x)', (5, 9)),
], ids=["query-body", "guard", "transition"])
def test_an_early_end_of_file_is_located_at_the_last_token(text, where):
    e = err_of(text)
    assert "unexpected end of file" in e.message
    assert (e.line, e.col) == where


@pytest.mark.parametrize("text", [
    'dbnet "m";\ntype int = int;\nrelation R(a: int);\nquery Q(x: int) := R(',
    'dbnet "m";\ntype int = int;\nrelation R(a: int);\naction A(x: int) { add R(',
    'dbnet "m";\ntype int = int;\nplace p(int);\ntransition T {\n  in p(',
], ids=["query-atom", "action-term", "inscription"])
def test_an_end_of_file_inside_a_term_list_is_located(text):
    e = err_of(text)
    assert e.message == "unexpected end of file"
    assert (e.line, e.col) == (text.count("\n") + 1, len(text.rpartition("\n")[2]))


@pytest.mark.parametrize("lines, where, message", [
    ("sample id {1};\n  sample id {2};", (5, 10), "duplicate sample for type 'id'"),
    ("fresh recycling;\n  fresh bounded:2;", (5, 3), "duplicate fresh line"),
    ("fresh recycling;\n}\npolicy {\n  fresh bounded:2;", (7, 3), "duplicate fresh line"),
], ids=["sample", "fresh", "fresh-in-a-second-block"])
def test_a_second_policy_line_of_one_kind_is_rejected(lines, where, message):
    e = err_of(f'dbnet "m";\ntype id = int;\npolicy {{\n  {lines}\n}}\n')
    assert ((e.line, e.col), e.message) == (where, message)


def test_empty_domain_and_sample_lists_round_trip():
    mf = parse_model(
        'dbnet "m";\ntype id = int;\nrelation R(a: id);\n'
        "constraint domain R.a in {};\npolicy {\n  sample id {};\n}\n"
    )
    assert mf.model.samples == {"id": ()}
    assert parse_model(print_model(mf)).model == mf.model


LISTS_DBN = """dbnet "m";
type id = int;
type s = string;
relation R(a: id key, b: s);
relation S(c: id, d: s);
constraint key S(c, d);
constraint foreign S(c, d) -> R(a, b);
constraint domain R.b in {"x", "y"};
query Q(x: id, y: s) := R(x, y);
action A(x: id, y: s) { add R(x, y); }
place p(id, s);
view v := Q;
transition T {
  in p(x, y);
  read v(x, y);
  act A(x, y);
  out p(x, y);
}
init { fact R(1, "x"); token p(1, "x"); }
policy { fresh recycling; sample id {1, 2}; }
"""
LISTS_CPN = """cpn "m";
type id = int;
place p(id);
transition T {
  in p(x);
  out p(x);
  emit U commit (x, y);
}
"""


# Each case rewrites one comma list; "$" marks the offending token.
@pytest.mark.parametrize("text, old, new, message", [
    (LISTS_DBN, "A(x: id, y: s)", "A(x: id $y: s)", "expected ')', found 'y'"),
    (LISTS_DBN, "A(x: id, y: s)", "A(x: id, y: s,$)", "expected parameter name, found ')'"),
    (LISTS_DBN, "Q(x: id, y: s)", "Q(x: id $y: s)", "expected ')', found 'y'"),
    (LISTS_DBN, "Q(x: id, y: s)", "Q(x: id, y: s,$)", "expected parameter name, found ')'"),
    (LISTS_DBN, "place p(id, s)", "place p(id $s)", "expected ')', found 's'"),
    (LISTS_DBN, "place p(id, s)", "place p(id, s,$)", "expected type name, found ')'"),
    (LISTS_CPN, "(x, y)", "(x $y)", "expected ')', found 'y'"),
    (LISTS_CPN, "(x, y)", "(x, y,$)", "expected variable name, found ')'"),
    (LISTS_DBN, "R(a: id key, b: s)", "R(a: id key $b: s)", "expected ')', found 'b'"),
    (LISTS_DBN, "R(a: id key, b: s)", "R(a: id key, b: s,$)", "expected column name, found ')'"),
    (LISTS_DBN, "key S(c, d)", "key S(c $d)", "expected ')', found 'd'"),
    (LISTS_DBN, "key S(c, d)", "key S(c, d,$)", "expected column name, found ')'"),
    (LISTS_DBN, "-> R(a, b)", "-> R(a $b)", "expected ')', found 'b'"),
    (LISTS_DBN, "-> R(a, b)", "-> R(a, b,$)", "expected column name, found ')'"),
    (LISTS_DBN, '{"x", "y"}', '{"x" $"y"}', "expected '}', found 'y'"),
    (LISTS_DBN, '{"x", "y"}', '{"x", "y",$}', "expected a literal, found '}'"),
    (LISTS_DBN, "{1, 2}", "{1 $2}", "expected '}', found 2"),
    (LISTS_DBN, "{1, 2}", "{1, 2,$}", "expected a literal, found '}'"),
    (LISTS_DBN, ":= R(x, y)", ":= R(x $y)", "expected ',', found 'y'"),
    (LISTS_DBN, ":= R(x, y)", ":= R(x, y$,)", "expected ')', found ','"),
    (LISTS_DBN, "add R(x, y)", "add R(x $y)", "expected ',', found 'y'"),
    (LISTS_DBN, "add R(x, y)", "add R(x, y$,)", "expected ')', found ','"),
    (LISTS_DBN, "in p(x, y)", "in p(x $y)", "expected ',', found 'y'"),
    (LISTS_DBN, "in p(x, y)", "in p(x, y$,)", "expected ')', found ','"),
    (LISTS_DBN, "act A(x, y)", "act A(x $y)", "expected ',', found 'y'"),
    (LISTS_DBN, "act A(x, y)", "act A(x, y$,)", "expected ')', found ','"),
    (LISTS_DBN, 'fact R(1, "x")', 'fact R(1 $"x")', "expected ',', found 'x'"),
    (LISTS_DBN, 'fact R(1, "x")', 'fact R(1, "x"$,)', "expected ')', found ','"),
    (LISTS_DBN, 'token p(1, "x")', 'token p(1 $"x")', "expected ',', found 'x'"),
    (LISTS_DBN, 'token p(1, "x")', 'token p(1, "x"$,)', "expected ')', found ','"),
], ids=[f"{site}-{how}" for site in (
    "action-params", "query-head", "place-columns", "emit-names", "relation-columns",
    "key-columns", "foreign-columns", "domain-literals", "sample-literals", "query-atom",
    "action-terms", "inscription", "action-arguments", "fact-row", "token-row",
) for how in ("missing-comma", "trailing-comma")])
def test_comma_lists_follow_the_grammar(text, old, new, message):
    assert parse_model(text)
    assert text.count(old) == 1
    marked = text.replace(old, new)
    at = marked.index("$")
    where = (marked.count("\n", 0, at) + 1, at - marked.rfind("\n", 0, at))
    e = err_of(marked.replace("$", ""))
    assert ((e.line, e.col), e.message) == (where, message)


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


@pytest.mark.parametrize("name", CORPUS_NAMES + ["shop-2x2"])
def test_a_translated_net_prints_in_printed_form(name):
    # the translator builds one-part disjunctions (key checks on two
    # columns); they print as their part, so the text reads back unchanged
    model = build_shopping_cart(2, 2) if name == "shop-2x2" else load_corpus(name)
    printed = print_model(translate(model).net)
    assert print_model(parse_model(printed)) == printed


def test_a_one_part_conjunction_or_disjunction_prints_as_its_part():
    x = Compare("=", Variable("a", "int"), Variable("b", "int"))
    y = Compare("!=", Variable("c", "int"), Variable("d", "int"))
    assert _fmt_formula(And((x, Or((y,))))) == "a = b & c != d"
    assert _fmt_formula(Or((And((x,)), y))) == "a = b | c != d"
    assert _fmt_formula(And((Or((x, y)),))) == "a = b | c != d"
    assert _fmt_formula(And((Or((And((x, y)),)), y))) == "a = b & c != d & c != d"
    assert _fmt_formula(And((Or((Or((x, y)),)), y))) == "(a = b | c != d) & c != d"


def test_translated_shop_reparses(shop_translation):
    printed = print_model(shop_translation.net)
    back = parse_model(printed)
    assert len(back.model.places) == len(shop_translation.net.places)
    assert len(back.model.transitions) == len(shop_translation.net.transitions)
    assert back.model.initial_marking == shop_translation.net.initial_marking
