"""Enabled bindings of both net layers against brute force.

Both layers bind through one engine (``model.bind_transition``).  The
oracle here does not: it tries every assignment of a transition's
variables over candidate domains and keeps those that the checked
firing accepts (``fire`` for the source layer, ``cpn_fire`` on a
one-transition copy of the translated net, so that priorities play no
part).  A variable's candidates are the values at its positions on the
rows its arcs can match (all rows, not a join), or its sample domain if
no arc binds it; fresh variables take ``policy.candidates`` in name
order, each avoiding what is in use plus the earlier picks.  The engine
must produce exactly the accepted assignments, each once.

Besides the corpus nets, ``twins`` has a transition with two inputs on
one place (multiset inclusion) and one with two fresh variables of one
type (a pick avoids the earlier picks), and ``echo`` lists a sample
value twice, which must still give each binding once.

Both firings check a binding with one procedure
(``model.binding_problem``): the last tests take one enabled binding,
change it once per reason a binding can be refused, and check on both
layers that the refusal names that reason.
"""

import dataclasses
import itertools

import pytest

from dbnet.cpn import CpnPlace, CpnTransition, NuCpn, _cpn_scope, cpn_build_lts, cpn_enabled, cpn_fire
from dbnet.dsl import parse_model
from dbnet.fo import Compare
from dbnet.marking import Marking
from dbnet.model import analyze_transition, build_lts, enabled_bindings, fire
from dbnet.queries import eval_ucq
from dbnet.relational import ContractError, DataType, Variable, active_domain, make_value
from dbnet.translate import translate

from conftest import BOUNDED1

INT = DataType("int", "int")


def iv(n):
    return make_value(INT, n)


NETS = ["shop", "touch", "guarded", "domviol", "fk_net", "selfref", "empty_net", "twins", "echo"]

TWINS = """dbnet "twins";

type int = int;

relation R(a: int);

place p(int);
place q(int, int);

transition Pair {
  in p(x);
  in p(y);
  out q(x, y);
}

transition Mint {
  in q(x, y);
  out p(~a);
  out p(~b);
}

init {
  token p(1);
  token p(2);
}
"""


ECHO = """dbnet "echo";

type int = int;

relation R(a: int);

action put(v: int) { add R(v); }

place p(int);

transition Echo {
  in p(x);
  act put(v);
  out p(v);
}

init {
  token p(0);
}

policy {
  fresh recycling;
  sample int {2, 1, 2, 1};
}
"""


@pytest.fixture(scope="module")
def twins():
    return parse_model(TWINS).model


@pytest.fixture(scope="module")
def echo():
    return parse_model(ECHO).model


def binding_key(theta):
    return tuple(sorted(theta.items()))


def assert_same_bindings(engine, brute):
    keys = [binding_key(theta) for theta in engine]
    assert len(keys) == len(set(keys)), "the engine repeats a binding"
    assert set(keys) == {binding_key(theta) for theta in brute}


def candidates(arcs, external, samples):
    """name -> candidate values: for a variable on arcs, the values at its
    positions over all rows of those arcs; otherwise its sample domain."""
    domains = {}
    for terms, rows in arcs:
        for i, term in enumerate(terms):
            if isinstance(term, Variable):
                column = {row[i] for row in rows}
                domains[term.name] = domains.get(term.name, column) & column
    for var in external:
        domains[var.name] = set(samples.get(var.dtype, ()))
    return domains


def assignments(domains, fresh, types, used, policy):
    """Every assignment over ``domains``, extended over ``fresh`` (sorted
    by name) with the policy's candidates."""
    names = sorted(domains)
    for values in itertools.product(*(domains[n] for n in names)):
        extended = [dict(zip(names, values))]
        for var in fresh:
            extended = [
                dict(theta, **{var.name: v})
                for theta in extended
                for v in policy.candidates(
                    types[var.dtype],
                    used(var.dtype) | {theta[f.name] for f in fresh if f.name in theta},
                )
            ]
        yield from extended


def source_brute_force(model, snap, t, policy):
    scope = analyze_transition(t)
    arcs = [(vars_, [tok for tok, _ in snap.marking.tokens(place)]) for place, vars_ in t.inputs]
    for place, vars_ in t.views:
        arcs.append((vars_, eval_ucq(snap.instance, model.queries[model.view_places[place].query])))

    def used(dtype):
        return active_domain(snap.instance, dtype) | {
            v for v in snap.marking.all_values() if v.dtype == dtype
        }

    domains = candidates(arcs, scope.external_vars, model.samples)
    accepted = []
    for theta in assignments(domains, scope.fresh_vars, model.types, used, policy):
        try:
            fire(model, snap, t, theta)
        except ContractError:
            continue
        accepted.append(theta)
    return accepted


def cpn_brute_force(alone, marking, policy):
    (t,) = alone.transitions
    _, fresh, external = _cpn_scope(t)
    arcs = [
        (terms, [tok for tok, _ in marking.tokens(place)])
        for place, terms in tuple(t.inputs) + tuple(t.reads)
    ]

    def used(dtype):
        return {v for v in marking.all_values() if v.dtype == dtype}

    domains = candidates(arcs, [external[n] for n in sorted(external)], alone.samples)
    accepted = []
    for theta in assignments(domains, [fresh[n] for n in sorted(fresh)], alone.types, used, policy):
        try:
            cpn_fire(alone, marking, t, theta, policy)
        except ContractError:
            continue
        accepted.append(theta)
    return accepted


@pytest.mark.parametrize("name", NETS)
def test_source_bindings_equal_brute_force(request, name):
    model = request.getfixturevalue(name)
    lts = build_lts(model, BOUNDED1)
    assert not lts.truncated
    for snap in lts.states:
        found = enabled_bindings(model, snap, BOUNDED1)
        for t in model.transitions:
            engine = [theta for u, theta in found if u is t]
            assert_same_bindings(engine, source_brute_force(model, snap, t, BOUNDED1))


@pytest.mark.parametrize("name", NETS)
def test_cpn_bindings_equal_brute_force(request, name):
    net = translate(request.getfixturevalue(name)).net
    lts = cpn_build_lts(net, BOUNDED1)
    assert not lts.truncated
    singles = [dataclasses.replace(net, transitions=(t,)) for t in net.transitions]
    for marking in lts.states:
        for alone in singles:
            engine = [theta for _, theta in cpn_enabled(alone, marking, BOUNDED1)]
            assert_same_bindings(engine, cpn_brute_force(alone, marking, BOUNDED1))


def test_a_repeated_sample_value_gives_each_binding_once(echo):
    # the samples are 2, 1, 2, 1: two values, each listed twice
    found = enabled_bindings(echo, echo.initial_snapshot(), BOUNDED1)
    values = [theta["v"] for _, theta in found]
    assert len(values) == len(set(values)) == 2
    net = translate(echo).net
    lts = cpn_build_lts(net, BOUNDED1)
    assert not lts.truncated
    for marking in lts.states:
        keys = [(t.name, binding_key(theta)) for t, theta in cpn_enabled(net, marking, BOUNDED1)]
        assert len(keys) == len(set(keys))
    assert any("v" in theta for m in lts.states for _, theta in cpn_enabled(net, m, BOUNDED1))


# ---------------------------------------------------------------------------
# refusals: both layers check a binding with one procedure
# (``model.binding_problem``) and name the first reason it is not enabled

REASONS = """dbnet "reasons";

type int = int;

relation R(a: int);

query Q(y: int) := R(y);

place p(int);
place q(int, int, int, int);
view V := Q;

transition T {
  in p(x);
  read V(y);
  guard x != y;
  out q(y, e, ~f, ~g);
}

init {
  fact R(1);
  fact R(2);
  token p(1);
}

policy {
  fresh recycling;
  sample int {7};
}
"""


def reasons_cpn() -> NuCpn:
    """The target-layer twin of ``REASONS``: ``V`` is a place that holds
    the rows of the view."""
    def var(name, fresh=False):
        return Variable(name, "int", fresh)

    t = CpnTransition(
        "T",
        inputs=(("p", (var("x"),)),),
        reads=(("V", (var("y"),)),),
        guard=Compare("!=", var("x"), var("y")),
        outputs=(("q", (var("y"), var("e"), var("f", True), var("g", True))),),
    )
    return NuCpn(
        name="reasons",
        types={"int": INT},
        places={"p": CpnPlace("p", ("int",)), "V": CpnPlace("V", ("int",)),
                "q": CpnPlace("q", ("int",) * 4)},
        transitions=(t,),
        initial_marking=Marking.from_tokens([("p", (iv(1),)), ("V", (iv(1),)), ("V", (iv(2),))]),
        samples={"int": (iv(7),)},
    )


def fire_reasons(layer: str, theta: dict):
    """Fire ``T`` with ``theta`` in the initial state of ``layer``."""
    if layer == "source":
        model = parse_model(REASONS).model
        return fire(model, model.initial_snapshot(), model.transition("T"), theta)
    net = reasons_cpn()
    return cpn_fire(net, net.initial_marking, net.transition("T"), theta, BOUNDED1)


ENABLED = {"x": 1, "y": 2, "e": 7, "f": 3, "g": 4}

REFUSALS = [
    ("unbound", {"x": None}, r"binding misses \['x'\]"),  # the target raised KeyError
    ("input-not-covered", {"x": 5}, "input tokens not available"),
    ("row-absent", {"y": 3}, r"V does not contain \(3\)"),
    ("outside-samples", {"e": 8}, "e outside its sample domain"),
    ("fresh-in-use", {"f": 2}, "value for f is not fresh"),
    ("equal-fresh-picks", {"g": 3}, "value for g is not fresh"),
    ("guard-false", {"y": 1}, "guard rejects the binding"),
]


@pytest.mark.parametrize("layer", ["source", "target"])
def test_the_unchanged_binding_fires_on_both_layers(layer):
    fire_reasons(layer, {name: iv(n) for name, n in ENABLED.items()})


@pytest.mark.parametrize("change, reason", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
@pytest.mark.parametrize("layer", ["source", "target"])
def test_a_refusal_names_its_reason_on_both_layers(layer, change, reason):
    theta = {name: iv(n) for name, n in {**ENABLED, **change}.items() if n is not None}
    with pytest.raises(ContractError, match=f"^transition T: {reason}$"):
        fire_reasons(layer, theta)

