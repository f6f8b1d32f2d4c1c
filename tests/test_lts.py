"""Breadth-first exploration numbers each state once: state ``i`` is
``lts.states[i]``, and edges are triples of those numbers."""

import pytest

from dbnet.cpn import cpn_build_lts
from dbnet.lts import EPS, explore
from dbnet.model import build_lts
from dbnet.translate import translate

from conftest import BOUNDED1

NETS = ["shop", "touch", "guarded", "domviol", "fk_net", "selfref", "empty_net"]


class Cell:
    """A state that the step function below rebuilds on every call, so
    that equal states arrive as distinct objects."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Cell) and self.n == other.n

    def __hash__(self):
        return hash(self.n)


def assert_edges_hold_the_kept_states(lts):
    """Every edge endpoint is a state number and no state is kept twice."""
    n = len(lts.states)
    assert len(set(lts.states)) == n
    for src, _, dst in lts.edges:
        assert type(src) is int and 0 <= src < n
        assert type(dst) is int and 0 <= dst < n


def test_equal_successors_share_the_kept_object():
    # 0 -> 1 -> 2 -> 0, with a second route 0 -> 2
    obs = ("obs", "j", (), "commit")
    lts = explore(Cell(0), lambda c: [(EPS, Cell((c.n + 1) % 3)), (obs, Cell(2))])
    assert [c.n for c in lts.states] == [0, 1, 2]
    assert lts.edges == [
        (0, EPS, 1), (0, obs, 2), (1, EPS, 2), (1, obs, 2), (2, EPS, 0), (2, obs, 2)
    ]
    assert_edges_hold_the_kept_states(lts)


@pytest.mark.parametrize("name", NETS)
def test_source_edges_hold_the_kept_states(request, name):
    assert_edges_hold_the_kept_states(build_lts(request.getfixturevalue(name), BOUNDED1))


@pytest.mark.parametrize("name", NETS)
def test_translated_edges_hold_the_kept_states(request, name):
    net = translate(request.getfixturevalue(name)).net
    assert_edges_hold_the_kept_states(cpn_build_lts(net, BOUNDED1))
