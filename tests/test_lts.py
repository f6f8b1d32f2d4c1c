"""Breadth-first exploration keeps one object per state."""

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
    kept = {s: s for s in lts.states}
    assert len(kept) == len(lts.states)
    for src, _, dst in lts.edges:
        assert kept[src] is src
        assert kept[dst] is dst


def test_equal_successors_share_the_kept_object():
    # 0 -> 1 -> 2 -> 0, with a second route 0 -> 2
    lts = explore(Cell(0), lambda c: [(EPS, Cell((c.n + 1) % 3)), (("obs", "j", (), "commit"), Cell(2))])
    assert [c.n for c in lts.states] == [0, 1, 2]
    assert lts.edge_count == 6
    assert_edges_hold_the_kept_states(lts)


@pytest.mark.parametrize("name", NETS)
def test_source_edges_hold_the_kept_states(request, name):
    assert_edges_hold_the_kept_states(build_lts(request.getfixturevalue(name), BOUNDED1))


@pytest.mark.parametrize("name", NETS)
def test_translated_edges_hold_the_kept_states(request, name):
    net = translate(request.getfixturevalue(name)).net
    assert_edges_hold_the_kept_states(cpn_build_lts(net, BOUNDED1))
