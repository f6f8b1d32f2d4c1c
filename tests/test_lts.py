"""Breadth-first exploration numbers each state once: state ``i`` is
``lts.states[i]``, and edges are triples of those numbers."""

import logging
import re

import pytest

import dbnet.lts
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


def test_explore_logs_progress_every_so_many_states(monkeypatch, caplog):
    # a binary tree over 0..9: state n steps to 2n+1 and 2n+2, and the
    # breadth-first numbering of each state is its value
    monkeypatch.setattr(dbnet.lts, "PROGRESS_EVERY", 3)
    caplog.set_level(logging.INFO, logger="dbnet.lts")
    lts = explore(0, lambda n: [(("obs", "T", (), "commit"), m) for m in (2 * n + 1, 2 * n + 2) if m < 10])
    assert lts.states == list(range(10))
    lines = [re.sub(r"[\d.]+ s$", "T s", r.getMessage()) for r in caplog.records]
    assert lines == [
        "explore: 3 states, depth 0, frontier 2, T s",
        "explore: 6 states, depth 1, frontier 3, T s",
        "explore: 9 states, depth 2, frontier 5, T s",
    ]


def test_stop_is_called_after_each_edge_and_as_each_expansion_ends():
    # the binary tree again: the hook sees each edge as it is recorded,
    # then each state's edges all recorded; its true answer at the edge
    # 2 -> 5 ends the exploration before the edge 2 -> 6 is recorded
    obs = ("obs", "T", (), "commit")
    calls = []

    def stop(lts, src, done):
        calls.append((src, done, [dst for s, _label, dst in lts.edges if s == src]))
        return (src, done, lts.edges[-1][2]) == (2, False, 5)

    lts = explore(0, lambda n: [(obs, m) for m in (2 * n + 1, 2 * n + 2) if m < 10], stop=stop)
    assert calls == [
        (0, False, [1]), (0, False, [1, 2]), (0, True, [1, 2]),
        (1, False, [3]), (1, False, [3, 4]), (1, True, [3, 4]),
        (2, False, [5]),
    ]
    assert lts.states == list(range(6))
