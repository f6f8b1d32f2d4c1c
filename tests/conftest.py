"""Shared fixtures.

The expensive objects (explored state spaces of the shop model and its
translation) are session-scoped so the audit-style tests can walk the
same graph instead of rebuilding it per test.
"""

from pathlib import Path

import pytest

from dbnet.corpus import build_shopping_cart
from dbnet.cpn import CpnPlace, CpnTransition, Emit, NuCpn, cpn_build_lts
from dbnet.dsl import parse_model
from dbnet.freshness import FreshPolicy
from dbnet.marking import Marking
from dbnet.model import DbNet, build_lts
from dbnet.translate import translate

BOUNDED1 = FreshPolicy.parse("bounded:1")
RECYCLING = FreshPolicy.parse("recycling")

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_NAMES = [path.stem for path in sorted(CORPUS_DIR.glob("*.dbn"))]


def load_corpus(name: str) -> DbNet:
    """The corpus net ``corpus/<name>.dbn``, freshly parsed."""
    return parse_model((CORPUS_DIR / f"{name}.dbn").read_text(encoding="utf-8")).model


def unit_net(moves: dict, marked=("lock",)) -> NuCpn:
    """A net over uncoloured places.  ``moves`` maps a transition name to
    its input and output place names, one ``()`` token per name; a name
    in upper case is observable.  ``marked`` holds one token each at the
    start."""
    places = {p for ins, outs in moves.values() for p in ins + outs} | set(marked)
    return NuCpn(
        name="units",
        types={},
        places={p: CpnPlace(p, ()) for p in sorted(places)},
        transitions=tuple(
            CpnTransition(
                name,
                inputs=tuple((p, ()) for p in ins),
                outputs=tuple((p, ()) for p in outs),
                emit=Emit(name, "commit", ()) if name.isupper() else None,
            )
            for name, (ins, outs) in moves.items()
        ),
        initial_marking=Marking.from_tokens([(p, ()) for p in marked]),
    )


@pytest.fixture(scope="session")
def shop():
    return load_corpus("shopping-cart")


@pytest.fixture(scope="session")
def shop22():
    return build_shopping_cart(2, 2)


@pytest.fixture(scope="session")
def touch():
    return load_corpus("touch")


@pytest.fixture(scope="session")
def guarded():
    return load_corpus("guarded")


@pytest.fixture(scope="session")
def domviol():
    return load_corpus("domviol")


@pytest.fixture(scope="session")
def fk_net():
    return load_corpus("fk")


@pytest.fixture(scope="session")
def selfref():
    return load_corpus("selfref")


@pytest.fixture(scope="session")
def empty_net():
    return load_corpus("empty")


@pytest.fixture(scope="session")
def shop_lts(shop):
    return build_lts(shop, BOUNDED1, max_states=100_000)


@pytest.fixture(scope="session")
def shop_translation(shop):
    return translate(shop)


@pytest.fixture(scope="session")
def shop_cpn_lts(shop_translation):
    return cpn_build_lts(shop_translation.net, BOUNDED1, max_states=200_000)
