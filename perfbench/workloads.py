"""The benchmark's workloads and the hand-written answers they are checked against.

A job is a plain dict, so it can be handed to a child interpreter as JSON:

* ``id``: unique name, also the key into ``KNOWN``;
* ``kind``: ``"certify"`` (``certify_translation``) or ``"explore"``
  (``model.build_lts`` on the source net);
* ``net``: corpus file ``corpus/<net>.dbn``; ``size`` = [users, products]
  rebuilds the shop template at that size, as ``dbnet --users/--products``
  does;
* ``policy``: freshness policy text;
* ``mutation``: optional seeded translation defect;
* ``max_states``: optional cap per side.

The inputs are fixed models; a workload's seed only permutes job order.
"""

from __future__ import annotations

BISIMILAR = "bisimilar"
NOT_BISIMILAR = "not-bisimilar"

# Mutation -> the corpus net that kills it (acceptance criterion 2).
KILLER_NETS = {
    "consume-on-read": "touch",
    "drop-revert": "domviol",
    "forget-lock-on-cancel": "guarded",
    "reorder-del-add": "touch",
    "skip-check-stage": "domviol",
    "swap-add-priorities": "touch",
}

MUTANT_CAP = 20_000


def _shop_certify(users, products, policy):
    return {
        "id": f"shop{users}x{products}-{policy.replace(':', '')}",
        "kind": "certify",
        "net": "shopping-cart",
        "size": [users, products],
        "policy": policy,
    }


def _mutant(net, mutation, size=None):
    job = {
        "id": f"{'shop%dx%d' % tuple(size) if size else net}-{mutation}",
        "kind": "certify",
        "net": net,
        "policy": "bounded:1",
        "mutation": mutation,
        "max_states": MUTANT_CAP,
    }
    if size:
        job["size"] = size
    return job


WORKLOADS = {
    # The product path: certify the shop, dominated by target-net exploration.
    "certify-shop": [
        _shop_certify(3, 3, "recycling"),
        _shop_certify(3, 3, "bounded:2"),
    ],
    # Source layer only: cpn and bisim do nothing here.
    "explore-source": [
        {
            "id": "shop5x5-bounded2-source",
            "kind": "explore",
            "net": "shopping-cart",
            "size": [5, 5],
            "policy": "bounded:2",
        }
    ],
    # Negative verdicts, silent dead-ends and one runaway gadget interior.
    "kill-mutants": [_mutant(net, m) for m, net in sorted(KILLER_NETS.items())]
    + [_mutant("shopping-cart", m, size=[1, 2]) for m in sorted(KILLER_NETS)],
}

# Job id -> (expected result, why).  A certify job expects a verdict; an
# explore job expects its state count, edge count and the sha256 of its
# ``lts_text`` rendering (the ``dbnet statespace`` output file).
KNOWN = {
    "shop3x3-recycling": (
        BISIMILAR,
        "the correct translation of the shop is bisimilar under every policy",
    ),
    "shop3x3-bounded2": (
        BISIMILAR,
        "the correct translation of the shop is bisimilar under every policy",
    ),
    "shop5x5-bounded2-source": (
        {
            "states": 16181,
            "edges": 31510,
            "digest": "890191585f3ebf86e58c88ded2fe9ecabe7fa5e109cf125b7c5d687ad323313a",
        },
        "source state space of shop 5x5 under bounded:2, pinned at the commit "
        "that added the benchmark",
    ),
    "touch-consume-on-read": (
        NOT_BISIMILAR,
        "Touch adds T(c), which is already there; the presence test now "
        "consumes it, so T(c) disappears",
    ),
    "domviol-drop-revert": (
        NOT_BISIMILAR,
        "Set with v=bad rolls back on the domain constraint but keeps D(bad)",
    ),
    "guarded-forget-lock-on-cancel": (
        NOT_BISIMILAR,
        "a cancelled firing never returns the lock: a silent dead-end",
    ),
    "touch-reorder-del-add": (
        NOT_BISIMILAR,
        "adding before deleting loses a fact that is deleted and re-added",
    ),
    "domviol-skip-check-stage": (
        NOT_BISIMILAR,
        "domviol's action violates the skipped domain check, so the target "
        "commits what the source rolls back",
    ),
    "touch-swap-add-priorities": (
        NOT_BISIMILAR,
        "the add-if-absent test loses to the plain add, so a fact is "
        "duplicated",
    ),
    "shop1x2-consume-on-read": (
        NOT_BISIMILAR,
        "AcquireBonus re-adding a WithBonus fact that is already there now "
        "consumes it, so the bonus disappears",
    ),
    "shop1x2-drop-revert": (
        NOT_BISIMILAR,
        "a rolled-back AcquireBonus (key clash on WithBonus) keeps the fact "
        "it inserted",
    ),
    "shop1x2-forget-lock-on-cancel": (
        NOT_BISIMILAR,
        "a cancelled firing never returns the lock: a silent dead-end",
    ),
    "shop1x2-reorder-del-add": (
        NOT_BISIMILAR,
        "ChangeBonus from 15eur to 15eur deletes and re-adds one WithBonus "
        "fact; adding first ends with the fact gone",
    ),
    "shop1x2-skip-check-stage": (
        BISIMILAR,
        "the bypassed stage is AddProduct's domain check on WithBonus.btype; "
        "its reserve action only deletes from InWarehouse, so never violates it",
    ),
    "shop1x2-swap-add-priorities": (
        NOT_BISIMILAR,
        "a stable state with a duplicated WithBonus fact is reachable inside "
        "the cap, and no set-semantics source state matches it; the checker "
        "runs into the cap first and gives no verdict",
    ),
}
