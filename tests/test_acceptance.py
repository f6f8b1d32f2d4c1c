"""End-to-end acceptance gate.

Eight checks, each printing one PASS/FAIL line so a run of this file
reads as a checklist.  Where possible every check re-derives its
expectation from an independent angle — oracle evaluators, per-level
sub-nets, plain graph walks, a second interpreter process — rather than
trusting the function under test.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from dbnet.bisim import _is_stable, certify_translation
from dbnet.corpus import build_shopping_cart
from dbnet.cpn import P_HIGH, P_LOW, P_NORMAL, cpn_build_lts, cpn_enabled
from dbnet.lts import EPS
from dbnet.model import build_lts
from dbnet.mutations import MUTATIONS, apply_mutation
from dbnet.queries import eval_ucq
from dbnet.relational import check_constraint, instance_lines
from dbnet.translate import translate

import gen
from conftest import BOUNDED1, CORPUS_DIR, CORPUS_NAMES, RECYCLING, load_corpus
from test_cpn import level_only
from test_mutations import KILLERS

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

STATE_CAP = 100_000


def report(capsys, index, title, ok, detail=""):
    tail = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {index}/8  {title:<56} {tail}")
    assert ok, f"{title}: {detail or 'failed'}"


def translated_corpus():
    """Every corpus net next to its translation and explored state space."""
    for name in CORPUS_NAMES:
        out = translate(load_corpus(name))
        lts = cpn_build_lts(out.net, BOUNDED1, max_states=2 * STATE_CAP)
        assert not lts.truncated, name
        yield name, out, lts


def test_1_cart_family_stays_equivalent(capsys):
    started = time.monotonic()
    problems = []
    for users, products in itertools.product((1, 2), (1, 2)):
        model = build_shopping_cart(users, products)
        for policy in (BOUNDED1, RECYCLING):
            res = certify_translation(model, policy=policy, max_states=STATE_CAP)
            tag = f"{users}x{products}/{policy.describe()}"
            if not res.bisimilar:
                problems.append(f"{tag}: {res.verdict}")
            if max(res.stats["source-states"], res.stats["translated-states"]) > STATE_CAP:
                problems.append(f"{tag}: over the {STATE_CAP} state cap")
    elapsed = time.monotonic() - started
    if elapsed > 120.0:
        problems.append(f"took {elapsed:.0f}s, budget is 120s")
    report(capsys, 1, "cart family equivalent, 4 sizes x 2 policies",
           not problems, "; ".join(problems))


def test_2_every_seeded_defect_is_caught(capsys):
    missed = []
    for name in sorted(MUTATIONS):
        model = load_corpus(KILLERS[name])
        broken = apply_mutation(translate(model), name)
        res = certify_translation(
            model, policy=BOUNDED1, max_states=STATE_CAP, translation=broken
        )
        if res.bisimilar or res.witness is None:
            missed.append(name)
    report(capsys, 2, f"all {len(MUTATIONS)} seeded defects detected with witnesses",
           not missed, f"undetected: {missed}")


def test_3_thousand_random_queries_match_the_logic_reading(capsys):
    rng = random.Random(20250823)
    disagreements = 0
    for _ in range(1000):
        instance = gen.random_instance(rng)
        query = gen.random_query(rng)
        if eval_ucq(instance, query) != gen.answers_by_oracle(instance, query):
            disagreements += 1
    report(capsys, 3, "1000 random queries agree with the formula oracle",
           disagreements == 0, f"{disagreements}/1000 disagree")


def test_4_transactions_never_leak(capsys):
    bad = []
    for name in CORPUS_NAMES:
        model = load_corpus(name)
        lts = build_lts(model, BOUNDED1, max_states=STATE_CAP)
        if lts.truncated:
            bad.append(f"{name}: truncated")
            continue
        for snap in lts.states:
            if not all(check_constraint(snap.instance, c) for c in model.schema.constraints):
                bad.append(f"{name}: reachable inconsistent database")
                break
        for src, label, dst in lts.edges:
            if label[-1] == "rollback":
                before, after = lts.states[src], lts.states[dst]
                if instance_lines(before.instance) != instance_lines(after.instance):
                    bad.append(f"{name}: rollback changed the database")
                    break
    report(capsys, 4, "explored databases consistent; rollbacks change nothing",
           not bad, "; ".join(bad))


def test_5_relation_places_clean_and_priorities_respected(capsys):
    bad = []
    for name, out, lts in translated_corpus():
        rel_places = {p for p, c in out.place_classes.items() if c == "relation"}
        levels = {p: level_only(out.net, p) for p in (P_HIGH, P_NORMAL, P_LOW)}
        for m in lts.states:
            for place in rel_places:
                if any(n != 1 for _, n in m.tokens(place)):
                    bad.append(f"{name}: duplicated token on {place}")
            enabled = cpn_enabled(out.net, m, BOUNDED1)
            expected = None
            for prio in (P_HIGH, P_NORMAL, P_LOW):
                if cpn_enabled(levels[prio], m, BOUNDED1):
                    expected = prio
                    break
            if expected is None:
                if enabled:
                    bad.append(f"{name}: enabled options below every level")
            elif any(t.priority != expected for t, _ in enabled):
                bad.append(f"{name}: low-priority firing shadows a higher one")
        if bad:
            break
    report(capsys, 5, "relation places duplicate-free; priority never leaks",
           not bad, "; ".join(bad))


def test_6_silent_steps_always_converge(capsys):
    # Convergence holds when (a) no unstable state is terminal, (b) no
    # silent cycle lives entirely among unstable states, and (c) every
    # observable move lands on a stable state: any maximal run out of an
    # unstable state then hits the lock again in finitely many steps.
    bad = []
    for name, out, lts in translated_corpus():
        numbers = range(len(lts.states))
        stable = {i for i in numbers if _is_stable(out.lock_place, lts.states[i])}
        outgoing = [0] * len(lts.states)
        for src, label, dst in lts.edges:
            outgoing[src] += 1
            if label != EPS and dst not in stable:
                bad.append(f"{name}: observable move lands on an unstable state")
        dead = [i for i in numbers if i not in stable and outgoing[i] == 0]
        if dead:
            bad.append(f"{name}: {len(dead)} unstable dead end(s)")
        unstable_edges = [
            (src, dst)
            for src, label, dst in lts.edges
            if label == EPS and src not in stable and dst not in stable
        ]
        successors = {}
        indeg = {}
        for a, b in unstable_edges:
            successors.setdefault(a, []).append(b)
            indeg.setdefault(a, 0)
            indeg[b] = indeg.get(b, 0) + 1
        queue = [s for s, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for nxt in successors.get(node, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if seen != len(indeg):
            bad.append(f"{name}: silent cycle among unstable states")
    report(capsys, 6, "silent interior always drains back to the lock",
           not bad, "; ".join(bad))


def test_7_lock_marks_exactly_the_quiet_states(capsys):
    bad = []
    shared = {"original-control", "relation", "lock"}
    for name, out, lts in translated_corpus():
        interior = {p for p, c in out.place_classes.items() if c not in shared}
        for m in lts.states:
            has_lock = out.lock_place in m.places_marked()
            busy = any(p in interior for p in m.places_marked())
            if has_lock == busy:
                bad.append(f"{name}: lock={has_lock} while interior busy={busy}")
                break
    report(capsys, 7, "lock held exactly when no gadget is mid-flight",
           not bad, "; ".join(bad))


def test_8_cli_runs_are_byte_identical(capsys, tmp_path):
    jobs = [
        (["simulate", str(CORPUS_DIR / "shopping-cart.dbn"),
          "--steps", "25", "--seed", "11"], []),
        (["translate", str(CORPUS_DIR / "shopping-cart.dbn"), "-o", "shop"],
         ["shop.cpn", "shop.dot", "shop.provenance.jsonl"]),
        (["statespace", str(CORPUS_DIR / "shopping-cart.dbn"), "-o", "shop"],
         ["shop.lts"]),
        (["certify", str(CORPUS_DIR / "touch.dbn")], []),
        (["export-dot", str(CORPUS_DIR / "fk.dbn"), "-o", "fk"], ["fk.dot"]),
    ]
    # The children run in tmp_path, where a relative PYTHONPATH no longer
    # resolves, so the package's source directory goes first as an
    # absolute path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    unstable = []
    for argv, files in jobs:
        snapshots = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "dbnet.cli", *argv],
                capture_output=True,
                cwd=tmp_path,
                env=env,
            )
            snapshots.append(
                (proc.returncode, proc.stdout, proc.stderr,
                 tuple((tmp_path / f).read_bytes() for f in files))
            )
        if snapshots[0] != snapshots[1]:
            unstable.append(argv[0])
    report(capsys, 8, "repeated CLI invocations are byte-identical",
           not unstable, f"diverging commands: {unstable}")
