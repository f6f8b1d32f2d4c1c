"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _tiny_explore_answer():
    from dbnet.corpus import build_shopping_cart
    from dbnet.freshness import FreshPolicy
    from dbnet.lts import lts_text
    from dbnet.model import build_lts, render_snapshot

    model = build_shopping_cart(1, 1)
    lts = build_lts(model, FreshPolicy.parse("bounded:1"))
    text = lts_text(lts, render_snapshot, header=model.name)
    return {
        "states": lts.state_count,
        "edges": lts.edge_count,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


TINY = {
    "tiny": [
        {"id": "shop1x1-recycling", "kind": "certify", "net": "shopping-cart",
         "size": [1, 1], "policy": "recycling"},
        {"id": "touch-consume-on-read", "kind": "certify", "net": "touch",
         "policy": "bounded:1", "mutation": "consume-on-read", "max_states": 20_000},
        {"id": "shop1x1-source", "kind": "explore", "net": "shopping-cart",
         "size": [1, 1], "policy": "bounded:1"},
    ]
}


@pytest.fixture(scope="module")
def known():
    return {
        "shop1x1-recycling": ("bisimilar", "correct translation"),
        "touch-consume-on-read": ("not-bisimilar", "acceptance 2 killer"),
        "shop1x1-source": (_tiny_explore_answer(), "computed in-process"),
    }


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, known, trace, section):
    out = run.run("tiny", 7, 0, trace, workloads=TINY, known=known, out_dir=tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(TINY["tiny"]) * (2 if trace else 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(section)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    assert out["detail"]["environment"]["seed"] == 7
    if not trace:
        setups = sum(len(xs) for xs in out["detail"]["setups"].values())
        assert setups >= run.SETUPS_PER_PASS


def test_planted_wrong_verdict_counts_as_failed(tmp_path, known):
    planted = dict(known, **{"shop1x1-recycling": ("not-bisimilar", "planted")})
    jobs = {"tiny": TINY["tiny"][:1]}
    result = run.run("tiny", 1, 0, False, workloads=jobs, known=planted, out_dir=tmp_path)["result"]
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert result["metrics"]["decided_share"]["value"] == 1.0


@pytest.mark.parametrize("planted", [
    {"policy": "no-such-policy"},  # the child crashes in set-up
    {"max_states": "many"},  # the certifier raises inside the timed part
])
def test_crashed_job_makes_the_run_incorrect(tmp_path, known, planted):
    jobs = {"tiny": [dict(TINY["tiny"][0], **planted)]}
    out = run.run("tiny", 1, 0, False, workloads=jobs, known=known, out_dir=tmp_path)
    result = out["result"]
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"]["decided_share"]["value"] == 0.0
    assert out["detail"]["incorrect_jobs"] == ["shop1x1-recycling"]
    assert out["detail"]["passes"][0]["jobs"][0]["outcome"] == "error"


def test_missing_hook_target_is_absent_not_zero(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", (("dbnet.cpn", "no_such_function", "cpn.cpn_enabled"),))
    t = tracer.Tracer()
    t.install()
    metrics = tracer.layer_metrics([t.summary()])
    for name in ("cpn.cpn_enabled.calls", "cpn.cpn_enabled.self_s", "cpn.bindings_per_call"):
        value, note = metrics[name]
        assert value is None
        assert "no_such_function" in note


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans.extend([("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)])
    agg = t.by_name()
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_s"] == 4.0


def test_checkout_without_the_package_is_refused(tmp_path):
    with pytest.raises(run.SetupError):
        run.check_checkout(tmp_path)
