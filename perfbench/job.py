"""Run one benchmark job in a fresh interpreter and print its result.

Usage: ``python3 perfbench/job.py '<job spec as JSON>'``; ``run.py`` starts
it once per job with ``src`` on ``PYTHONPATH``.  The spec is a job from
``workloads.py`` plus ``root`` (the checkout), ``trace`` (0 or 1), for a
traced job ``spans_path``, and ``setup_only`` for a set-up probe, which
stops after ``set_up`` and prints only ``setup_s``.  The last stdout line is one JSON
object:

* ``setup_s``: from the first line of this file until the inputs are
  built: the ``dbnet`` import and ``set_up``.  Process start and interpreter
  start-up are left out, as they are host noise, not work of the package;
* ``job_s``: the job itself (``certify_translation`` or ``build_lts``);
* ``peak_rss_mb``: this process's peak RSS, read right after the job;
* ``outcome``: the verdict, ``truncated`` or ``error``, or for an explore
  job ``explored``, with ``states``, ``edges`` and ``digest``;
* ``trace``: the tracer's summary, for a traced job.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402  (set-up is timed from the line above)
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path


def _module(name):
    """``dbnet.<name>`` as a module.  (``dbnet.translate`` as an attribute
    is the function the package re-exports, not the module.)"""
    return importlib.import_module(f"dbnet.{name}")


def set_up(spec, root: Path):
    """Parse the corpus file, build the model and, for a mutant, its
    broken translation: everything the timed part takes as given."""
    text = (root / "corpus" / f"{spec['net']}.dbn").read_text(encoding="utf-8")
    model = _module("dsl").parse_model(text).model
    if "size" in spec:
        model = _module("corpus").build_shopping_cart(*spec["size"])
    translation = None
    if "mutation" in spec:
        translation = _module("mutations").apply_mutation(
            _module("translate").translate(model), spec["mutation"]
        )
    return model, _module("freshness").FreshPolicy.parse(spec["policy"]), translation


def run_job(spec, model, policy, translation) -> dict:
    """The timed part.  A truncated exploration, or any other error, is an
    outcome, not a crash."""
    ContractError = _module("relational").ContractError
    try:
        if spec["kind"] == "explore":
            lts = _module("model").build_lts(model, policy, max_states=spec.get("max_states"))
            return {"outcome": "explored", "lts": lts}
        res = _module("bisim").certify_translation(
            model, policy=policy, max_states=spec.get("max_states"), translation=translation
        )
        return {"outcome": res.verdict}
    except ContractError as exc:
        kind = "truncated" if "truncated" in str(exc) else "error"
        return {"outcome": kind, "detail": str(exc)}
    except Exception:  # any other failure is this job's result, with its traceback
        return {"outcome": "error", "detail": traceback.format_exc()[-2000:]}


def main(argv) -> int:
    spec = json.loads(argv[1])
    root = Path(spec["root"])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    model, policy, translation = set_up(spec, root)
    start = time.perf_counter()
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": start - STARTED}))
        return 0
    result = run_job(spec, model, policy, translation)
    job_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    lts = result.pop("lts", None)
    if lts is not None:
        # Rendered after the timed part and after reading peak RSS.
        text = _module("lts").lts_text(lts, _module("model").render_snapshot, header=model.name)
        result.update(
            states=lts.state_count,
            edges=lts.edge_count,
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        )
    result.update(setup_s=start - STARTED, job_s=job_s, peak_rss_mb=rss_kb / 1024.0)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
