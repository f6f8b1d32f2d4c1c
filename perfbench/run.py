"""Benchmark of the dbnet certifier: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify-shop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (``src/`` and ``corpus/`` next to this
directory).  Each workload in ``workloads.py`` is a fixed list of jobs run
back to back, one client in a closed loop; every job runs in a fresh child
interpreter (``job.py``), so no process-global cache carries over and peak
RSS is per job.  The job list is run again, in a seed-shuffled order,
until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
untraced runs.  With ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Every verdict is checked against ``workloads.KNOWN``.
The line before the last, and ``perfbench/out/``, record the environment
and every job's raw result.  See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS as LAYER_METRICS
from tracer import layer_metrics
from workloads import BISIMILAR, KNOWN, NOT_BISIMILAR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_PY = HERE / "job.py"
OUT_DIR = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
    "ok_share": "ratio",
}
PER_LAYER = {name: unit for name, (unit, _needs) in LAYER_METRICS.items()}
PER_LAYER["trace.overhead_s"] = "s"

JOB_TIMEOUT_S = 60.0
# Set-ups measured per untraced pass, jobs and set-up probes together, so
# that a workload with few jobs still gets enough set-up samples in a run.
SETUPS_PER_PASS = 8
# Job timeouts keep a whole run, warm-up (at most 15 s) included, under 180 s.
RUN_LIMIT_S = 160.0


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def check_checkout(root: Path):
    if not (root / "src" / "dbnet" / "__init__.py").is_file():
        raise SetupError(f"no dbnet package under {root / 'src'}")
    if not (root / "corpus").is_dir():
        raise SetupError(f"no corpus directory under {root}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("DBNET_LOG", None)
    # Set-up is measured with cached bytecode, as an installed package has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(root: Path):
    """Import the package once, untimed, so bytecode is compiled and cached
    before the first measured set-up."""
    proc = subprocess.run(
        [sys.executable, "-c", "import dbnet, dbnet.cli"],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=15,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import dbnet: {proc.stderr.strip()[-500:]}")


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def spawn(job: dict, root: Path, traced: bool, timeout: float, spans_path: Path = None,
          setup_only: bool = False) -> dict:
    """Run one job, or with ``setup_only`` only its set-up, in a child
    interpreter and return its raw record."""
    spec = dict(job, root=str(root), trace=int(traced), setup_only=setup_only,
                spans_path=str(spans_path) if spans_path else None)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB_PY), json.dumps(spec)],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"id": job["id"], "outcome": "timeout", "job_s": time.monotonic() - started,
                "detail": f"no result within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": job["id"], "outcome": "error", "job_s": time.monotonic() - started,
                "detail": proc.stderr.strip()[-1000:]}
    record = json.loads(lines[-1])
    record["id"] = job["id"]
    return record


def judge(job: dict, record: dict, known: dict) -> tuple:
    """(decided, ok) for one job's record against the known answer."""
    expected = known[job["id"]][0]
    if job["kind"] == "explore":
        decided = record["outcome"] == "explored"
        got = {k: record.get(k) for k in ("states", "edges", "digest")}
        return decided, decided and got == expected
    decided = record["outcome"] in (BISIMILAR, NOT_BISIMILAR)
    return decided, record["outcome"] == expected


def run_passes(jobs, root: Path, seed: int, seconds: float, trace: bool, known: dict,
               spans_dir: Path):
    """Run the job list until ``seconds`` have passed; with ``trace`` every
    cycle is an untraced pass followed by a traced one.  After each
    untraced pass of an untraced run, set-up probes bring that pass to ``SETUPS_PER_PASS``
    set-ups.  Returns the passes as (traced, [(job, record, decided, ok)])
    and the set-up times as job id -> [setup_s] (untraced jobs and probes)."""
    rng = random.Random(seed)
    plan = (False, True) if trace else (False,)
    # A traced run reports no set-up time, so it makes no probes.
    probes = 0 if trace else max(0, -(-SETUPS_PER_PASS // len(jobs)) - 1)
    passes = []
    setups: dict = {}
    started = time.monotonic()
    cycles = []
    while True:
        cycle_start = time.monotonic()
        stop = False
        for traced in plan:
            rows = []
            for job in rng.sample(jobs, len(jobs)):
                left = RUN_LIMIT_S - (time.monotonic() - started)
                record = spawn(job, root, traced, max(1.0, min(JOB_TIMEOUT_S, left)),
                               spans_dir / f"{job['id']}.spans.tsv")
                decided, ok = judge(job, record, known)
                rows.append((job, record, decided, ok))
                stop |= record["outcome"] == "timeout"
            passes.append((traced, rows))
            if traced:
                continue
            samples = [record for _job, record, _d, _ok in rows]
            for job in jobs * probes:
                left = RUN_LIMIT_S - (time.monotonic() - started)
                samples.append(spawn(job, root, False, max(1.0, min(JOB_TIMEOUT_S, left)),
                                     setup_only=True))
            for record in samples:
                if record.get("setup_s") is not None:
                    setups.setdefault(record["id"], []).append(record["setup_s"])
        now = time.monotonic()
        cycles.append(now - cycle_start)
        # Start another cycle only if its midpoint, at the typical cycle
        # time, falls inside ``seconds``: a run measures for about
        # ``seconds`` and overshoots by at most half a cycle.
        elapsed, typical = now - started, statistics.median(cycles)
        if stop or elapsed + typical / 2 >= seconds or elapsed + max(cycles) > RUN_LIMIT_S:
            return passes, setups


def job_medians(passes, key: str, traced: bool = False) -> dict:
    """job id -> median of ``key`` over the passes of one kind."""
    values: dict = {}
    for was_traced, rows in passes:
        if was_traced != traced:
            continue
        for job, record, _decided, _ok in rows:
            if record.get(key) is not None:
                values.setdefault(job["id"], []).append(record[key])
    return {job_id: statistics.median(xs) for job_id, xs in values.items()}


def end_to_end(passes, setups) -> dict:
    """Per job, the median over untraced passes (and, for set-up, probes);
    then summed over the job list (times) or the largest (RSS).  Shares
    count every pass."""
    rows = [row for _traced, rs in passes for row in rs]
    return {
        "setup_s": sum(statistics.median(xs) for xs in setups.values()),
        "wall_s": sum(job_medians(passes, "job_s").values()),
        "peak_rss_mb": max(job_medians(passes, "peak_rss_mb").values(), default=0.0),
        "decided_share": sum(decided for *_r, decided, _ok in rows) / len(rows),
        "ok_share": sum(ok for *_r, ok in rows) / len(rows),
    }


def per_layer(passes) -> dict:
    """Median over the traced passes of each per-layer metric; a metric
    absent from any pass is absent, with the reason."""
    per_pass = [
        layer_metrics([record["trace"] for _job, record, _d, _ok in rows if "trace" in record])
        for traced, rows in passes
        if traced
    ]
    out = {}
    for name in LAYER_METRICS:
        values = [m[name][0] for m in per_pass]
        notes = [m[name][1] for m in per_pass if m[name][1]]
        if notes or not values:
            out[name] = (None, notes[0] if notes else "no traced pass completed")
        else:
            out[name] = (statistics.median(values), None)
    traced_wall = sum(job_medians(passes, "job_s", traced=True).values())
    out["trace.overhead_s"] = (traced_wall - sum(job_medians(passes, "job_s").values()), None)
    return out


def metric_line(values: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value, note = values[name]
        out[name] = {"value": value, "unit": unit}
        if note:
            out[name]["note"] = note
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *, root: Path = ROOT,
        workloads: dict = WORKLOADS, known: dict = KNOWN, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return the result object (the last stdout line)."""
    check_checkout(root)
    warm_up(root)
    env = environment(root, seed)
    spans_dir = out_dir / "spans" / workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads[workload]
    passes, setups = run_passes(jobs, root, seed, seconds, trace, known, spans_dir)

    attempted = sum(len(rows) for _t, rows in passes)
    ok = sum(was_ok for _t, rows in passes for *_rest, was_ok in rows)
    # A decided verdict against the table, or a crash, makes the run
    # incorrect.  A truncated or timed-out job is undecided and failed only.
    wrong = [
        record["id"] for _t, rows in passes for job, record, decided, was_ok in rows
        if (decided and not was_ok) or record["outcome"] == "error"
    ]
    if trace:
        metrics = metric_line(per_layer(passes), PER_LAYER)
    else:
        values = end_to_end(passes, setups)
        metrics = metric_line({k: (v, None) for k, v in values.items()}, END_TO_END)
    result = {"correct": not wrong, "attempted": attempted, "failed": attempted - ok,
              "metrics": metrics}

    detail = {
        "workload": workload,
        "trace": int(trace),
        "environment": env,
        "incorrect_jobs": sorted(set(wrong)),
        "passes": [
            {"traced": traced, "jobs": [
                {k: v for k, v in record.items() if k != "trace"} for _j, record, _d, _o in rows
            ]}
            for traced, rows in passes
        ],
        "setups": setups,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(dict(detail, result=result), indent=1) + "\n",
                                encoding="utf-8")
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail = out["detail"]
    print(json.dumps({"environment": detail["environment"], "workload": detail["workload"],
                      "passes": len(detail["passes"]),
                      "incorrect_jobs": detail["incorrect_jobs"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
