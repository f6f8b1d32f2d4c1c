"""Every script in ``demos/`` runs to the end from any directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dbnet.bisim import NOT_BISIMILAR
from dbnet.mutations import MUTATIONS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    # The child runs in cwd, where a relative PYTHONPATH no longer
    # resolves, so the source directory goes first as an absolute path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, cwd=cwd, env=env
    )


def test_there_are_four_demos():
    assert [p.name for p in DEMOS] == [
        "break_the_translation.py",
        "query_playground.py",
        "run_the_shop.py",
        "translate_and_inspect.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_every_mutant_in_the_demo_is_not_bisimilar(tmp_path):
    proc = run_demo(ROOT / "demos" / "break_the_translation.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    verdicts = {
        line.split()[1]: line.rpartition(": ")[2]
        for line in proc.stdout.splitlines()
        if line.startswith("=== ")
    }
    assert verdicts == {name: NOT_BISIMILAR for name in MUTATIONS}
