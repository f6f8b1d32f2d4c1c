"""Driver-level tests: exit codes, output files and printed formats.

Everything runs in-process through ``run_command`` except the logging
test, which needs a fresh interpreter because ``logging.basicConfig``
only takes effect once per process.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dbnet.bisim import NOT_BISIMILAR, WeakBisimResult
from dbnet.cli import run_command
from dbnet.dsl import parse_model
from dbnet.model import build_lts
from dbnet.translate import translate

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
SHOP = CORPUS / "shopping-cart.dbn"
TOUCH = CORPUS / "touch.dbn"
GUARDED = CORPUS / "guarded.dbn"

STATS_RE = re.compile(r"states=(\d+) edges=(\d+) truncated=(True|False)")


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def translated_touch(tmp_path) -> Path:
    run_command(["translate", str(TOUCH), "-o", str(tmp_path / "touch")])
    return tmp_path / "touch.cpn"


# ---------------------------------------------------------------------------
# validate


def test_validate_corpus_net_is_ok(capsys):
    code, out, err = run(capsys, "validate", SHOP)
    assert code == 0
    assert out.strip() == "shopping-cart: ok"
    assert err == ""


def test_validate_counts_problems(capsys, tmp_path):
    bad = tmp_path / "bad.dbn"
    bad.write_text(
        'dbnet "m";\ntype int = int;\nplace p(int);\n'
        "transition T {\n  in p(~x);\n}\ninit { token p(1); }\n"
    )
    code, out, _ = run(capsys, "validate", bad)
    assert code == 1
    assert "input arc" in out
    assert "m: 1 problem(s)" in out


def test_validate_accepts_a_translated_net(capsys, tmp_path):
    cpn = translated_touch(tmp_path)
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", cpn)
    assert code == 0
    assert out.strip() == "touch.translated: ok"


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "validate", "no/such/file.dbn")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read")


def test_parse_diagnostics_carry_the_path(capsys, tmp_path):
    broken = tmp_path / "broken.dbn"
    broken.write_text('dbnet "m";\ntype int = int;\nwibble;\n')
    code, _, err = run(capsys, "validate", broken)
    assert code == 1
    assert err.startswith("error: ")
    assert str(broken) in err
    assert "3:" in err  # line of the offending token


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic_per_seed(capsys):
    code, first, _ = run(capsys, "simulate", SHOP, "--steps", "8", "--seed", "7")
    assert code == 0
    _, second, _ = run(capsys, "simulate", SHOP, "--steps", "8", "--seed", "7")
    assert first == second
    # step lines look like "   1  LogIn[cid=2,s=0,uid=1]:commit"
    steps = [l for l in first.splitlines() if re.match(r"^ *\d+  ", l)]
    assert steps
    assert all(re.search(r"\w+\[.*\]:(commit|rollback)$", l) for l in steps)
    assert first.splitlines()[-1].startswith("final  ")


def test_simulate_reports_deadlock(capsys):
    code, out, _ = run(capsys, "simulate", GUARDED, "--steps", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("   1  H[")
    assert lines[1] == "deadlock after 1 step(s)"
    assert lines[2].startswith("final  ")


def test_simulate_runs_translated_nets(capsys, tmp_path):
    cpn = translated_touch(tmp_path)
    capsys.readouterr()
    code, out, _ = run(capsys, "simulate", cpn, "--steps", "6", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    # the silent gadget interior shows up as eps labels, the exits as
    # the original observable
    assert any(l.endswith("  eps") for l in lines)
    assert any(re.search(r"\.commit  \w+\[.*\]:commit$", l) for l in lines)
    assert lines[-1].startswith("final  ")


# ---------------------------------------------------------------------------
# translate


def test_translate_writes_cpn_dot_and_provenance(capsys, tmp_path):
    base = tmp_path / "out" / "touch"
    base.parent.mkdir()
    code, out, _ = run(capsys, "translate", TOUCH, "-o", base)
    assert code == 0
    produced = translate(parse_model(TOUCH.read_text()).model)
    expected = (
        f"translated touch: {len(produced.net.places)} places, "
        f"{len(produced.net.transitions)} transitions"
    )
    assert expected in out
    for suffix in (".cpn", ".dot", ".provenance.jsonl"):
        path = base.with_suffix(suffix)
        assert f"wrote {path}" in out
        assert path.read_text().strip()
    reparsed = parse_model(base.with_suffix(".cpn").read_text())
    assert reparsed.kind == "cpn"
    assert reparsed.model.name == "touch.translated"


def test_translate_refuses_cpn_input(capsys, tmp_path):
    cpn = translated_touch(tmp_path)
    capsys.readouterr()
    code, _, err = run(capsys, "translate", cpn)
    assert code == 1
    assert "error: translate expects a .dbn model" in err


def test_translate_rejects_a_leaky_view(capsys, tmp_path):
    # y shows up in the view head without being bound by any atom, so
    # the view has no finite reading; the file still parses.
    leaky = tmp_path / "leaky.dbn"
    leaky.write_text(
        'dbnet "leaky";\ntype int = int;\nrelation R(A: int);\n'
        "query Q(x: int, y: int) := R(x);\nview V := Q;\nplace p(int);\n"
        "transition T {\n  in p(z);\n  read V(x, y);\n  out p(z);\n}\n"
        "init { fact R(1); token p(0); }\n"
    )
    code, _, err = run(capsys, "translate", leaky)
    assert code == 1
    assert err.startswith("error: translation rejected:")
    assert "head variable" in err


# ---------------------------------------------------------------------------
# statespace


def test_statespace_writes_lts_and_counts(capsys, tmp_path):
    base = tmp_path / "shop"
    code, out, _ = run(capsys, "statespace", SHOP, "-o", base)
    assert code == 0
    m = STATS_RE.search(out)
    assert m and m.group(3) == "False"
    mf = parse_model(SHOP.read_text())
    lts = build_lts(mf.model, mf.model.default_policy)
    assert (int(m.group(1)), int(m.group(2))) == (len(lts.states), len(lts.edges))
    body = base.with_suffix(".lts").read_text()
    assert body.startswith("LTS shopping-cart")


def test_statespace_truncation_exits_2(capsys, tmp_path):
    code, out, _ = run(
        capsys, "statespace", SHOP, "-o", tmp_path / "t", "--max-states", "3"
    )
    assert code == 2
    assert "truncated=True" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--max-states", "0"), "--max-states must be at least 1"),
        (("--max-depth", "-1"), "--max-depth must be at least 0"),
    ],
    ids=["max-states", "max-depth"],
)
def test_statespace_rejects_limits_out_of_range(capsys, tmp_path, flags, message):
    code, out, err = run(capsys, "statespace", TOUCH, "-o", tmp_path / "t", *flags)
    assert code == 1
    assert out == ""
    assert message in err
    assert not (tmp_path / "t.lts").exists()


def test_simulate_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "simulate", TOUCH, "--steps", "-1")
    assert code == 1
    assert out == ""
    assert "--steps must be at least 0" in err


def test_usage_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "statespace", TOUCH, "-o", tmp_path / "t", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err
    assert err.startswith("usage: dbnet")

    code, _, err = run(capsys, "statespace", TOUCH, "-o", tmp_path / "t", "--max-states", "many")
    assert code == 1
    assert "invalid int value" in err


# Each subcommand's flags beyond the file and --users/--products.
FLAGS_READ = {
    "validate": (),
    "simulate": ("--seed", "--fresh", "--steps"),
    "translate": ("-o",),
    "statespace": ("--fresh", "--max-states", "--max-depth", "-o"),
    "certify": ("--fresh", "--max-states", "--max-depth", "-o"),
    "export-dot": ("-o",),
}
SHARED_FLAGS = ("--seed", "--fresh", "--max-states", "--max-depth", "-o")


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, kept in FLAGS_READ.items() for f in SHARED_FLAGS if f not in kept],
)
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, tmp_path, command, flag):
    code, out, err = run(capsys, command, TOUCH, flag, tmp_path / "1")
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} {tmp_path / '1'}" in err
    assert list(tmp_path.iterdir()) == []


def test_unbounded_exploration_is_refused(capsys, tmp_path):
    code, _, err = run(
        capsys, "statespace", TOUCH, "-o", tmp_path / "t", "--fresh", "unbounded"
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "unbounded" in err


def test_bad_fresh_spec_is_reported(capsys, tmp_path):
    code, _, err = run(
        capsys, "statespace", TOUCH, "-o", tmp_path / "t", "--fresh", "bounded:x"
    )
    assert code == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# certify


def test_certify_ok_prints_stats(capsys):
    code, out, _ = run(capsys, "certify", TOUCH)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: bisimilar"
    for key in ("source-edges", "source-states", "translated-edges", "translated-states"):
        assert any(l.startswith(f"  {key}: ") for l in lines)
    assert any(re.fullmatch(r"  relation-pairs: \d+", l) for l in lines)


def test_certify_truncation_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "certify", SHOP, "--max-states", "50", "-o", tmp_path / "c")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "truncated" in err
    assert not list(tmp_path.iterdir())


def test_certify_failure_writes_counterexample(capsys, tmp_path, monkeypatch):
    import dbnet.cli as cli

    canned = WeakBisimResult(
        verdict=NOT_BISIMILAR,
        witness={"kind": "unmatched-move", "state": "s0"},
        trace=("pair s0 | t0", "  no translated answer to Touch[x=1]:commit"),
        stats={"source-states": 2, "translated-states": 9},
    )
    monkeypatch.setattr(cli, "certify_translation", lambda *a, **kw: canned)
    base = tmp_path / "touch"
    code, out, _ = run(capsys, "certify", TOUCH, "-o", base)
    assert code == 3
    assert out.splitlines()[0] == "verdict: not-bisimilar"
    report = base.with_suffix(".counterexample.txt").read_text()
    assert report.splitlines()[0] == "witness: [('kind', 'unmatched-move'), ('state', 's0')]"
    assert "no translated answer" in report


# ---------------------------------------------------------------------------
# template sizing


def test_template_flags_resize(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", SHOP, "--users", "2", "--products", "2")
    assert code == 0
    assert "shopping-cart: ok" in out

    _, small, _ = run(capsys, "statespace", SHOP, "-o", tmp_path / "s1")
    _, large, _ = run(capsys, "statespace", SHOP, "-o", tmp_path / "s2", "--users", "2")
    n_small = int(STATS_RE.search(small).group(1))
    n_large = int(STATS_RE.search(large).group(1))
    assert n_large > n_small


@pytest.mark.parametrize("flag", ["--users", "--products"])
def test_template_sizes_below_one_are_rejected(capsys, flag):
    code, out, err = run(capsys, "validate", SHOP, flag, "0")
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be at least 1, got 0\n"


def test_sizing_needs_a_marker(capsys):
    code, _, err = run(capsys, "validate", TOUCH, "--users", "2")
    assert code == 1
    assert "'# template:'" in err


def test_unknown_template_name(capsys, tmp_path):
    f = tmp_path / "odd.dbn"
    f.write_text('# template: bogus\ndbnet "m";\ntype int = int;\n')
    code, _, err = run(capsys, "validate", f, "--users", "1")
    assert code == 1
    assert "unknown template 'bogus'" in err


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_draws_both_dialects(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", SHOP, "-o", tmp_path / "shop")
    assert code == 0
    dot = (tmp_path / "shop.dot").read_text()
    assert dot.startswith('digraph "shopping-cart" {')
    assert dot.rstrip().endswith("}")
    mf = parse_model(SHOP.read_text())
    for t in mf.model.transitions:
        assert f'"{t.name}" [shape=box' in dot

    cpn = translated_touch(tmp_path)
    capsys.readouterr()
    code, _, _ = run(capsys, "export-dot", cpn, "-o", tmp_path / "tt")
    cdot = (tmp_path / "tt.dot").read_text()
    assert code == 0
    assert "peripheries=2" in cdot  # emitting exits are double-boxed
    assert "style=dashed" in cdot  # relation places


def test_output_flag_accepts_base_or_suffixed(capsys, tmp_path):
    run(capsys, "translate", TOUCH, "-o", tmp_path / "a.cpn")
    run(capsys, "translate", TOUCH, "-o", tmp_path / "b")
    a = (tmp_path / "a.cpn").read_bytes()
    b = (tmp_path / "b.cpn").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# determinism and logging


def test_outputs_are_byte_stable(capsys, tmp_path):
    base = tmp_path / "r"
    run(capsys, "translate", SHOP, "-o", base)
    first = {s: base.with_suffix(s).read_bytes() for s in (".cpn", ".dot", ".provenance.jsonl")}
    run(capsys, "translate", SHOP, "-o", base)
    second = {s: base.with_suffix(s).read_bytes() for s in first}
    assert first == second

    run(capsys, "statespace", SHOP, "-o", base)
    lts1 = base.with_suffix(".lts").read_bytes()
    run(capsys, "statespace", SHOP, "-o", base)
    assert base.with_suffix(".lts").read_bytes() == lts1


def test_info_logging_goes_to_stderr_only():
    env = dict(os.environ, DBNET_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "dbnet.cli", "validate", str(SHOP)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "shopping-cart: ok"
    assert "dbnet: parsed" in proc.stderr
