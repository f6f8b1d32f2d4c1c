"""Command-line driver.

Six subcommands over ``.dbn`` / ``.cpn`` files: ``validate``,
``simulate``, ``translate``, ``statespace``, ``certify`` and
``export-dot``.  All outputs are deterministic for a given input and
``--seed``; progress chatter goes to stderr and is controlled by the
``DBNET_LOG`` environment variable (``debug``, ``info``, ``warning``).

A file whose first line is ``# template: <name>`` can be rebuilt at
other sizes with ``--users`` / ``--products``.  The rebuild parses the
library's own text of that template (``dbnet.corpus.shop_text`` for
``shopping-cart``), not the rest of the file; without those flags the
file is taken literally.

Exit codes: 0 success, 1 usage/parse/validation failure (including
``--steps`` or ``--max-depth`` below 0 and ``--max-states``, ``--users``
or ``--products`` below 1),
2 truncated exploration (``statespace`` still writes the truncated state
space, ``certify`` gives no verdict unless a state it can refuse came
first), 3 not-bisimilar.

``certify`` explores the translated net as its stable states, each
expanded by a local search through the gadget interior it reaches, and
tests each stable state as soon as its search ends, and each target of
its weak moves for foreign contents as soon as the search meets it: it
refuses the first failing stable state in exploration order, even past
the cap.  ``--max-states`` caps its stable states and ``--max-depth``
the weak moves from the initial state; its ``translated-states`` line
counts stable states and ``translated-edges`` weak moves, up to the
refusal; and local searches that visit more than ``--max-states``
states in all, or one that would follow more than ``--max-depth``
firings, count as truncation.  The state space ``statespace`` writes
is the full one.
"""

from __future__ import annotations

import argparse
import logging
import os
import random
import re
import sys
from pathlib import Path

from .bisim import TruncatedError, certify_translation
from .corpus import shop_text
from .cpn import NuCpn, P_NORMAL, _PRIORITY_NAMES, cpn_enabled, cpn_fire, cpn_build_lts, cpn_validate
from .dsl import ModelFile, parse_model, print_model
from .freshness import FreshPolicy
from .lts import format_label, lts_text
from .model import (
    DbNet,
    analyze_transition,
    binding_label,
    build_lts,
    enabled_bindings,
    fire,
    render_snapshot,
    validate,
)
from .relational import ContractError, ValidationError
from .translate import translate

__all__ = ["run_command", "main"]

log = logging.getLogger("dbnet")

_TEMPLATE_RE = re.compile(r"#\s*template:\s*([\w.-]+)\s*$")


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("DBNET_LOG", "").strip().lower(), logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="dbnet: %(message)s")


class _Fail(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any bad input; 2 means truncation here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Fail(message)


def _load(args) -> ModelFile:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Fail(f"cannot read {path}: {exc}") from exc
    marker = _TEMPLATE_RE.match(text.partition("\n")[0])
    sized = args.users is not None or args.products is not None
    if sized:
        if marker is None:
            raise _Fail("--users/--products need a '# template:' marker in the file")
        name = marker.group(1)
        if name != "shopping-cart":
            raise _Fail(f"unknown template {name!r}")
        text = shop_text(users=args.users or 1, products=args.products or 1)
        log.info("rebuilt template %s (users=%s, products=%s)",
                 name, args.users or 1, args.products or 1)
        return parse_model(text)
    try:
        mf = parse_model(text)
    except ValidationError as exc:
        raise _Fail(f"{path}: {exc}") from exc
    log.info("parsed %s (%s)", path, mf.kind)
    return mf


def _policy(args, model) -> FreshPolicy:
    if args.fresh:
        try:
            return FreshPolicy.parse(args.fresh)
        except ValidationError as exc:
            raise _Fail(str(exc)) from exc
    return model.default_policy


def _base(args, suffix_to_strip: str) -> Path:
    if args.output:
        out = Path(args.output)
        return out.with_suffix("") if out.suffix == suffix_to_strip else out
    return Path(args.file).with_suffix("")


def _write(path: Path, text: str):
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Fail(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Net drawing


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _net_dot(mf: ModelFile) -> str:
    lines = [f"digraph {_dot_quote(mf.model.name)} {{", "  rankdir=LR;", "  fontsize=10;"]
    model = mf.model
    if mf.kind == "dbnet":
        for p in model.control_places:
            lines.append(f"  {_dot_quote(p)} [shape=ellipse];")
        for p in model.view_places:
            lines.append(f"  {_dot_quote(p)} [shape=ellipse, style=dashed];")
        for t in model.transitions:
            tag = "" if t.action is None else f"\\n[{t.action[0]}]"
            lines.append(f'  {_dot_quote(t.name)} [shape=box, label="{t.name}{tag}"];')
        for t in model.transitions:
            for p, _ in t.inputs:
                lines.append(f"  {_dot_quote(p)} -> {_dot_quote(t.name)};")
            for p, _ in t.views:
                lines.append(f"  {_dot_quote(p)} -> {_dot_quote(t.name)} [style=dashed];")
            for p, _ in t.outputs:
                lines.append(f"  {_dot_quote(t.name)} -> {_dot_quote(p)};")
            for p, _ in t.rollbacks:
                lines.append(
                    f"  {_dot_quote(t.name)} -> {_dot_quote(p)} [style=dotted, label=\"rb\"];"
                )
    else:
        for p in model.places:
            cls = model.place_classes.get(p)
            style = ", style=dashed" if cls == "relation" else ""
            lines.append(f"  {_dot_quote(p)} [shape=ellipse{style}];")
        for t in model.transitions:
            extra = "" if t.priority == P_NORMAL else f"\\n[{_PRIORITY_NAMES[t.priority]}]"
            peri = ", peripheries=2" if t.emit is not None else ""
            lines.append(f'  {_dot_quote(t.name)} [shape=box, label="{t.name}{extra}"{peri}];')
        for t in model.transitions:
            for p, _ in t.inputs:
                lines.append(f"  {_dot_quote(p)} -> {_dot_quote(t.name)};")
            for p, _ in t.reads:
                lines.append(f"  {_dot_quote(p)} -> {_dot_quote(t.name)} [style=dashed];")
            for p, _ in t.outputs:
                lines.append(f"  {_dot_quote(t.name)} -> {_dot_quote(p)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _problems(mf: ModelFile) -> list:
    return validate(mf.model) if mf.kind == "dbnet" else cpn_validate(mf.model)


def _load_valid(args) -> ModelFile:
    """The model, refused like ``certify`` refuses it if it does not validate."""
    mf = _load(args)
    problems = _problems(mf)
    if problems:
        raise _Fail("model does not validate: " + "; ".join(problems))
    return mf


def _cmd_validate(args) -> int:
    mf = _load(args)
    problems = _problems(mf)
    for p in problems:
        print(p)
    print(f"{mf.model.name}: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def _cmd_simulate(args) -> int:
    mf = _load_valid(args)
    policy = _policy(args, mf.model)
    rng = random.Random(args.seed)
    if mf.kind == "dbnet":
        model: DbNet = mf.model
        snap = model.initial_snapshot()
        for step in range(1, args.steps + 1):
            options = enabled_bindings(model, snap, policy)
            if not options:
                print(f"deadlock after {step - 1} step(s)")
                break
            t, theta = options[rng.randrange(len(options))]
            snap, outcome = fire(model, snap, t, theta)
            label = binding_label(t.name, analyze_transition(t), theta, outcome)
            print(f"{step:4d}  {format_label(label)}")
        print(f"final  {render_snapshot(snap)}")
    else:
        net: NuCpn = mf.model
        marking = net.initial_marking
        for step in range(1, args.steps + 1):
            options = cpn_enabled(net, marking, policy)
            if not options:
                print(f"deadlock after {step - 1} step(s)")
                break
            t, theta = options[rng.randrange(len(options))]
            marking, label = cpn_fire(net, marking, t, theta, policy)
            print(f"{step:4d}  {t.name}  {format_label(label)}")
        print(f"final  {marking.render()}")
    return 0


def _cmd_translate(args) -> int:
    mf = _load(args)
    if mf.kind != "dbnet":
        raise _Fail("translate expects a .dbn model")
    try:
        out = translate(mf.model)
    except (ValidationError, ContractError) as exc:
        raise _Fail(f"translation rejected: {exc}") from exc
    base = _base(args, ".cpn")
    _write(base.with_suffix(".cpn"), print_model(out.net))
    _write(base.with_suffix(".dot"), _net_dot(ModelFile(kind="cpn", model=out.net)))
    _write(base.with_suffix(".provenance.jsonl"), out.provenance_jsonl())
    print(
        f"translated {mf.model.name}: {len(out.net.places)} places, "
        f"{len(out.net.transitions)} transitions"
    )
    return 0


def _make_lts(mf: ModelFile, policy, args):
    kwargs = dict(max_states=args.max_states, max_depth=args.max_depth)
    if mf.kind == "dbnet":
        return build_lts(mf.model, policy, **kwargs), render_snapshot
    return cpn_build_lts(mf.model, policy, **kwargs), lambda m: m.render()


def _cmd_statespace(args) -> int:
    mf = _load_valid(args)
    policy = _policy(args, mf.model)
    try:
        lts, render = _make_lts(mf, policy, args)
    except (ValidationError, ContractError) as exc:
        raise _Fail(str(exc)) from exc
    base = _base(args, ".lts")
    _write(base.with_suffix(".lts"), lts_text(lts, render, header=mf.model.name))
    print(f"states={len(lts.states)} edges={len(lts.edges)} truncated={lts.truncated}")
    return 2 if lts.truncated else 0


def _cmd_certify(args) -> int:
    mf = _load(args)
    if mf.kind != "dbnet":
        raise _Fail("certify expects a .dbn model")
    policy = _policy(args, mf.model)
    try:
        res = certify_translation(
            mf.model,
            policy=policy,
            max_states=args.max_states,
            max_depth=args.max_depth,
        )
    except TruncatedError as exc:
        raise _Fail(str(exc), code=2) from exc
    except (ValidationError, ContractError) as exc:
        raise _Fail(str(exc)) from exc
    print(f"verdict: {res.verdict}")
    for key in sorted(res.stats):
        print(f"  {key}: {res.stats[key]}")
    if res.bisimilar:
        print(f"  relation-pairs: {len(res.relation)}")
        return 0
    path = _base(args, ".txt").with_suffix(".counterexample.txt")
    body = [f"witness: {sorted(res.witness.items())}"] if res.witness else []
    body += list(res.trace)
    _write(path, "\n".join(body) + "\n")
    return 3


def _cmd_export_dot(args) -> int:
    mf = _load(args)
    base = _base(args, ".dot")
    _write(base.with_suffix(".dot"), _net_dot(mf))
    return 0


# ---------------------------------------------------------------------------


# Flags beyond the file and the template sizes, each with its
# add_argument arguments.
_FLAGS = {
    "seed": (("--seed",), dict(type=int, default=0, help="RNG seed")),
    "fresh": (("--fresh",), dict(help="freshness policy: unbounded, bounded:k or recycling")),
    "max-states": (("--max-states",), dict(type=int, default=None)),
    "max-depth": (("--max-depth",), dict(type=int, default=None)),
    "output": (("-o", "--output"), dict(help="output path or base name")),
    "steps": (("--steps",), dict(type=int, default=20, help="number of firings")),
}

# Each subcommand with the flags it reads.
_COMMANDS = {
    "validate": (_cmd_validate, ()),
    "simulate": (_cmd_simulate, ("seed", "fresh", "steps")),
    "translate": (_cmd_translate, ("output",)),
    "statespace": (_cmd_statespace, ("fresh", "max-states", "max-depth", "output")),
    "certify": (_cmd_certify, ("fresh", "max-states", "max-depth", "output")),
    "export-dot": (_cmd_export_dot, ("output",)),
}


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="dbnet",
        description="validate, run, translate and certify database-coupled nets",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="a .dbn or .cpn model file")
        for flag in flags:
            names, options = _FLAGS[flag]
            p.add_argument(*names, **options)
        p.add_argument("--users", type=int, default=None, help="template size")
        p.add_argument("--products", type=int, default=None, help="template size")
    return top


def _check_limits(args):
    """Reject a count, limit or template size below its least value."""
    least = {"steps": 0, "max_states": 1, "max_depth": 0, "users": 1, "products": 1}
    for dest, low in least.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise _Fail(f"--{dest.replace('_', '-')} must be at least {low}, got {value}")


def run_command(argv) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
        _check_limits(args)
        return args.fn(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
