"""Command-line interface.

Scenario commands: ``autfn parse FILE``, ``autfn run FILE [--json]``,
``autfn replay [DIR] [--json] [--include-large]``, ``autfn lint [DIR]``.
Ad-hoc computation commands work on expressions in the scenario syntax at an
explicit rank: compose, apply, order, inner, abelianize, det, realize,
closure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import modgroups
from .endos import is_inner
from .matrices import abelianize, det as int_det, mod_reduce
from .runner import Evaluator, lint_scenarios, replay_all, run_scenario
from .scenario import (
    MAX_CHECK_ROWS, Assertion, CheckStmt, ParseError, Parser, parse_scenario, table_rows,
)
from .words import format_word


def _load_scenario(path: str):
    return parse_scenario(Path(path).read_text(), name=Path(path).stem)


def _fragment(parser: Parser, text: str, rule):
    """``parser.parse_fragment``, naming the text in any error."""
    try:
        return parser.parse_fragment(text, rule)
    except ParseError as exc:
        raise ValueError(f"{text!r}: {exc}") from None


def _at_rank(rank: int) -> tuple[Parser, Evaluator]:
    """A parser and an evaluator for expressions at ``rank``."""
    if rank < 1:
        raise ValueError("--rank must be positive")
    parser = Parser(f"rank {rank}")
    return parser, Evaluator(parser.parse())


def _expr(args: argparse.Namespace):
    """The endomorphism of ``args.expr`` at ``args.rank``."""
    parser, ev = _at_rank(args.rank)
    return ev.aut_of(_fragment(parser, args.expr, parser.parse_aut_expr))


def cmd_parse(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    asserts = sum(isinstance(s, (Assertion, CheckStmt)) for s in scenario.statements)
    print(f"{scenario.name}: rank {scenario.rank}, {len(scenario.statements)} statements, "
          f"{asserts} assertions")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(_load_scenario(args.file), include_large=args.include_large)
    print(report.to_json() if args.json else report.human())
    return 0 if report.ok() else 1


def cmd_replay(args: argparse.Namespace) -> int:
    report = replay_all(args.dir, include_large=args.include_large)
    print(report.to_json() if args.json else report.human())
    return 0 if report.ok() else 1


def cmd_lint(args: argparse.Namespace) -> int:
    problems = lint_scenarios(args.dir)
    for p in problems:
        print(p)
    if not problems:
        print("all scenario files carry known anchors")
    return 0 if not problems else 1


def cmd_compose(args: argparse.Namespace) -> int:
    print(_expr(args))
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    parser, ev = _at_rank(args.rank)
    endo = ev.aut_of(_fragment(parser, args.expr, parser.parse_aut_expr))
    word = ev.word_of(_fragment(parser, args.word, parser.parse_word_lit))
    print(format_word(endo.apply(word)))
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    parser, ev = _at_rank(args.rank)
    expr = _fragment(parser, args.expr, parser.parse_aut_expr)
    result = ev.order_of(expr, max_power=args.cap_power, max_word_len=args.cap_len)
    print("unbounded (cap reached)" if result is None else result)
    return 0


def cmd_inner(args: argparse.Namespace) -> int:
    endo = _expr(args)
    witness = is_inner(endo)
    if witness is None:
        print("not inner")
        return 1
    print(f"inner; conjugator {format_word(witness)}")
    return 0


def cmd_abelianize(args: argparse.Namespace) -> int:
    matrix = abelianize(_expr(args))
    print(mod_reduce(matrix, args.mod) if args.mod else matrix)
    return 0


def cmd_det(args: argparse.Namespace) -> int:
    matrix = abelianize(_expr(args))
    value = int_det(matrix)
    if args.mod:
        # Reduce through mod_reduce so that it applies the one rule for moduli.
        reduced = int_det(mod_reduce(matrix, args.mod)) % args.mod
        print(f"{value} (mod {args.mod}: {reduced})")
    else:
        print(value)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    """Evaluate a scenario file's definitions, then print one induced action."""
    parser = Parser(Path(args.file).read_text())
    scenario = parser.parse(default_name=Path(args.file).stem)
    text = f"induced {args.gaut} "
    text += f"at {args.at}" if args.at is not None else f"delta {args.delta}"
    if args.basis:
        text += f" basis {args.basis}"
    expr = _fragment(parser, text, parser.parse_aut_expr)
    ev = Evaluator(scenario)
    for stmt in scenario.statements:
        if not isinstance(stmt, (Assertion, CheckStmt)):
            ev.exec_statement(stmt, "")
    print(ev.aut_of(expr))
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    """Normal closure of an elementary-matrix power; JSON verdict."""
    if args.n < 1 or args.mod < 2:
        raise ValueError("closure needs --n at least 1 and --mod at least 2")
    if table_rows(args.mod, args.n) > MAX_CHECK_ROWS:
        # The bound the parser applies to a check's table of m^n matrix rows.
        raise ValueError(
            f"closure: a table of {args.mod}^{args.n} matrix rows "
            f"is above the bound {MAX_CHECK_ROWS}"
        )
    start = time.perf_counter()
    group = modgroups.sl_group(args.n, args.mod)
    seed = modgroups.elementary_mat(args.k, args.r, args.power, args.n, args.mod)
    closure = modgroups.normal_closure([seed], group)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    payload = {
        "op": "closure",
        "n": args.n,
        "modulus": args.mod,
        "order": closure.order,
        "result": f"closure of elementary({args.k},{args.r})^{args.power} "
                  f"has order {closure.order} in a group of order {group.order}",
        "elapsed_ms": elapsed_ms,
    }
    print(json.dumps(payload))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="autfn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a scenario file and report a summary")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("run", help="run one scenario file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--include-large", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="replay a scenario corpus (default: bundled)")
    p.add_argument("dir", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--include-large", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("lint", help="check anchors in a corpus (default: bundled)")
    p.add_argument("dir", nargs="?", default=None)
    p.set_defaults(func=cmd_lint)

    for name, fn in (("compose", cmd_compose), ("order", cmd_order), ("inner", cmd_inner)):
        p = sub.add_parser(name)
        p.add_argument("expr", help="automorphism expression, e.g. 'L(1,2) * P(2,3)^-1'")
        p.add_argument("--rank", type=int, required=True)
        if name == "order":
            p.add_argument("--cap-power", type=int, default=256)
            p.add_argument("--cap-len", type=int, default=4096)
        p.set_defaults(func=fn)

    p = sub.add_parser("apply")
    p.add_argument("expr")
    p.add_argument("word", help="word literal, e.g. 'x1 x2^-1'")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_apply)

    for name, fn in (("abelianize", cmd_abelianize), ("det", cmd_det)):
        p = sub.add_parser(name)
        p.add_argument("expr")
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--mod", type=int, default=0)
        p.set_defaults(func=fn)

    p = sub.add_parser("realize", help="print the action induced by a graph automorphism")
    p.add_argument("file", help="scenario file defining the graph and automorphism")
    p.add_argument("--gaut", required=True)
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--at", help="basepoint vertex (basepoint-fixing case)")
    base.add_argument("--delta", help="connecting edge path")
    p.add_argument("--basis", default=None)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("closure", help="normal closure of an elementary power (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.set_defaults(func=cmd_closure)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, modgroups.EnumerationCapError) as exc:
        # One line on stderr; file commands name their file first.
        message = getattr(exc, "strerror", None) or str(exc)
        file = getattr(args, "file", None)
        print(f"{file}: {message}" if file else message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
