"""Batch front-end: validate, extract, solve, verify, generate.

Inputs name either a file on disk, a file ``<name>.json`` inside the
directory given by the ``NPLS_FIXTURES`` environment variable, or one
of the built-in fixtures.  Exit codes are uniform across commands:
0 for success, 1 for a semantic failure (invalid derivation, failed
condition, unverified witness), 2 for an I/O or parse failure.

Text output is meant for people; ``--format machine`` switches every
command to line-delimited JSON records with deterministic bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import FIXTURES
from .derivation import (
    Derivation,
    DerivationTemplate,
    detect_mode,
    expand_template,
    format_path,
    validate,
)
from .errors import FormatError, NplsError
from .extraction import (
    ExtractionContext,
    build_npls,
    build_pls,
    extract_witness_npls,
    extract_witness_pls,
)
from .nested_graph import (
    MAX_RANK,
    MAX_WIDTH,
    CostedDigraph,
    NestedGraphFamily,
    generate_family,
    npls_from_family,
    pls_from_digraph,
)
from .search_core import (
    solve_npls,
    solve_pls,
    verify_npls_conditions,
)
from .serialization import (
    digraph_to_json,
    dumps,
    family_to_json,
    loads_document,
)

MODE_AUTO = "auto"


@dataclass(frozen=True)
class RunConfig:
    """One resolved command invocation."""

    command: str
    input_path: str | None
    mode: str
    x_value: int
    seed: int
    max_steps: int | None
    max_rank: int
    max_width: int
    output: str
    out_path: str | None


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_input(name: str):
    path = Path(name)
    if path.exists():
        return loads_document(_read(path))
    fixture_dir = os.environ.get("NPLS_FIXTURES")
    if fixture_dir:
        candidate = Path(fixture_dir) / f"{name}.json"
        if candidate.exists():
            return loads_document(_read(candidate))
    if name in FIXTURES:
        return FIXTURES[name]()
    raise OSError(f"no file or fixture named {name!r}")


def _as_derivation(doc, cfg: RunConfig) -> Derivation:
    """The input as a derivation; templates expand at --x, unvalidated.

    Every command validates the result exactly once, in the mode it runs
    in: ``validate`` directly, the others through ExtractionContext.
    """
    if isinstance(doc, DerivationTemplate):
        return expand_template(doc, cfg.x_value)
    if isinstance(doc, Derivation):
        return doc
    raise NplsError("this command needs a derivation or template input")


def _resolve_mode(cfg: RunConfig, derivation: Derivation) -> str:
    return detect_mode(derivation) if cfg.mode == MODE_AUTO else cfg.mode


# Commands.  Each returns (exit_code, output lines).


def cmd_validate(cfg: RunConfig) -> tuple[int, list[str]]:
    derivation = _as_derivation(_load_input(cfg.input_path), cfg)
    report = validate(derivation, _resolve_mode(cfg, derivation))
    return (0 if report.ok else 1), _report_lines(report, cfg)


def _report_lines(report, cfg: RunConfig) -> list[str]:
    if cfg.output == "machine":
        lines = [
            dumps({"path": list(i.path), "message": i.message}) for i in report.issues
        ]
        lines.append(dumps({"ok": report.ok, "mode": report.mode}))
        return lines
    if report.ok:
        return [f"ok mode={report.mode}"]
    return report.lines()


def cmd_extract(cfg: RunConfig) -> tuple[int, list[str]]:
    doc = _load_input(cfg.input_path)
    derivation = _as_derivation(doc, cfg)
    mode = _resolve_mode(cfg, derivation)
    ctx = ExtractionContext(derivation, mode)
    if mode == "pls":
        report = extract_witness_pls(ctx, cfg.max_steps)
    else:
        report = extract_witness_npls(ctx, cfg.max_steps)
    flag = "true" if report.verified else "false"
    if cfg.output == "machine":
        lines = [
            dumps(
                {
                    "witness": report.witness,
                    "verified": report.verified,
                    "solution": list(report.solution_node),
                    "steps": report.trace.step_count,
                }
            )
        ]
    else:
        lines = [
            f"witness={report.witness} verified={flag}",
            f"solution={format_path(report.solution_node)}",
            f"steps={report.trace.step_count}",
        ]
    return (0 if report.verified else 1), lines


def _trace_lines(trace, solution, cfg: RunConfig) -> list[str]:
    if cfg.output == "machine":
        lines = [
            dumps(
                {
                    "action": s.action,
                    "source": s.source,
                    "target": s.target,
                    "rank": s.rank,
                    "cost": s.cost,
                }
            )
            for s in trace.steps
        ]
        lines.append(dumps({"solution": solution, "steps": trace.step_count}))
        return lines
    lines = [
        f"{s.action:<11} source={s.source} target={s.target} rank={s.rank} cost={s.cost}"
        for s in trace.steps
    ]
    lines.append(f"solution={solution} steps={trace.step_count}")
    return lines


def cmd_solve(cfg: RunConfig) -> tuple[int, list[str]]:
    doc = _load_input(cfg.input_path)
    if isinstance(doc, CostedDigraph):
        solution, trace = solve_pls(pls_from_digraph(doc), cfg.max_steps)
    elif isinstance(doc, NestedGraphFamily):
        solution, trace = solve_npls(npls_from_family(doc), cfg.max_steps)
    else:
        derivation = _as_derivation(doc, cfg)
        mode = _resolve_mode(cfg, derivation)
        ctx = ExtractionContext(derivation, mode)
        if mode == "pls":
            solution, trace = solve_pls(build_pls(ctx), cfg.max_steps)
        else:
            solution, trace = solve_npls(build_npls(ctx), cfg.max_steps)
    return 0, _trace_lines(trace, solution, cfg)


def cmd_verify(cfg: RunConfig) -> tuple[int, list[str]]:
    doc = _load_input(cfg.input_path)
    if isinstance(doc, CostedDigraph):
        inst = pls_from_digraph(doc)
    elif isinstance(doc, NestedGraphFamily):
        inst = npls_from_family(doc)
    else:
        derivation = _as_derivation(doc, cfg)
        mode = _resolve_mode(cfg, derivation)
        ctx = ExtractionContext(derivation, mode)
        inst = build_pls(ctx) if mode == "pls" else build_npls(ctx)
    report = verify_npls_conditions(inst)
    if cfg.output == "machine":
        lines = [
            dumps(
                {
                    "name": c.name,
                    "passed": c.passed,
                    "counterexample": list(c.counterexample) if c.counterexample else None,
                    "detail": c.detail,
                }
            )
            for c in report.checks
        ]
        lines.append(dumps({"ok": report.all_passed}))
    else:
        lines = report.lines()
    return (0 if report.all_passed else 1), lines


def cmd_gen_graph(cfg: RunConfig) -> tuple[int, list[str]]:
    family = generate_family(cfg.seed, cfg.max_rank, cfg.max_width)
    obj = digraph_to_json(family.graph) if cfg.max_rank == 0 else family_to_json(family)
    return 0, [dumps(obj)]


_COMMANDS = {
    "validate": cmd_validate,
    "extract": cmd_extract,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "gen-graph": cmd_gen_graph,
}

_NEEDS_INPUT = {"validate", "extract", "solve", "verify"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--mode",
        choices=["pls", "npls", MODE_AUTO],
        default=MODE_AUTO,
        help="derivation mode; auto picks by quantifier class",
    )
    shared.add_argument("--x", type=int, default=0, help="parameter value for templates")
    shared.add_argument("--seed", type=int, default=1, help="generator seed")
    shared.add_argument("--max-steps", type=int, default=None, help="solver step budget")
    shared.add_argument("--max-rank", type=int, default=2, help="family nesting depth")
    shared.add_argument("--max-width", type=int, default=4, help="family problem size")
    shared.add_argument("--out", default=None, help="write output to this file")
    shared.add_argument(
        "--format",
        choices=["text", "machine"],
        default="text",
        dest="output",
        help="text tables or line-delimited JSON",
    )

    parser = argparse.ArgumentParser(
        prog="npls",
        description="Nested local search over proof trees and graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[shared])
        if name in _NEEDS_INPUT:
            p.add_argument("input", help="file path or fixture name")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    if args.x < 0 or args.seed < 0:
        raise NplsError("--x and --seed must be non-negative")
    if args.max_steps is not None and args.max_steps < 0:
        raise NplsError("--max-steps must be non-negative")
    if not (0 <= args.max_rank <= MAX_RANK and 1 <= args.max_width <= MAX_WIDTH):
        raise NplsError(f"--max-rank must lie in 0..{MAX_RANK} and --max-width in 1..{MAX_WIDTH}")
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        mode=args.mode,
        x_value=args.x,
        seed=args.seed,
        max_steps=args.max_steps,
        max_rank=args.max_rank,
        max_width=args.max_width,
        output=args.output,
        out_path=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        code, lines = _COMMANDS[cfg.command](cfg)
        text = "".join(line + "\n" for line in lines)
        if cfg.out_path is not None:
            Path(cfg.out_path).write_text(text, encoding="utf-8")
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NplsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.out_path is None:
        sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())
