"""Batch front-end: validate, extract, solve, verify, generate.

Inputs name either a file on disk, a file ``<name>.json`` inside the
directory given by the ``NPLS_FIXTURES`` environment variable, or one
of the built-in fixtures.  Exit codes are uniform across commands:
0 for success, 1 for a semantic failure (invalid derivation, failed
condition, unverified witness), 2 for an I/O or parse failure.

Each input compiles once, in one helper, to the derivation or search
instance its command runs on; ``solve`` runs ``solve_npls`` on every
instance, plain ones being its one-row, rank-zero case.

Each command takes only the options it reads, and any other is a usage
error: ``--mode`` and ``--x`` on the four that read an input, and
``--max-steps`` on ``extract`` and ``solve``; ``--seed``, ``--max-rank``
and ``--max-width`` on ``gen-graph``; ``--out`` on all, and ``--format``
on all but ``gen-graph``, whose ``machine`` records are line-delimited
JSON with deterministic bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .corpus import FIXTURES
from .derivation import (
    MODE_PLS,
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
    DigraphTable,
    FamilyTable,
    NestedGraphFamily,
    generate_family,
    npls_from_family,
    npls_from_table,
    pls_from_digraph,
)
from .search_core import NplsInstance, solve_npls, verify_npls_conditions
from .serialization import (
    digraph_to_json,
    dumps,
    family_to_json,
    loads_document,
)

MODE_AUTO = "auto"


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


def _derivation(doc, args: argparse.Namespace) -> tuple[Derivation, str]:
    """The input as a derivation, unvalidated, and the mode it runs in.

    Templates expand at --x, and ``auto`` picks the mode by quantifier
    class.  Every command validates the result exactly once, in that
    mode: ``validate`` directly, the others through ExtractionContext.
    """
    if isinstance(doc, DerivationTemplate):
        doc = expand_template(doc, args.x)
    elif not isinstance(doc, Derivation):
        raise NplsError("this command needs a derivation or template input")
    return doc, detect_mode(doc) if args.mode == MODE_AUTO else args.mode


def _instance(args: argparse.Namespace) -> NplsInstance:
    """The search instance the input compiles to, for ``solve`` and ``verify``.

    A digraph is a table and compiles to a plain instance.  A family
    compiles to a nested one: a file decodes to its table, and a fixture
    is built as objects.  A derivation or template compiles through
    ExtractionContext in its mode.
    """
    doc = _load_input(args.input)
    if isinstance(doc, DigraphTable):
        return pls_from_digraph(doc)
    if isinstance(doc, FamilyTable):
        return npls_from_table(doc)
    if isinstance(doc, NestedGraphFamily):
        return npls_from_family(doc)
    ctx = ExtractionContext(*_derivation(doc, args))
    return build_pls(ctx) if ctx.mode == MODE_PLS else build_npls(ctx)


# Commands.  Each takes the parsed arguments and returns (exit_code, output lines).


def cmd_validate(args: argparse.Namespace) -> tuple[int, list[str]]:
    report = validate(*_derivation(_load_input(args.input), args))
    if args.output == "machine":
        lines = [
            dumps({"path": list(i.path), "message": i.message}) for i in report.issues
        ]
        lines.append(dumps({"ok": report.ok, "mode": report.mode}))
    elif report.ok:
        lines = [f"ok mode={report.mode}"]
    else:
        lines = report.lines()
    return (0 if report.ok else 1), lines


def cmd_extract(args: argparse.Namespace) -> tuple[int, list[str]]:
    ctx = ExtractionContext(*_derivation(_load_input(args.input), args))
    extract = extract_witness_pls if ctx.mode == MODE_PLS else extract_witness_npls
    report = extract(ctx, args.max_steps)
    flag = "true" if report.verified else "false"
    if args.output == "machine":
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


# One machine trace record, byte for byte what ``dumps`` makes of the
# step's dict: the keys are in sorted order with no spaces, ``action`` is
# one of the five ASCII constants of ``search_core``, and every id, rank
# and cost on this path is a plain int, because the decoders reject bools
# and floats and the instance builders compute ints.
_STEP_RECORD = '{"action":"%s","cost":%d,"rank":%d,"source":%d,"target":%d}'


def cmd_solve(args: argparse.Namespace) -> tuple[int, list[str]]:
    solution, trace = solve_npls(_instance(args), args.max_steps)
    if args.output == "machine":
        lines = [
            _STEP_RECORD % (s.action, s.cost, s.rank, s.source, s.target)
            for s in trace.steps
        ]
        lines.append(dumps({"solution": solution, "steps": trace.step_count}))
    else:
        lines = [
            f"{s.action:<11} source={s.source} target={s.target} rank={s.rank} cost={s.cost}"
            for s in trace.steps
        ]
        lines.append(f"solution={solution} steps={trace.step_count}")
    return 0, lines


def cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    report = verify_npls_conditions(_instance(args))
    if args.output == "machine":
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


def cmd_gen_graph(args: argparse.Namespace) -> tuple[int, list[str]]:
    family = generate_family(args.seed, args.max_rank, args.max_width)
    obj = digraph_to_json(family.graph) if args.max_rank == 0 else family_to_json(family)
    return 0, [dumps(obj)]


_COMMANDS = {
    "validate": cmd_validate,
    "extract": cmd_extract,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "gen-graph": cmd_gen_graph,
}

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("input", help="file path or fixture name")
    reads.add_argument(
        "--mode",
        choices=["pls", "npls", MODE_AUTO],
        default=MODE_AUTO,
        help="derivation mode; auto picks by quantifier class",
    )
    reads.add_argument("--x", type=int, default=0, help="parameter value for templates")
    reads.add_argument(
        "--format",
        choices=["text", "machine"],
        default="text",
        dest="output",
        help="text tables or line-delimited JSON",
    )
    searches = argparse.ArgumentParser(add_help=False)
    searches.add_argument("--max-steps", type=int, default=None, help="solver step budget")
    generates = argparse.ArgumentParser(add_help=False)
    generates.add_argument("--seed", type=int, default=1, help="generator seed")
    generates.add_argument("--max-rank", type=int, default=2, help="family nesting depth")
    generates.add_argument("--max-width", type=int, default=4, help="family problem size")
    searching = [reads, searches]
    parents = {"validate": [reads], "extract": searching, "solve": searching, "verify": [reads]}

    parser = argparse.ArgumentParser(
        prog="npls",
        description="Nested local search over proof trees and graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=parents.get(name, [generates]))
        p.add_argument("--out", default=None, help="write output to this file")
    return parser


def _check(args: argparse.Namespace) -> None:
    """Range checks on the options the command has."""
    if getattr(args, "x", 0) < 0 or getattr(args, "seed", 0) < 0:
        raise NplsError("--x and --seed must be non-negative")
    if getattr(args, "max_steps", None) is not None and args.max_steps < 0:
        raise NplsError("--max-steps must be non-negative")
    if args.command == "gen-graph" and not (
        0 <= args.max_rank <= MAX_RANK and 1 <= args.max_width <= MAX_WIDTH
    ):
        raise NplsError(f"--max-rank must lie in 0..{MAX_RANK} and --max-width in 1..{MAX_WIDTH}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        code, lines = _COMMANDS[args.command](args)
        text = "".join(line + "\n" for line in lines)
        if args.out is not None:
            Path(args.out).write_text(text, encoding="utf-8")
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NplsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())
