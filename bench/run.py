"""Benchmark of the ``npls`` command path, one workload per process.

    python3 bench/run.py --workload graphs --seed 1 --seconds 30 --trace 0

Every operation is one in-process ``npls.cli.main([...])`` call in
``--format machine`` on an input file written at set-up, run one at a
time (a closed loop with one client).  A pass runs each command of the
workload once and then checks every output, outside the timed loop; a
run repeats whole passes until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  Set-up runs once before the passes and
again after them, at least ``SETUP_REPEATS`` times and ``SETUP_MIN_S``
seconds in all; ``setup_s`` is the median.

Times are scaled to a fixed reference speed (see ``reference.py``): a
reference chunk runs before the first command of a pass and after every
0.1 s of commands, and each command's time is multiplied by
``REFERENCE_S`` over the median of the three chunks before it and the
three after it.  The raw times are printed as ``#`` lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then traced passes, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The package
is imported from ``src/`` of the checkout that holds this file; without
it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs at least this many times and for at least this long, and
# reports the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Latency percentiles count this many samples per command, whatever the
# number of passes, so the tail's rank does not move with the program's
# speed.
SAMPLES_PER_COMMAND = 6
KINDS = ("solve", "verify", "extract", "validate")
# Commands run between two reference chunks for at least this long, and
# a command is scaled by the median of this many chunks on either side.
CHUNK_EVERY_S = 0.1
CHUNK_WINDOW = 3

SPAN_METRICS = (
    ("cli.main.self_s", "s"),
    ("serialization.loads_document.s", "s"),
    ("derivation.substitute_numeral.self_s", "s"),
    ("derivation.validate.s", "s"),
    ("derivation.validate.calls", "count"),
    ("derivation.postorder_index.s", "s"),
    ("extraction.ExtractionContext.self_s", "s"),
    ("extraction.build_npls.s", "s"),
    ("extraction.build_pls.s", "s"),
    ("extraction.extract_witness.self_s", "s"),
    ("nested_graph.npls_from_family.s", "s"),
    ("nested_graph.pls_from_digraph.s", "s"),
    ("search_core.solve_npls.s", "s"),
    ("search_core.solve_pls.s", "s"),
    ("search_core.verify_npls_conditions.s", "s"),
)
COUNT_METRICS = (
    ("serialization.bytes_decoded", "bytes"),
    ("derivation.nodes", "count"),
    ("extraction.npls_targets.calls", "count"),
    ("extraction.npls_targets.hits", "count"),
    ("nested_graph.problems", "count"),
    ("search_core.trace_steps", "count"),
    ("search_core.conditions_failed", "count"),
    ("search_core.calls.sources", "count"),
    ("search_core.calls.targets", "count"),
    ("search_core.calls.targets_hits", "count"),
    ("search_core.calls.nbr_rel", "count"),
    ("search_core.calls.gen_source", "count"),
    ("search_core.calls.extract", "count"),
    ("search_core.calls.cost", "count"),
    ("search_core.calls.neighbor_rel", "count"),
    ("terms.normalize.calls", "count"),
    ("terms.eval_literal.calls", "count"),
)
RATIO_METRICS = (
    ("extraction.npls_targets.hit_ratio", "extraction.npls_targets.hits", "extraction.npls_targets.calls"),
    ("search_core.calls.targets_hit_ratio", "search_core.calls.targets_hits", "search_core.calls.targets"),
)


@dataclass
class Pass:
    """One pass; every time but ``raw_seconds`` is scaled to the reference speed."""

    seconds: float
    raw_seconds: float
    latencies: list[float]
    by_kind: dict[str, float]


@dataclass
class Tally:
    """Operations attempted and failed, and wrong outputs, over all passes."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _import_npls():
    """Import the package afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "npls" or n.startswith("npls.")]:
        del sys.modules[name]
    npls = importlib.import_module("npls")
    cli = importlib.import_module("npls.cli")
    if Path(npls.__file__).resolve().parent != SRC / "npls":
        raise ImportError(f"npls was imported from {npls.__file__}, not from {SRC}")
    return npls, cli


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, generate the corpus and write the input files.

    Returns the raw and the scaled set-up time, ``main`` and the commands.
    """
    before = reference.chunk_median()
    started = perf_counter()
    npls, cli = _import_npls()
    commands = inputs.build(workload, seed, npls, workdir)
    elapsed = perf_counter() - started
    chunk_s = (before + reference.chunk_median()) / 2
    return elapsed, elapsed * reference.REFERENCE_S / chunk_s, cli, commands


def settle() -> None:
    """Collect the set-up's garbage and exempt what survives from later collections.

    The benchmark keeps every input and its parsed check data alive.  A
    command run from a shell has none of that on its heap, so the
    collector should not scan it during the timed commands either.
    """
    gc.collect()
    gc.freeze()


def run_pass(cli_main, commands, tally: Tally, tracer: Tracer | None = None) -> Pass:
    """Run every command once, then check the outputs outside the timed loop."""
    gc.collect()
    outputs, raw, segment = [], [], []
    chunks = [reference.chunk()]
    since_chunk = 0.0
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_command()
        t = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli_main(list(cmd.argv))
            except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
                code = None
                err.write(traceback.format_exc())
        elapsed = perf_counter() - t
        raw.append(elapsed)
        segment.append(len(chunks) - 1)
        outputs.append((code, out.getvalue(), err.getvalue()))
        since_chunk += elapsed
        if since_chunk >= CHUNK_EVERY_S or i == len(commands) - 1:
            chunks.append(reference.chunk())
            since_chunk = 0.0
    scale = [
        reference.REFERENCE_S / statistics.median(chunks[max(k - CHUNK_WINDOW + 1, 0) : k + CHUNK_WINDOW + 1])
        for k in range(len(chunks) - 1)
    ]
    latencies = [t * scale[k] for t, k in zip(raw, segment)]
    by_kind = dict.fromkeys(KINDS, 0.0)
    for cmd, t in zip(commands, latencies):
        by_kind[cmd.kind] += t
    check_outputs(commands, outputs, tally)
    return Pass(sum(latencies), sum(raw), latencies, by_kind)


def check_outputs(commands, outputs, tally: Tally) -> None:
    """Count failed operations and collect wrong outputs; report failures once."""
    report = tally.attempted == 0
    tally.attempted += len(commands)
    for cmd, (code, out, err) in zip(commands, outputs):
        if code not in (0, 1):
            tally.failed += 1
            if report:
                print(f"failed: {cmd.label}: exit {code}: {err.strip()[-300:]}", file=sys.stderr)
            continue
        try:
            cmd.check(code, [json.loads(line) for line in out.splitlines()])
        except (inputs.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            tally.wrong.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
            continue
        if code != 0:
            tally.failed += 1
            if report:
                print(f"failed: {cmd.label}: exit 1: {_why(out, err)}", file=sys.stderr)


def _why(out: str, err: str) -> str:
    recs = [json.loads(line) for line in out.splitlines()]
    names = [r["name"] for r in recs if r.get("passed") is False]
    return ("conditions failed: " + ", ".join(names)) if names else (err.strip() or out.strip())


def latency_samples(passes: list[Pass]) -> list[float]:
    """``SAMPLES_PER_COMMAND`` samples per command, each its mean over all passes.

    The speed of a shared machine can drift in phases that last longer
    than a pass; a command's mean over the run averages them, where a
    single sample or a median picks one.
    """
    per_command = [statistics.fmean(ts) for ts in zip(*(p.latencies for p in passes))]
    return [t for t in per_command for _ in range(SAMPLES_PER_COMMAND)]


def tail_ms(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, in ms."""
    n = len(samples)
    if n < 40:
        raise ValueError(f"a tail needs at least 40 samples, got {n}")
    ordered = sorted(samples)
    pct = next(p for p in range(99, 0, -1) if n - math.ceil(p * n / 100) >= 10)
    return pct, 1000.0 * ordered[math.ceil(pct * n / 100) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(cli_main, commands, tally, seconds: float, min_passes: int, tracer=None, on_pass=None):
    """Repeat whole passes until ``seconds`` have passed and ``min_passes`` are done."""
    passes, started = [], perf_counter()
    while len(passes) < min_passes or perf_counter() - started < seconds:
        first_span = len(tracer.spans) if tracer is not None else 0
        passes.append(run_pass(cli_main, commands, tally, tracer))
        if on_pass is not None:
            on_pass(first_span, passes[-1])
    return passes


def end_to_end(args, workdir: Path, tally: Tally) -> tuple[dict, list[str]]:
    raw_s, scaled_s, cli, commands = setup(args.workload, args.seed, workdir)
    raw_setups, setups = [raw_s], [scaled_s]
    settle()
    run_pass(cli.main, commands, tally)
    measured = measure(cli.main, commands, tally, args.seconds, MIN_PASSES)
    # ru_maxrss is in KiB on Linux.  It is read before the repeated
    # set-ups, each of which leaves a copy of the package's modules alive.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_MIN_S:
        gc.collect()
        raw_s, scaled_s, _, _ = setup(args.workload, args.seed, workdir)
        raw_setups.append(raw_s)
        setups.append(scaled_s)
    samples = latency_samples(measured)
    pct, tail = tail_ms(samples)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(statistics.fmean(p.seconds for p in measured), "s"),
        "cmd_ms_p50": _metric(1000.0 * statistics.median(samples), "ms"),
        "cmd_ms_tail": _metric(tail, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"# {args.workload}: {len(commands)} commands per pass, {len(measured)} passes; "
          f"tail is p{pct} of {len(samples)} samples")
    print(f"# scaled: setups {[round(s, 4) for s in setups]}; passes {[round(p.seconds, 3) for p in measured]}")
    print(f"# raw: setups {[round(s, 4) for s in raw_setups]}; "
          f"passes {[round(p.raw_seconds, 3) for p in measured]}")
    for kind in KINDS:
        if any(c.kind == kind for c in commands):
            value = statistics.fmean(p.by_kind[kind] for p in measured)
            print(f"# {kind}_s {value:.4f} s per pass")
    return metrics, []


def per_layer(args, workdir: Path, tally: Tally) -> tuple[dict, list[str]]:
    _, _, cli, commands = setup(args.workload, args.seed, workdir)
    settle()
    started = perf_counter()
    run_pass(cli.main, commands, tally)
    untraced = measure(cli.main, commands, tally, args.seconds / 2, 1)

    tracer = Tracer()
    traced_main = tracer.spanned("cli.main", cli.main)
    # (span summary, counts, scale from raw to reference-speed seconds) per traced pass
    per_pass: list[tuple[dict, dict, float]] = []

    def collect(first_span: int, done: Pass) -> None:
        scale = done.seconds / done.raw_seconds
        per_pass.append((tracer.summary(first_span), dict(tracer.counts), scale))
        tracer.counts.clear()

    t0 = perf_counter()
    remaining = max(args.seconds - (t0 - started), 0.0)
    tracer.install()
    try:
        traced = measure(traced_main, commands, tally, remaining, MIN_TRACED_PASSES, tracer, collect)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", t0)

    problems = []
    counts = per_pass[0][1]
    for i, (_, c, _) in enumerate(per_pass[1:], start=2):
        if c != counts:
            diff = sorted(k for k in set(c) | set(counts) if c.get(k) != counts.get(k))
            problems.append(f"traced pass {i} counts differ from pass 1: {diff}")

    metrics = {}
    for name, unit in SPAN_METRICS:
        values = [s.get(name, 0.0) * (scale if unit == "s" else 1) for s, _, scale in per_pass]
        metrics[name] = _metric(statistics.fmean(values) if unit == "s" else values[0], unit)
    for name, unit in COUNT_METRICS:
        metrics[name] = _metric(counts.get(name, 0), unit)
    for name, hits, calls in RATIO_METRICS:
        total = counts.get(calls, 0)
        metrics[name] = _metric(counts.get(hits, 0) / total if total else 0.0, "ratio")
    for kind in KINDS:
        metrics[f"command.{kind}.s"] = _metric(statistics.fmean(p.by_kind[kind] for p in untraced), "s")
    untraced_s = statistics.fmean(p.seconds for p in untraced)
    traced_s = statistics.fmean(p.seconds for p in traced)
    metrics["untraced.pass_s"] = _metric(untraced_s, "s")
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    print(f"# {args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(tracer.spans)} spans written")
    return metrics, problems


def main() -> int:
    args = _parse()
    if not (SRC / "npls" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'npls'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        metrics, problems = (per_layer if args.trace else end_to_end)(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in (tally.wrong + problems)[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
