"""Inputs of the benchmark workloads and the checks on their outputs.

``build(workload, seed, npls, workdir)`` generates one workload's corpus
from its seed, writes every input as a JSON file under ``workdir`` and
returns the commands of one pass.  Each command is one ``npls`` argument
list plus a check of its ``--format machine`` output.  The checks read
what they need from the input files and decide with the small term
evaluator below, never with the program's own code.

Workloads:

* ``graphs``: ``solve`` on generated nested families (ranks 2-4, widths
  4-8), ``verify`` on most of them, and ``solve`` on large plain
  cost-decreasing digraphs with long descents.  The family seeds come
  from the workload seed; each rank/width tier keeps only families
  whose verifier space lies in a fixed band, so every seed gives
  different families with the same amount of work.
* ``template-ladder``: ``validate`` and ``extract`` on the T-D3 template
  at a doubling ladder of x, each rung moved up by 0-2 by the seed.
* ``sigma-corpus``: ``extract`` and ``verify`` on the random Sigma-2
  derivations of generator seeds 12-22, and ``extract`` on 60 random
  Sigma-1 derivations of 16-64 nodes drawn from the workload seed, a
  fixed number in each size band.  The
  Sigma-2 set is fixed because two of its members (19 and 22) fail
  ``verify`` through a known fault, and that failure must not depend on
  the seed.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("graphs", "template-ladder", "sigma-corpus")

CONDITIONS = (
    "bit_bound",
    "gen_source_closure",
    "neighbor_domain",
    "rank0_function",
    "rank_descent",
    "extract_lift",
    "initial_source",
    "initial_target",
    "cost_decrease",
)

# graphs: (rank, width, families solved, how many of them are also verified).
FAMILY_TIERS = (
    (2, 4, 48, 0),
    (2, 6, 48, 0),
    (2, 8, 32, 32),
    (3, 4, 32, 32),
    (4, 4, 6, 6),
    (3, 6, 4, 4),
)
# Families keep rows * 2^d, the verifier's space, within this band around
# the median of a fixed reference sample of their tier.
SPACE_BAND = (0.85, 1.15)
REFERENCE_FAMILIES = 31
# graphs: (nodes, descent length, count) of the plain digraphs.  The
# largest are the slowest commands of the workload and set its tail.
DIGRAPHS = ((1024, 128, 2), (2048, 256, 2), (4096, 512, 3))

LADDER = (50, 100, 200, 400)
SIGMA2_SEEDS = tuple(range(12, 23))
# sigma-corpus: (fewest nodes, most nodes, count) of the Sigma-1
# derivations.  Fixed counts per size band keep the size mix, and with it
# the median command, the same for every seed.
SIGMA1_BANDS = tuple((n, n + 1, 6) for n in range(16, 32, 2)) + ((32, 64, 12),)


class CheckFailed(Exception):
    """An output that contradicts the independently computed answer."""


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, list], None]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# Independent evaluation of terms and formulas in their JSON form.


def eval_term(t: dict, env: dict[str, int]) -> int:
    if "num" in t:
        return t["num"]
    if "var" in t:
        return env[t["var"]]
    a = [eval_term(arg, env) for arg in t["args"]]
    op = t["op"]
    if op == "add":
        return a[0] + a[1]
    if op == "mul":
        return a[0] * a[1]
    if op == "monus":
        return max(a[0] - a[1], 0)
    if op == "len":
        return a[0].bit_length()
    if op == "smash":
        return 1 << (a[0].bit_length() * a[1].bit_length())
    if op == "div2":
        return a[0] // 2
    if op == "cond":
        return a[1] if a[0] > 0 else a[2]
    raise ValueError(f"unknown operation {op!r}")


def holds(lit: dict, env: dict[str, int]) -> bool:
    return (eval_term(lit["lhs"], env) == eval_term(lit["rhs"], env)) != lit["neg"]


def solutions(end_formula: dict, x: int) -> frozenset[int]:
    """Every value below the bound that satisfies a bounded existential."""
    ex = end_formula["ex"]
    env = {"x": x}
    bound = eval_term(ex["bound"], env)
    return frozenset(y for y in range(bound) if holds(ex["body"], {**env, ex["v"]: y}))


# Output checks.  Each takes the exit code and the decoded output lines.


def _check_extract(answers: frozenset[int], nodes: dict | None, x: int):
    def check(code: int, out: list) -> None:
        _need(len(out) == 1, f"expected one record, got {len(out)}")
        rec = out[0]
        _need(rec["verified"] is (code == 0), "exit code disagrees with 'verified'")
        if code != 0:
            return
        _need(rec["witness"] in answers, f"witness {rec['witness']} not in {sorted(answers)}")
        _need(rec["steps"] >= 1, "empty trace")
        if nodes is not None:
            node = nodes.get(tuple(rec["solution"]))
            _need(node is not None, f"solution {rec['solution']} is not a node")
            rule = node["rule"]
            _need(rule["tag"] == "exists", "solution node is not an existential rule")
            _need(
                eval_term(rule["witness"], {"x": x}) == rec["witness"],
                "witness differs from the solution node's witnessing term",
            )

    return check


def _check_validate(code: int, out: list) -> None:
    _need(out[-1] == {"ok": code == 0, "mode": "npls"}, f"unexpected verdict {out[-1]}")
    _need(code != 0 or len(out) == 1, "issues listed for a valid derivation")


def _check_verify(code: int, out: list) -> None:
    _need(len(out) == len(CONDITIONS) + 1, f"expected 10 records, got {len(out)}")
    _need([r["name"] for r in out[:-1]] == list(CONDITIONS), "condition names or order")
    passed = all(r["passed"] for r in out[:-1])
    _need(out[-1] == {"ok": passed}, "summary disagrees with the conditions")
    _need(passed is (code == 0), "exit code disagrees with the conditions")


def _split_trace(out: list) -> tuple[list, int]:
    *steps, last = out
    _need(last["steps"] == len(steps), "step count disagrees with the trace")
    _need(bool(steps), "empty trace")
    return steps, last["solution"]


def _check_family_solve(top_edges: set[tuple[int, int]]):
    def check(code: int, out: list) -> None:
        _need(code == 0, f"exit code {code}")
        steps, solution = _split_trace(out)
        _need(steps[-1]["action"] == "solved", "trace does not end solved")
        # The top problem has problem id 0, so its packed points are node ids.
        _need((solution, solution) in top_edges, f"solution {solution} has no self-loop")

    return check


def _check_digraph_solve(g: dict, sink: int, descent: int):
    costs = g["costs"]
    edges = {tuple(e) for e in g["edges"]}
    cheaper = {s for s, t in edges if costs[t] < costs[s]}

    def check(code: int, out: list) -> None:
        _need(code == 0, f"exit code {code}")
        steps, solution = _split_trace(out)
        points = [s["target"] for s in steps]
        _need(points[0] == 0, "descent does not start at node 0")
        for s in steps:
            _need(s["cost"] == costs[s["target"]], f"cost of {s['target']} misreported")
        for a, b in zip(points, points[1:]):
            _need(costs[b] < costs[a], f"cost does not decrease from {a} to {b}")
            _need((a, b) in edges, f"step {a} -> {b} is not an edge")
        _need(solution == points[-1], "solution is not the last point")
        _need((solution, solution) in edges, f"solution {solution} has no self-loop")
        _need(solution not in cheaper, f"solution {solution} has a cheaper successor")
        # Ties break toward the smallest id, so the walk is the planted spine.
        _need((solution, len(steps)) == (sink, descent), "descent left the spine")

    return check


# Corpus generation.


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")), encoding="utf-8")
    return str(path)


def _space(fam) -> int:
    """Rows times point space of the verifier on a family, from its structure."""
    problems, stack = 0, [fam]
    widest = 1
    while stack:
        f = stack.pop()
        problems += 1
        widest = max(widest, f.graph.n_nodes)
        stack.extend(f.children.values())
    d = max((problems - 1).bit_length(), 1) + max((widest - 1).bit_length(), 1)
    return problems << d


def _space_band(npls, rank: int, width: int) -> tuple[float, float]:
    # A fixed reference sample, so the band does not move with the seed.
    spaces = [_space(npls.generate_family(s, rank, width)) for s in range(REFERENCE_FAMILIES)]
    mid = statistics.median(spaces)
    return SPACE_BAND[0] * mid, SPACE_BAND[1] * mid


def _families(npls, rng: random.Random, workdir: Path) -> list[Command]:
    commands = []
    for rank, width, n_solve, n_verify in FAMILY_TIERS:
        lo, hi = _space_band(npls, rank, width)
        for i in range(n_solve):
            while True:
                fam = npls.generate_family(rng.randrange(1 << 30), rank, width)
                if lo <= _space(fam) <= hi:
                    break
            obj = npls.family_to_json(fam)
            path = _write(workdir / f"family-{rank}-{width}-{i}.json", obj)
            top_edges = {tuple(e) for e in obj["graph"]["edges"]}
            argv = ("solve", path, "--format", "machine")
            commands.append(Command("solve", argv, _check_family_solve(top_edges)))
            if i < n_verify:
                argv = ("verify", path, "--format", "machine")
                commands.append(Command("verify", argv, _check_verify))
    return commands


def make_digraph(rng: random.Random, n: int, descent: int) -> tuple[dict, int]:
    """A cost-decreasing digraph whose descent from node 0 has ``descent`` steps.

    The walk follows a planted spine of random node ids.  Every spine
    node's smallest-id cheaper successor is the next spine node; its
    other out-edges lead to cheaper nodes of larger id.  The remaining
    nodes get up to three edges to cheaper nodes, or a self-loop.
    Returns the graph in the package's JSON form and the spine's sink.
    """
    others = list(range(1, n))
    rng.shuffle(others)
    spine = [0] + others[: descent - 1]
    costs = [0] * n
    # Spine costs occupy the top of the range, strictly decreasing.
    for i, v in enumerate(spine):
        costs[v] = 2 * n - 1 - i
    rest = others[descent - 1 :]
    for v, c in zip(rest, rng.sample(range(2 * n - descent), len(rest))):
        costs[v] = c
    edges = []
    for i, v in enumerate(spine[:-1]):
        nxt = spine[i + 1]
        edges.append((v, nxt))
        for _ in range(2):
            w = rng.randrange(n)
            if w > nxt and costs[w] < costs[v]:
                edges.append((v, w))
    edges.append((spine[-1], spine[-1]))
    for v in rest:
        outs = {w for w in (rng.randrange(n) for _ in range(3)) if costs[w] < costs[v]}
        edges.extend((v, w) for w in outs)
        if not outs:
            edges.append((v, v))
    return {"n": n, "edges": sorted(set(edges)), "costs": costs}, spine[-1]


def _digraphs(rng: random.Random, workdir: Path) -> list[Command]:
    commands = []
    for n, descent, count in DIGRAPHS:
        for i in range(count):
            g, sink = make_digraph(rng, n, descent)
            path = _write(workdir / f"digraph-{n}-{i}.json", g)
            argv = ("solve", path, "--format", "machine")
            commands.append(Command("solve", argv, _check_digraph_solve(g, sink, descent)))
    return commands


def _ladder(npls, rng: random.Random, workdir: Path) -> list[Command]:
    obj = npls.template_to_json(npls.t_d3())
    path = _write(workdir / "t-d3.json", obj)
    answers = solutions(obj["root"]["sequent"][0], 0)
    if answers != {0, 2}:
        raise CheckFailed(f"T-D3 end-formula has solutions {sorted(answers)}, expected [0, 2]")
    commands = []
    for rung in LADDER:
        x = str(rung + rng.randrange(3))
        commands.append(
            Command("validate", ("validate", path, "--x", x, "--format", "machine"), _check_validate)
        )
        check = _check_extract(answers, None, 0)
        commands.append(Command("extract", ("extract", path, "--x", x, "--format", "machine"), check))
    return commands


def _derivation_file(d, workdir: Path, name: str, npls) -> tuple[str, Callable]:
    obj = npls.derivation_to_json(d)
    path = _write(workdir / name, obj)
    nodes = {tuple(n["path"]): n for n in obj["nodes"]}
    answers = solutions(nodes[()]["sequent"][0], obj["end_x"])
    # The generators design the end-formula y + c = w + c around one witness.
    if len(answers) != 1:
        raise CheckFailed(f"{name}: end-formula has solutions {sorted(answers)}")
    return path, _check_extract(answers, nodes, obj["end_x"])


def _sigma(npls, rng: random.Random, workdir: Path) -> list[Command]:
    commands = []
    for gen_seed in SIGMA2_SEEDS:
        d = npls.random_sigma2_derivation(gen_seed)
        path, check = _derivation_file(d, workdir, f"sigma2-{gen_seed}.json", npls)
        commands.append(Command("extract", ("extract", path, "--format", "machine"), check))
        commands.append(Command("verify", ("verify", path, "--format", "machine"), _check_verify))
    wanted = {band: band[2] for band in SIGMA1_BANDS}
    while any(wanted.values()):
        gen_seed = rng.randrange(1 << 30)
        d = npls.random_sigma1_derivation(gen_seed)
        band = next((b for b in SIGMA1_BANDS if b[0] <= len(d.nodes) <= b[1]), None)
        if band is None or not wanted[band]:
            continue
        wanted[band] -= 1
        path, check = _derivation_file(d, workdir, f"sigma1-{gen_seed}.json", npls)
        commands.append(Command("extract", ("extract", path, "--format", "machine"), check))
    return commands


def build(workload: str, seed: int, npls, workdir: Path) -> list[Command]:
    """Write one workload's inputs for ``seed`` and return the commands of a pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graphs":
        return _families(npls, rng, workdir) + _digraphs(rng, workdir)
    if workload == "template-ladder":
        return _ladder(npls, rng, workdir)
    if workload == "sigma-corpus":
        return _sigma(npls, rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
