"""Pinned command-line runs: argv, exit code, stdout and stderr.

``tests/cli_golden.json`` records ``validate``, ``extract``, ``solve``
and ``verify`` in text and machine format on D1–D3, G1, NG2, on T-D2
and T-D3 at x ∈ {0, 7, 50}, and on the Σ1 derivation of seed 3 and the
Σ2 derivation of seed 12, plus three runs that fail.  It also records
``solve`` and ``verify`` in both formats on three ``gen-graph`` families,
one each at ranks 2, 3 and 4, and on three broken families: one whose
solution table points a node along an edge it does not have, one whose
child has its parent's rank, and one with an edge that raises the cost.
It records ``validate`` and ``extract`` in both formats at x = 3 on four
broken T-D3 templates, each stating every sequent so that its edits can
reach any node's: one whose family witness reaches its bound, one
with a false leaf, one whose cut uppers rename a bound variable, and one
whose cut upper n adds the instance at n+1.  It records ``validate``
and ``extract`` in both formats on two copies of D2 whose later node
repeats the end-formula: one with ``{"num": true}`` in place of
``{"num": 1}``, which fails there, and one with its keys in another
order, which decodes to the same formula.  It records ``solve`` and
``verify`` in both formats on six digraph files: the rank-0 ``gen-graph``
digraph of seed 3 at width 16 with two more cheaper successors of node 0,
its edges reversed and one of them listed twice; the same digraph with
two cost-raising edges appended out of sorted order; one with a
cost-raising edge before an edge that leaves the node range; one with a
``true`` node id; one with a three-element pair; and one of 10^12 nodes
with one cost.  It records ``extract`` and ``solve`` in both formats on
two derivations that break their mode and also fail validation, so a
mode error must win over the other issues: ``--mode pls`` on a copy of
D3 whose leaf (2,1,0) points at its false literal, and ``--mode npls``
on a copy of D2 whose upper sequent (1,0) adds 1+1 = 2 in place of the
instance 2 = 1+1.  The random derivations, the families, the templates,
the D2 and D3 copies and the digraphs are written to a temporary
directory, whose path reads ``<tmp>`` in the pinned argv and output.
The random derivations are written as ``derivation_to_json`` writes
them, stating the root's sequent alone; the D2 and D3 copies state every
sequent (``full_form``), so that their edits can reach any node's.

A change that is meant to keep the command line's behaviour must pass
this test with the pinned file unchanged.  To regenerate the file, run

    PYTHONPATH=src python tests/test_cli_golden.py

from the repository root.  Any regeneration changes pinned behaviour,
so CHANGES.md must say which records changed and why.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from npls.cli import main
from npls.corpus import d2, d3, random_sigma1_derivation, random_sigma2_derivation
from npls.nested_graph import generate_family
from npls.serialization import (
    derivation_from_json,
    derivation_to_json,
    digraph_to_json,
    dumps,
    family_to_json,
    formula_to_json,
    template_to_json,
)

from derivation_helpers import stated_t_d3

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
TMP = "<tmp>"

COMMANDS = ("validate", "extract", "solve", "verify")
FORMATS = ("text", "machine")
# (rank, seed) of the generated families, all at the gen-graph default width.
FAMILIES = ((2, 2), (3, 3), (4, 4))
WIDTH = 4


def _inputs() -> list[list[str]]:
    inputs = [[name] for name in ("D1", "D2", "D3", "G1", "NG2")]
    for name in ("T-D2", "T-D3"):
        inputs += [[name, "--x", str(x)] for x in (0, 7, 50)]
    inputs += [[f"{TMP}/sigma1-3.json"], [f"{TMP}/sigma2-12.json"]]
    return inputs


def _argvs() -> list[list[str]]:
    argvs = [
        [command, *source, "--format", fmt]
        for source in _inputs()
        for command in COMMANDS
        for fmt in FORMATS
    ]
    failing = [
        ["extract", "G1"],
        ["extract", "D3", "--mode", "pls"],
        ["solve", "D3", "--max-steps", "3"],
    ]
    argvs += [[*argv, "--format", fmt] for argv in failing for fmt in FORMATS]
    families = [f"family-{rank}-{seed}.json" for rank, seed in FAMILIES]
    argvs += [
        [command, f"{TMP}/{name}", "--format", fmt]
        for name in [*families, *(f"family-{name}.json" for name in BROKEN)]
        for command in ("solve", "verify")
        for fmt in FORMATS
    ]
    argvs += [
        [command, f"{TMP}/template-{name}.json", "--x", "3", "--format", fmt]
        for name in BROKEN_TEMPLATES
        for command in ("validate", "extract")
        for fmt in FORMATS
    ]
    argvs += [
        [command, f"{TMP}/derivation-{name}.json", "--format", fmt]
        for name in REPEATS
        for command in ("validate", "extract")
        for fmt in FORMATS
    ]
    argvs += [
        [command, f"{TMP}/digraph-{name}.json", "--format", fmt]
        for name in DIGRAPHS
        for command in ("solve", "verify")
        for fmt in FORMATS
    ]
    argvs += [
        [command, f"{TMP}/derivation-{name}.json", "--mode", mode, "--format", fmt]
        for name, (mode, _) in MODE_BREAKS.items()
        for command in ("extract", "solve")
        for fmt in FORMATS
    ]
    return argvs


def _seed_2_family() -> dict:
    return family_to_json(generate_family(2, 2, WIDTH))


def _broken_table_family() -> dict:
    """The rank-2 family of seed 2 with node 0's first solution sent to node 2.

    Node 0 has no edge to node 2, so ``extract_lift`` fails on it.
    """
    doc = _seed_2_family()
    entry = doc["solutions"][0]
    assert entry["node"] == 0 and [0, 2] not in doc["graph"]["edges"]
    entry["edge_to"] = 2
    return doc


def _rank_plateau_family() -> dict:
    """The rank-2 family of seed 2 with node 0's child raised to rank 2.

    Node 0 does not list itself, so ``rank_descent`` fails at (0, 0).
    """
    doc = _seed_2_family()
    child = doc["children"][0]
    assert child["node"] == 0 and [0, 0] not in doc["graph"]["edges"]
    child["problem"]["rank"] = doc["rank"]
    return doc


def _cost_raising_family() -> dict:
    """The rank-2 family of seed 2 with an edge from node 0 to the dearer node 2.

    ``cost_decrease`` fails on that edge.
    """
    doc = _seed_2_family()
    graph = doc["graph"]
    assert graph["costs"][0] < graph["costs"][2] and [0, 2] not in graph["edges"]
    graph["edges"] = sorted([*graph["edges"], [0, 2]])
    return doc


# The broken families, by the name of the file each is written to.
BROKEN = {
    "broken-table": _broken_table_family,
    "rank-plateau": _rank_plateau_family,
    "cost-raising": _cost_raising_family,
}


def _t_d3_body() -> tuple[dict, dict]:
    """T-D3 with every sequent stated, as a document, and its family body's existential rule node."""
    doc = template_to_json(stated_t_d3())
    body = doc["root"]["family"]["body"]
    assert body["rule"] == {"tag": "exists", "principal": 0, "witness": {"num": 2}}
    return doc, body


def _witness_at_bound_template() -> dict:
    """T-D3 with its family body's witness raised to the end-formula's bound, 4.

    Every replicate fails the bound check, and its leaf no longer holds
    the instance the rule adds.
    """
    doc, body = _t_d3_body()
    assert body["sequent"][0]["ex"]["bound"] == {"num": 4}
    body["rule"]["witness"] = {"num": 4}
    return doc


def _false_leaf_template() -> dict:
    """T-D3 with its family body's witness and leaf literal moved to 1.

    The rule adds 1*1 = 1+1, its leaf holds exactly that, and it is false.
    """
    doc, body = _t_d3_body()
    body["rule"]["witness"] = {"num": 1}
    leaf = body["children"][0]["sequent"][2]
    assert leaf["lhs"] == {"op": "mul", "args": [{"num": 2}, {"num": 2}]}
    leaf["lhs"]["args"] = [{"num": 1}, {"num": 1}]
    leaf["rhs"]["args"] = [{"num": 1}, {"num": 1}]
    return doc


def _cut_upper(doc: dict) -> dict:
    """The negated formula that T-D3's family body adds at the root cut."""
    neg = doc["root"]["family"]["body"]["sequent"][1]["ex"]
    assert neg["v"] == "y" and neg["body"]["lhs"]["args"] == [{"var": "i"}, {"var": "y"}]
    return neg


def _renamed_cut_upper_template() -> dict:
    """T-D3 with its family body's negated formula binding w, not y.

    Each value-indexed upper adds the cut's negated instance under
    another bound-variable name, which is the same formula.
    """
    doc, body = _t_d3_body()
    neg = _cut_upper(doc)
    neg["v"] = "w"
    neg["body"]["lhs"]["args"][1] = {"var": "w"}
    neg["body"]["rhs"] = {"var": "w"}
    for sequent in (body["sequent"], body["children"][0]["sequent"]):
        sequent[1] = {"ex": neg}
    return doc


def _shifted_cut_upper_template() -> dict:
    """T-D3 with upper n of the root cut adding the instance at n+1.

    The family body writes the index as i+1, so no value-indexed upper
    adds the formula the cut expects of it.
    """
    doc, body = _t_d3_body()
    neg = _cut_upper(doc)
    neg["body"]["lhs"]["args"][0] = {"op": "add", "args": [{"var": "i"}, {"num": 1}]}
    for sequent in (body["sequent"], body["children"][0]["sequent"]):
        sequent[1] = {"ex": neg}
    return doc


# The broken templates, by the name of the file each is written to.
BROKEN_TEMPLATES = {
    "witness-at-bound": _witness_at_bound_template,
    "false-leaf": _false_leaf_template,
    "renamed-cut-upper": _renamed_cut_upper_template,
    "shifted-cut-upper": _shifted_cut_upper_template,
}


def full_form(doc: dict) -> dict:
    """A derivation document with every node's sequent stated.

    ``derivation_to_json`` leaves out each sequent that follows from its
    parent's; this states them all again, in the node key order ``path``,
    ``rule``, ``sequent``, so a test can index or mutate any node's
    sequent.
    """
    d = derivation_from_json(doc)
    nodes = [
        {**node, "sequent": [formula_to_json(f) for f in d.sequent(tuple(node["path"]))]}
        for node in doc["nodes"]
    ]
    return {**doc, "nodes": nodes}


def _d2_repeat() -> tuple[dict, dict]:
    """D2 as a document, and the end-formula as its node (1, 0) repeats it."""
    doc = full_form(derivation_to_json(d2()))
    node = doc["nodes"][3]
    assert node["path"] == [1, 0] and node["sequent"][0] == doc["nodes"][0]["sequent"][0]
    return doc, node["sequent"][0]["ex"]


def _true_for_one_derivation() -> dict:
    """D2 with ``{"num": true}`` for the first ``{"num": 1}`` of the repeat at (1, 0).

    The earlier occurrences decode, and this one fails at its location.
    """
    doc, ex = _d2_repeat()
    args = ex["body"]["rhs"]["args"]
    assert args[0] == {"num": 1}
    args[0] = {"num": True}
    return doc


def _reordered_keys_derivation() -> dict:
    """D2 with the repeat at (1, 0) writing its keys in reverse order.

    The document is written with its keys as they stand, so the repeat
    is other JSON text for the same formula.
    """
    doc, ex = _d2_repeat()
    doc["nodes"][3]["sequent"][0] = {
        "ex": {
            "v": ex["v"],
            "bound": ex["bound"],
            "body": {k: ex["body"][k] for k in reversed(list(ex["body"]))},
        }
    }
    return doc


# The derivations whose later node repeats a formula in other JSON text,
# by the name of the file each is written to with its keys unsorted.
REPEATS = {
    "true-for-one": _true_for_one_derivation,
    "reordered-keys": _reordered_keys_derivation,
}


def _seed_3_digraph() -> dict:
    """The rank-0 ``gen-graph`` digraph of seed 3 at width 16."""
    doc = digraph_to_json(generate_family(3, 0, 16).graph)
    costs = doc["costs"]
    assert costs[0] > costs[8] > costs[7] and [0, 12] in doc["edges"]
    return doc


def _unsorted_digraph() -> dict:
    """The seed-3 digraph with edges 0 -> 8 and 0 -> 7 added, reversed, 0 -> 8 twice.

    Node 0 now has three cheaper successors and steps to the smallest id, 7.
    """
    doc = _seed_3_digraph()
    doc["edges"] = [[0, 8], *reversed([[0, 7], [0, 8], *doc["edges"]])]
    return doc


def _two_raising_digraph() -> dict:
    """The seed-3 digraph with 7 -> 0 and then 3 -> 9 appended; both raise the cost.

    Listed order puts (7,0) first, sorted order (3,9).
    """
    doc = _seed_3_digraph()
    costs = doc["costs"]
    assert costs[7] <= costs[0] and costs[3] <= costs[9]
    doc["edges"] += [[7, 0], [3, 9]]
    return doc


def _raising_then_out_of_range_digraph() -> dict:
    """The seed-3 digraph with the cost-raising 7 -> 0, then an edge to node 16."""
    doc = _seed_3_digraph()
    doc["edges"] += [[7, 0], [0, 16]]
    return doc


def _true_end_digraph() -> dict:
    """The seed-3 digraph with an edge from node ``true``."""
    doc = _seed_3_digraph()
    doc["edges"].append([True, 0])
    return doc


def _triple_digraph() -> dict:
    """The seed-3 digraph with the three-element pair [0, 7, 8]."""
    doc = _seed_3_digraph()
    doc["edges"].append([0, 7, 8])
    return doc


# The digraph files, by the name of the file each is written to.
DIGRAPHS = {
    "unsorted": _unsorted_digraph,
    "two-raising": _two_raising_digraph,
    "raising-then-out-of-range": _raising_then_out_of_range_digraph,
    "true-end": _true_end_digraph,
    "triple": _triple_digraph,
    "one-cost": lambda: {"n": 10**12, "edges": [[0, 0]], "costs": [0]},
}


def _false_leaf_d3() -> dict:
    """D3 with its leaf (2,1,0) pointing at 0*1 = 1, which is false, not at 1*0 = 0."""
    doc = full_form(derivation_to_json(d3()))
    leaf = doc["nodes"][-2]
    assert leaf["path"] == [2, 1, 0] and leaf["rule"] == {"tag": "initial", "index": 3}
    leaf["rule"]["index"] = 2
    return doc


def _broken_upper_d2() -> dict:
    """D2 with its upper sequent (1,0) adding 1+1 = 2, not the instance 2 = 1+1.

    The leaf's literal still holds; only the upper sequent is wrong.
    """
    doc = full_form(derivation_to_json(d2()))
    lit = doc["nodes"][3]["sequent"][2]
    assert doc["nodes"][3]["path"] == [1, 0] and lit["lhs"] == {"num": 2}
    lit["lhs"], lit["rhs"] = lit["rhs"], lit["lhs"]
    return doc


# The derivations that break a mode besides failing validation, by the
# name of the file each is written to: the mode they run in, and their builder.
MODE_BREAKS = {
    "d3-false-leaf": ("pls", _false_leaf_d3),
    "d2-broken-upper": ("npls", _broken_upper_d2),
}


def _write_inputs(tmp: Path) -> None:
    for name, derivation in (
        ("sigma1-3.json", random_sigma1_derivation(3)),
        ("sigma2-12.json", random_sigma2_derivation(12)),
    ):
        (tmp / name).write_text(dumps(derivation_to_json(derivation)), encoding="utf-8")
    for rank, seed in FAMILIES:
        doc = family_to_json(generate_family(seed, rank, WIDTH))
        (tmp / f"family-{rank}-{seed}.json").write_text(dumps(doc), encoding="utf-8")
    for name, build in BROKEN.items():
        (tmp / f"family-{name}.json").write_text(dumps(build()), encoding="utf-8")
    for name, build in BROKEN_TEMPLATES.items():
        (tmp / f"template-{name}.json").write_text(dumps(build()), encoding="utf-8")
    for name, build in REPEATS.items():
        text = json.dumps(build(), separators=(",", ":"))
        (tmp / f"derivation-{name}.json").write_text(text, encoding="utf-8")
    for name, build in DIGRAPHS.items():
        (tmp / f"digraph-{name}.json").write_text(dumps(build()), encoding="utf-8")
    for name, (_, build) in MODE_BREAKS.items():
        (tmp / f"derivation-{name}.json").write_text(dumps(build()), encoding="utf-8")


def _run(argv: list[str], tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.replace(TMP, str(tmp)) for a in argv])
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), TMP),
        "stderr": err.getvalue().replace(str(tmp), TMP),
    }


def _records(tmp: Path) -> list[dict]:
    _write_inputs(tmp)
    return [_run(argv, tmp) for argv in _argvs()]


def test_cli_runs_match_the_pinned_records(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _records(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in pinned]
    for record, expected in zip(got, pinned):
        assert record == expected, record["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = _records(Path(tmp))
    # One record per line, so a regeneration diffs record by record.
    lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
