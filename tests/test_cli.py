from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import npls.cli
import npls.derivation
import npls.extraction
import npls.search_core
from npls.cli import main
from npls.corpus import FIXTURES, d2, random_sigma1_derivation, random_sigma2_derivation, t_d3
from npls.derivation import (
    MODE_PLS,
    CutRule,
    DerivationTemplate,
    ExistsForallRule,
    ExistsRule,
    FamilySpec,
    InitialRule,
    ProofNode,
    TemplateNode,
    expand_template,
    validate,
)
from npls.errors import FormatError, ModeError, ValidationFailed
from npls.extraction import ExtractionContext
from npls.serialization import (
    derivation_from_json,
    derivation_to_json,
    document_to_json,
    dumps,
    template_to_json,
)
from npls.terms import ExistsForall, ExistsLit, LitFormula, Literal, num, smash, var

from derivation_helpers import given_nodes
from test_cli_golden import full_form
from test_derivation import _root_only


def _lines(capsys):
    out = capsys.readouterr().out
    return out.splitlines()


def test_validate_fixture_by_name(capsys):
    assert main(["validate", "D2"]) == 0
    assert _lines(capsys) == ["ok mode=pls"]
    assert main(["validate", "D3"]) == 0
    assert _lines(capsys) == ["ok mode=npls"]


def test_package_runs_as_a_module():
    # The same command line without an installed ``npls`` script, through ``cli.entry``.
    src = str(Path(npls.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    missing = "error: no file or fixture named 'no-such-fixture'\n"
    for argv, expected in (
        (["validate", "D2"], (0, "ok mode=pls\n", "")),
        (["validate", "no-such-fixture"], (2, "", missing)),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "npls", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == expected, argv


def test_validate_expands_templates(capsys):
    assert main(["validate", "T-D3", "--x", "4"]) == 0
    assert _lines(capsys) == ["ok mode=npls"]


def _broken_d2_file(tmp_path):
    d = d2()
    nodes = given_nodes(d)
    seq = tuple(
        LitFormula(f.lit.negate()) if isinstance(f, LitFormula) else f
        for f in nodes[(0,)].sequent
    )
    nodes[(0,)] = ProofNode(seq, nodes[(0,)].rule)
    bad = type(d)(d.end_x, nodes)
    path = tmp_path / "bad.json"
    path.write_text(dumps(derivation_to_json(bad)), encoding="utf-8")
    return path


def test_validate_flags_mutations_with_the_node_path(tmp_path, capsys):
    path = _broken_d2_file(tmp_path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "(0)" in out


def test_validate_machine_format(tmp_path, capsys):
    path = _broken_d2_file(tmp_path)
    assert main(["validate", str(path), "--format", "machine"]) == 1
    records = [json.loads(line) for line in _lines(capsys)]
    assert records[-1]["ok"] is False
    assert any(r.get("path") == [0] for r in records[:-1])


def test_parse_failure_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_integer_longer_than_the_int_string_limit_exits_two(tmp_path, capsys):
    # Python refuses to convert integer literals over 4,300 digits; the
    # ValueError json.loads raises for it is not a JSONDecodeError.
    path = tmp_path / "long.json"
    path.write_text('{"end_x": ' + "9" * 5000 + ', "nodes": []}', encoding="utf-8")
    for command in ("validate", "extract", "verify"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not valid JSON"), command
        assert captured.out == "", command


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "edges": [], "costs": [0], "note": "caf\xe9"}')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not UTF-8" in err[0]


def test_missing_input_exits_two(capsys):
    assert main(["validate", "no-such-fixture"]) == 2
    assert "no file or fixture" in capsys.readouterr().err


def test_fixture_directory_override(tmp_path, monkeypatch, capsys):
    (tmp_path / "mine.json").write_text(
        dumps(derivation_to_json(d2())), encoding="utf-8"
    )
    monkeypatch.setenv("NPLS_FIXTURES", str(tmp_path))
    assert main(["validate", "mine"]) == 0
    assert _lines(capsys) == ["ok mode=pls"]


def _t_d3_file(tmp_path, family_witness=2):
    obj = template_to_json(t_d3())
    # The family schema proves the end-formula with witness 2; any other
    # witness breaks the upper sequent of every value-indexed cut upper.
    obj["root"]["family"]["body"]["rule"]["witness"] = {"num": family_witness}
    path = tmp_path / "t-d3.json"
    path.write_text(dumps(obj), encoding="utf-8")
    return path


def _counting_validate(monkeypatch):
    calls = []
    real = npls.derivation.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (npls.derivation, npls.cli, npls.extraction):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def test_template_commands_validate_the_expansion_once(tmp_path, monkeypatch, capsys):
    path = _t_d3_file(tmp_path)
    calls = _counting_validate(monkeypatch)
    for command in ("validate", "extract"):
        calls.clear()
        assert main([command, str(path), "--x", "5"]) == 0, command
        assert len(calls) == 1, command


def test_commands_number_the_nodes_once(monkeypatch, capsys):
    # Validation numbers the nodes, and extraction reads its numbering.
    calls = []
    real = npls.derivation.postorder_index

    def counting(paths):
        calls.append(paths)
        return real(paths)

    monkeypatch.setattr(npls.derivation, "postorder_index", counting)
    for argv in (["validate", "T-D3", "--x", "50"], ["extract", "D3"]):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == 1, argv


def test_invalid_template_expansion_lists_node_paths(tmp_path, monkeypatch, capsys):
    path = _t_d3_file(tmp_path, family_witness=1)
    calls = _counting_validate(monkeypatch)
    assert main(["validate", str(path), "--x", "1"]) == 1
    assert len(calls) == 1
    mismatch = "upper sequent mismatch: missing 1 formula(s), 1 unexpected formula(s)"
    assert _lines(capsys) == [f"({i},0): {mismatch}" for i in range(3)]
    assert main(["extract", str(path), "--x", "1"]) == 1
    assert "ValidationFailed" in capsys.readouterr().err


def test_extract_d3(capsys):
    assert main(["extract", "D3"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "witness=2 verified=true"
    assert lines[1] == "solution=(1)"
    assert lines[2] == "steps=10"


def test_extract_d2(capsys):
    assert main(["extract", "D2", "--mode", "pls"]) == 0
    assert _lines(capsys)[0] == "witness=2 verified=true"


def test_plain_extraction_runs_the_nested_search_and_reads_its_goal_by_id(monkeypatch, capsys):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in ((npls.search_core, "solve_pls"), (npls.extraction, "rightmost_goal")):
        fn = getattr(module, name)
        for binder in (npls, npls.cli, npls.extraction, npls.search_core):
            if getattr(binder, name, None) is fn:
                monkeypatch.setattr(binder, name, counted(name, fn))
    assert main(["extract", "D2"]) == 0
    assert _lines(capsys) == ["witness=2 verified=true", "solution=(1)", "steps=2"]
    assert calls == []
    # The counters do count: the path-level step walks to its goal.
    ctx = ExtractionContext(d2(), MODE_PLS)
    npls.search_core.solve_pls(npls.extraction.build_pls(ctx))
    npls.extraction.pls_neighbor(ctx, ())
    assert calls == ["solve_pls", "rightmost_goal"]


def test_extract_rejects_a_mode_mismatch(capsys):
    assert main(["extract", "D3", "--mode", "pls"]) == 1
    assert "ModeError" in capsys.readouterr().err


def test_extract_machine_format(capsys):
    assert main(["extract", "D3", "--format", "machine"]) == 0
    record = json.loads(_lines(capsys)[0])
    assert record == {"witness": 2, "verified": True, "solution": [1], "steps": 10}


def test_solve_digraph(capsys):
    assert main(["solve", "G1"]) == 0
    lines = _lines(capsys)
    assert lines[-1] == "solution=5 steps=3"


def test_solve_digraph_machine_output_is_pinned(capsys):
    assert main(["solve", "G1", "--format", "machine"]) == 0
    assert capsys.readouterr().out == (
        '{"action":"init-target","cost":5,"rank":0,"source":0,"target":0}\n'
        '{"action":"rank0-step","cost":4,"rank":0,"source":0,"target":1}\n'
        '{"action":"solved","cost":0,"rank":0,"source":0,"target":5}\n'
        '{"solution":5,"steps":3}\n'
    )


def test_parser_is_reused_without_carrying_option_values(capsys):
    assert main(["solve", "G1", "--format", "machine"]) == 0
    assert capsys.readouterr().out.endswith('{"solution":5,"steps":3}\n')
    assert main(["solve", "G1"]) == 0
    assert _lines(capsys)[-1] == "solution=5 steps=3"
    assert npls.cli._build_parser() is npls.cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "G1"])
    assert exc.value.code == 2


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    # The parser is kept for the whole process, so the cycle collector
    # runs less often; a command that left a cycle behind would keep its
    # derivation or instance alive until it does.
    from npls.corpus import ng2
    from npls.serialization import family_to_json

    path = tmp_path / "ng2.json"
    path.write_text(dumps(family_to_json(ng2())), encoding="utf-8")
    commands = (
        ["validate", "T-D3", "--x", "20"],
        ["extract", "T-D3", "--x", "20"],
        ["solve", "D3"],
        ["solve", str(path)],
        ["verify", str(path)],
    )
    assert main(["validate", "D2"]) == 0  # builds the parser
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert main(argv) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_family_files_build_no_family_objects(rank, tmp_path, monkeypatch, capsys):
    from npls.nested_graph import NestedGraphFamily, generate_family
    from npls.serialization import family_to_json

    path = tmp_path / f"family-{rank}.json"
    path.write_text(dumps(family_to_json(generate_family(rank, rank, 4))), encoding="utf-8")
    built = []
    init = NestedGraphFamily.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NestedGraphFamily, "__init__", counted)
    assert main(["solve", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert built == []
    # The counter does count: a fixture family is built as objects.
    assert main(["solve", "NG2"]) == 0
    assert built


def test_verify_family_machine_output_is_pinned(capsys):
    assert main(["verify", "NG2", "--format", "machine"]) == 0
    assert capsys.readouterr().out == (
        '{"counterexample":null,"detail":"","name":"bit_bound","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"gen_source_closure","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"neighbor_domain","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"rank0_function","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"rank_descent","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"extract_lift","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"initial_source","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"initial_target","passed":true}\n'
        '{"counterexample":null,"detail":"","name":"cost_decrease","passed":true}\n'
        '{"ok":true}\n'
    )


def test_solve_rejects_a_digraph_edge_that_does_not_decrease_cost(tmp_path, capsys):
    path = tmp_path / "uphill.json"
    path.write_text('{"costs":[0,1],"edges":[[0,1]],"n":2}', encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "CostConditionViolated" in capsys.readouterr().err


def _deep_witness_file(tmp_path, depth):
    obj = derivation_to_json(d2())
    rule = next(n["rule"] for n in obj["nodes"] if "witness" in n["rule"])
    inner = dumps(rule["witness"])
    rule["witness"] = "WITNESS"
    deep = '{"op":"div2","args":[' * depth + inner + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(dumps(obj).replace('"WITNESS"', deep), encoding="utf-8")
    return path


def test_deeply_nested_witness_term_exits_two(tmp_path, capsys):
    # 3000 nested div2 terms lie far beyond the interpreter's recursion
    # limit; the file is malformed input, not a crash.
    path = _deep_witness_file(tmp_path, 3000)
    for command in ("validate", "extract"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), command
        assert captured.out == "", command


def test_witness_term_deeper_than_the_decoder_limit_exits_two(tmp_path, capsys):
    # These lie below the JSON parser's recursion limit, so only the
    # decoder's depth cap stops them before validation hashes the term
    # recursively.
    for depth in (300, 450, 490):
        path = _deep_witness_file(tmp_path, depth)
        for command in ("validate", "extract"):
            assert main([command, str(path)]) == 2, (depth, command)
            captured = capsys.readouterr()
            assert captured.err.startswith("error: "), (depth, command)
            assert captured.out == "", (depth, command)


def test_solve_family_and_derivation(capsys):
    assert main(["solve", "NG2"]) == 0
    assert "solution=" in _lines(capsys)[-1]
    assert main(["solve", "D3"]) == 0
    assert _lines(capsys)[-1].startswith("solution=3 ")


def test_verify_fixture_instances(capsys):
    assert main(["verify", "D3"]) == 0
    lines = _lines(capsys)
    assert len(lines) == 9
    assert all("pass" in line for line in lines)
    assert main(["verify", "NG2"]) == 0


def test_verify_checks_plain_derivations(capsys):
    for name in ("D1", "D2"):
        assert main(["verify", name]) == 0
        lines = _lines(capsys)
        assert len(lines) == 9
        assert all(line.endswith(" pass") for line in lines)


def _digraph_file(tmp_path, text):
    path = tmp_path / "digraph.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_verify_rejects_a_digraph_that_solve_rejects(tmp_path, capsys):
    # The edge 0 -> 1 does not decrease the cost; descent would ignore it.
    path = _digraph_file(tmp_path, '{"costs":[1,1],"edges":[[0,1],[1,1]],"n":2}')
    for command in ("solve", "verify"):
        assert main([command, path]) == 1
        assert "CostConditionViolated" in capsys.readouterr().err


def test_verify_accepts_a_digraph_that_solve_accepts(tmp_path, capsys):
    # Node 1 has no outgoing edge; as a sink it is a fixed point of descent.
    path = _digraph_file(tmp_path, '{"costs":[1,0],"edges":[[0,1]],"n":2}')
    assert main(["solve", path]) == 0
    assert _lines(capsys)[-1] == "solution=1 steps=2"
    assert main(["verify", path]) == 0
    assert all(line.endswith(" pass") for line in _lines(capsys))


def test_solve_descends_a_rank0_row_with_negative_costs(tmp_path, capsys):
    from npls.nested_graph import DigraphTable, NestedGraphFamily
    from npls.serialization import family_to_json

    # Node 0 of the top problem is backed by a rank-0 chain 0 -> 1 -> 2
    # whose costs are all negative; strict decrease still ends the walk.
    child = NestedGraphFamily(DigraphTable(3, [[0, 1], [1, 2], [2, 2]], [-1, -2, -3]), 0)
    top = NestedGraphFamily(DigraphTable(2, [[0, 1], [1, 1]], [1, 0]), 1, {0: child}, {(0, 2): 1})
    path = tmp_path / "negative.json"
    path.write_text(dumps(family_to_json(top)), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert all(line.endswith(" pass") for line in _lines(capsys))
    assert main(["solve", str(path)]) == 0
    lines = _lines(capsys)
    assert [line.split()[-1] for line in lines[2:5]] == ["cost=-1", "cost=-2", "cost=-3"]
    assert lines[-1] == "solution=1 steps=7"
    assert main(["solve", str(path), "--format", "machine"]) == 0
    lines = _lines(capsys)
    assert lines[2:5] == [
        '{"action":"init-target","cost":-1,"rank":0,"source":1,"target":4}',
        '{"action":"rank0-step","cost":-2,"rank":0,"source":1,"target":5}',
        '{"action":"solved","cost":-3,"rank":0,"source":1,"target":6}',
    ]
    assert lines[-1] == '{"solution":1,"steps":7}'


# Chain costs: negative, zero, or above 2^63, where a machine record
# could part from the encoder if it rendered a cost any other way.
_CHAIN_COSTS = st.one_of(st.integers(max_value=-1), st.just(0), st.integers(min_value=2**63 + 1))


@settings(max_examples=100, deadline=None)
@given(st.sets(_CHAIN_COSTS, max_size=40), st.booleans(), st.integers(0, 10**6))
def test_machine_solve_records_are_the_encoder_bytes(tmp_path_factory, costs, head, offset):
    from npls.nested_graph import DigraphTable, pls_from_digraph
    from npls.search_core import solve_npls
    from npls.serialization import digraph_to_json

    # A chain 0 -> 1 -> ... whose costs descend, with one 4,000-digit cost
    # at its start or, negated, at its sink.
    long_cost = 10**3999 + offset
    costs = sorted(costs | {long_cost if head else -long_cost}, reverse=True)
    n = len(costs)
    g = DigraphTable(n, [[i, min(i + 1, n - 1)] for i in range(n)], costs)
    path = tmp_path_factory.getbasetemp() / "chain.json"
    path.write_text(dumps(digraph_to_json(g)), encoding="utf-8")
    solution, trace = solve_npls(pls_from_digraph(g))
    records = [dumps(s._asdict()) for s in trace.steps]
    records.append(dumps({"solution": solution, "steps": trace.step_count}))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["solve", str(path), "--format", "machine"]) == 0
    assert out.getvalue() == "".join(r + "\n" for r in records)


# Costs near 0 tie often; costs past 2**63 take the long-int paths.
_DIGRAPH_COSTS = st.one_of(st.integers(0, 3), st.integers(2**63, 2**63 + 3))


@st.composite
def _conforming_digraphs(draw) -> dict:
    """A small digraph file whose pairs are unsorted and may repeat.

    Every pair is a self-loop or lowers the cost; a node with no pair is
    a sink without a loop.
    """
    n = draw(st.integers(1, 6))
    costs = draw(st.lists(_DIGRAPH_COSTS, min_size=n, max_size=n))
    allowed = [[s, t] for s in range(n) for t in range(n) if s == t or costs[t] < costs[s]]
    edges = draw(st.lists(st.sampled_from(allowed), max_size=12))
    return {"n": n, "edges": edges, "costs": costs}


def _object_outcome(doc: dict) -> tuple[int, str]:
    """Exit code and stderr of the item walk, then the cost check: no whole-document pass."""
    from npls import serialization
    from npls.errors import NplsError
    from npls.nested_graph import check_cost_condition

    try:
        check_cost_condition(serialization._digraph_walk(doc, "digraph"))
    except FormatError as exc:
        return 2, f"error: {exc}\n"
    except NplsError as exc:
        return 1, f"error: {type(exc).__name__}: {exc}\n"
    return 0, ""


@settings(max_examples=200, deadline=None)
@given(_conforming_digraphs())
def test_a_digraph_walk_gives_the_table_of_the_whole_document_pass(doc):
    from npls import serialization
    from npls.nested_graph import DigraphTable, descent_steps, pls_from_digraph

    table = serialization.loads_document(dumps(doc))
    assert table == DigraphTable(doc["n"], doc["edges"], doc["costs"])
    assert serialization._digraph_at_once(doc) == table
    assert serialization._digraph_walk(doc, "digraph") == table
    # The one row lists each node's descent step: its least-id strictly cheaper successor.
    costs = doc["costs"]
    step = [
        min((t for s, t in doc["edges"] if s == v and costs[t] < costs[v]), default=v)
        for v in range(doc["n"])
    ]
    assert descent_steps(table) == step
    inst = pls_from_digraph(table)
    assert inst.row(0) == {v: [t] for v, t in enumerate(step)}
    assert [inst.cost(v) for v in range(doc["n"])] == costs


_BAD_ENDS = st.sampled_from([True, False, 1.0, "0", None, [0], -1, 6, 2**64])
_BAD_PAIRS = st.sampled_from([[], [0], [0, 0, 0], "00", {}, 0, None])


@st.composite
def _mutated_digraphs(draw) -> dict:
    """A conforming digraph file with one to three defects, in any order."""
    doc = draw(_conforming_digraphs())
    n, edges, costs = doc["n"], [*doc["edges"]], [*doc["costs"]]
    kinds = st.lists(st.sampled_from(["end", "pair", "raise", "costs"]), min_size=1, max_size=3)
    for kind in draw(kinds):
        at = draw(st.integers(0, len(edges)))
        if kind == "end":
            pair = [draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
            pair[draw(st.integers(0, 1))] = draw(_BAD_ENDS)
            edges.insert(at, pair)
        elif kind == "pair":
            edges.insert(at, draw(_BAD_PAIRS))
        elif kind == "raise" and n > 1:
            s, t = draw(st.permutations(range(n)))[:2]
            raising = doc["costs"][s] <= doc["costs"][t]
            edges.insert(at, [s, t] if raising else [t, s])
        elif kind == "costs":
            costs = draw(st.sampled_from([costs[:-1], costs[:-1] + [0.0], costs[:-1] + [True]]))
    return {"n": n, "edges": edges, "costs": costs}


@settings(max_examples=300, deadline=None)
@given(_mutated_digraphs())
def test_a_mutated_digraph_file_fails_as_the_object_path_does(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated-digraph.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, message = _object_outcome(doc)
    event(f"exit {code}")
    for command in ("solve", "verify"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            got = main([command, str(path)])
        # The object path fails or succeeds here; verify may still fail a condition.
        assert (got if code else 0, err.getvalue()) == (code, message), command


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_fixture_runs_as_the_file_of_its_encoding_does(name, tmp_path):
    """A fixture, built as objects, and its file, decoded to a table, give the same run.

    Every command, mode, ``--x`` and format gives the same exit code,
    stdout and stderr on both, with the file's path masked.
    """
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(document_to_json(FIXTURES[name]())), encoding="utf-8")
    for command, mode, x, output in product(
        ("validate", "extract", "solve", "verify"),
        ("auto", "pls", "npls"),
        ("0", "3", "7"),
        ("text", "machine"),
    ):
        options = ["--mode", mode, "--x", x, "--format", output]
        code, *streams = _run([command, str(path), *options])
        masked = (code, *(text.replace(str(path), "<input>") for text in streams))
        assert _run([command, name, *options]) == masked, (command, *options)


def test_verify_reports_corrupted_costs(tmp_path, capsys):
    from npls.corpus import ng2
    from npls.nested_graph import DigraphTable, NestedGraphFamily
    from npls.serialization import family_to_json

    fam = ng2()
    costs = list(fam.graph.costs)
    costs[costs.index(0)] = 99
    bad = NestedGraphFamily(
        DigraphTable(fam.graph.n_nodes, fam.graph.edges, costs),
        fam.rank,
        fam.children,
        fam.solution_to_edge,
    )
    path = tmp_path / "bad-family.json"
    path.write_text(dumps(family_to_json(bad)), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert any("cost_decrease" in line and "FAIL" in line for line in out.splitlines())


def test_gen_graph_is_deterministic(capsys):
    assert main(["gen-graph", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen-graph", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen-graph", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


# sha256 of ``gen-graph`` stdout by (--max-width, --max-rank, --seed);
# width None is the default width.
_GEN_GRAPH_SHA256 = {
    (None, 0, 1): "e11eb74b3fd3f1609f1a6764b3e820ee31ecc1146b71be01e5d2f8afd64ce993",
    (None, 0, 2): "a1791b11a1e0e72d2b1670ce6bbce09a499ac3e5a29aba9a3118521ef528c192",
    (None, 0, 3): "54c1b99f232dfd11f3e722ad0aaba5ea5f060a277155080b7e4267a474c438dd",
    (None, 2, 1): "eb22793725f566b3a690b0fa4b2fe0e559f8fe68a9aee3e78a3491cd60d7e332",
    (None, 2, 2): "0fadc722a84d6ac7fbfe54ac769af8d87403685328a1df38e10c04e966217ec4",
    (None, 2, 3): "704bef2a613675885be3b7294875478383cf9b211583e25ae3fe9f391b6dba83",
    (None, 4, 1): "40af6991e9a610c88b8770724191e8b2423b75001f989f80819f55488fac0ee1",
    (None, 4, 2): "724675aba2a6db51ee85a9d4ca3a788d7f09cbe61d068fd1d91e3da34c472424",
    (None, 4, 3): "a4b8b124e2aeef07e865e05abe7078b15dca9ea7fc688aa2c4f1b7135a205824",
    (8, 0, 1): "04eb270c1cf34a01276150ec5bfbc510bb31a8234faf9bfa8e78561d9eb150e6",
    (8, 0, 2): "3e1de756f0db5159a9d7cb9abfc6c942500b99f1756442502adc001c8ab1e4f7",
    (8, 0, 3): "8b2dbe04031d254d9958047c17041365bb37e2ca77474796ee1635a7a47728f9",
    (8, 2, 1): "4062ce1ffaa1cd714f56242fdbef354098b694489ec5b1b0f09eabb5d0ad316a",
    (8, 2, 2): "4f3cc4ef6f5c0736084192cdf05176cafdcad16be353d3401eac60901ae4b1af",
    (8, 2, 3): "1d332b1a5812d463b38bb3efdd242aa86a031eb8c0dc28dee603cb5512b37e31",
    (8, 4, 1): "ad3401f35996adcf7e7a5e9bb645e77c01e26cc27b93f20527aaa38d7aa051cd",
    (8, 4, 2): "8e0d9403ca135af8a3f03733fcf2205cdeb4a6cf685709a6981e9ea40194cd37",
    (8, 4, 3): "e83f492e516094f3b4aaffd237f4acab8337256fa96b2ef27ed3c346a493a957",
}


@pytest.mark.parametrize("width, rank, seed", sorted(_GEN_GRAPH_SHA256, key=str))
def test_gen_graph_prints_pinned_bytes(width, rank, seed):
    argv = ["gen-graph", "--seed", str(seed), "--max-rank", str(rank)]
    if width is not None:
        argv += ["--max-width", str(width)]
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _GEN_GRAPH_SHA256[width, rank, seed]


def test_gen_graph_rank0_writes_a_plain_digraph(capsys):
    assert main(["gen-graph", "--seed", "3", "--max-rank", "0"]) == 0
    record = json.loads(_lines(capsys)[0])
    assert set(record) == {"n", "edges", "costs"}


def test_gen_graph_out_file(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert main(["gen-graph", "--seed", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["validate", "D2", "--out", str(tmp_path / "v.txt")]) == 0
    text = out.read_text(encoding="utf-8")
    assert json.loads(text)["rank"] == 2


def test_unwritable_out_file_exits_two(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "family.json"
    assert main(["gen-graph", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_generated_file_round_trips_through_solve(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert main(["gen-graph", "--seed", "5", "--out", str(out)]) == 0
    assert main(["solve", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_negative_arguments_are_rejected(capsys):
    assert main(["validate", "D2", "--x", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-graph", "--max-rank", "9"],
        ["gen-graph", "--max-rank", "-1"],
        ["gen-graph", "--max-width", "0"],
        ["gen-graph", "--max-width", "17"],
        ["solve", "G1", "--max-steps", "-1"],
    ],
)
def test_out_of_range_arguments_are_rejected(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NplsError: --max-")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "D2", "--max-rank", "9"],
        ["verify", "G1", "--seed", "-1"],
        ["gen-graph", "--x", "-1"],
        ["validate", "D2", "--max-steps", "5"],
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(argv, capsys):
    # Each command takes only its own options, so none fails or is
    # silently ignored on another's; the test above range-checks its own.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Contract fuzz: one leaf replaced or one key deleted, four commands.


@cache
def _fuzz_documents():
    """The fixtures and two random derivations; each derivation in compact and in full form."""
    names = ("D1", "D2", "D3", "T-D2", "T-D3", "G1", "NG2")
    docs = [document_to_json(FIXTURES[name]()) for name in names]
    docs.append(derivation_to_json(random_sigma1_derivation(3)))
    docs.append(derivation_to_json(random_sigma2_derivation(12)))
    docs += [full_form(doc) for doc in docs if "end_x" in doc]
    return docs


def _edit_points(obj, at=()):
    """Paths to every leaf (scalars and empty containers) and to every dict key."""
    leaves, keys = [], []
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            keys.append(at + (key,))
            sub_leaves, sub_keys = _edit_points(value, at + (key,))
            leaves += sub_leaves
            keys += sub_keys
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            sub_leaves, sub_keys = _edit_points(value, at + (i,))
            leaves += sub_leaves
            keys += sub_keys
    else:
        leaves.append(at)
    return leaves, keys


def _edited(obj, at, leaf=None, delete=False):
    head, rest = at[0], at[1:]
    if rest:
        value = _edited(obj[head], rest, leaf, delete)
    elif delete:
        return {k: v for k, v in obj.items() if k != head}
    else:
        value = leaf
    if isinstance(obj, dict):
        return {**obj, head: value}
    return [*obj[:head], value, *obj[head + 1 :]]


# Ints stay small: expanding a template has no node budget.
_FUZZ_LEAVES = st.sampled_from([True, False, None, *range(9), "", "x", 1.5, [], {}])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 13), st.booleans(), st.integers(0), _FUZZ_LEAVES)
def test_mutated_documents_exit_with_a_documented_code(tmp_path_factory, which, delete, pick, leaf):
    doc = _fuzz_documents()[which]
    leaves, keys = _edit_points(doc)
    if delete:
        mutated = _edited(doc, keys[pick % len(keys)], delete=True)
    else:
        mutated = _edited(doc, leaves[pick % len(leaves)], leaf)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(mutated), encoding="utf-8")
    for command in ("validate", "extract", "solve", "verify"):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, str(path), "--format", "machine"])
        assert code in (0, 1, 2), command
        event(f"{command} exits {code}")


# Omitted sequents that do not follow from the parent's rule.


def _d2_with(edit):
    """D2 as its compact document, edited in place by ``edit``.

    Its nodes are the root cut (0), the initial leaf (0) (1), the
    existential rule (1) on the end-formula (2) with its leaf (1,0) (3),
    and the existential rule (2) on the cut formula (4) with its leaf (5).
    Only the root states its sequent.
    """
    doc = derivation_to_json(d2())
    assert [n["path"] for n in doc["nodes"]] == [[], [0], [1], [1, 0], [2], [2, 0]]
    assert [("sequent" in n) for n in doc["nodes"]] == [True] + [False] * 5
    edit(doc)
    return doc


_INITIAL = {"tag": "initial", "index": 0}
_NOT_DERIVED = "the sequent is omitted and does not follow from the parent's rule"


def _set_rule(i, key, value):
    return lambda doc: doc["nodes"][i]["rule"].__setitem__(key, value)


def _div2s(obj, depth):
    for _ in range(depth):
        obj = {"op": "div2", "args": [obj]}
    return obj


def _deep_instance(doc):
    """A root whose existential rule puts a 256-deep witness into a 256-deep body.

    Each term is within the depth cap, and the instance at the leaf,
    which is true, nests 512 operations deep.
    """
    body = {"neg": False, "lhs": _div2s({"var": "v"}, 256), "rhs": {"num": 0}}
    doc["nodes"] = [
        {
            "path": [],
            "rule": {"tag": "exists", "principal": 0, "witness": _div2s({"num": 0}, 256)},
            "sequent": [{"ex": {"v": "v", "bound": {"num": 1}, "body": body}}],
        },
        {"path": [0], "rule": {"tag": "initial", "index": 1}},
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["nodes"].append({"path": [0, 0], "rule": _INITIAL}),
            f"derivation.nodes[6]: {_NOT_DERIVED}",
        ),
        (
            lambda doc: doc["nodes"].append({"path": [1, 1], "rule": _INITIAL}),
            f"derivation.nodes[6]: {_NOT_DERIVED}",
        ),
        (_set_rule(2, "principal", 2), f"derivation.nodes[3]: {_NOT_DERIVED}"),
        (_set_rule(2, "principal", 1), f"derivation.nodes[3]: {_NOT_DERIVED}"),
        (
            _set_rule(0, "formula", {"neg": False, "lhs": {"num": 0}, "rhs": {"num": 0}}),
            f"derivation.nodes[1]: {_NOT_DERIVED}",
        ),
        (
            lambda doc: doc["nodes"].pop(2),
            "derivation.nodes[2]: the sequent is omitted and the node has no parent",
        ),
        (
            lambda doc: doc["nodes"][0].pop("sequent"),
            "derivation.nodes[0]: the root states its sequent",
        ),
        (_deep_instance, "derivation.nodes[1]: term nests more than 256 operations"),
    ],
    ids=[
        "under an initial rule",
        "existential child 1",
        "principal out of range",
        "principal of the wrong shape",
        "cut on a literal",
        "missing parent",
        "root",
        "instance too deep",
    ],
)
def test_an_omitted_sequent_that_does_not_follow_exits_two(tmp_path, capsys, edit, message):
    path = tmp_path / "d.json"
    path.write_text(dumps(_d2_with(edit)), encoding="utf-8")
    for command in ("validate", "extract", "solve", "verify"):
        assert main([command, str(path), "--format", "machine"]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), command


def _deep_witness_document(body_lhs, leaf_sequent=None):
    """A root whose existential rule puts a 256-deep witness into ``body_lhs`` = 0.

    The leaf states ``leaf_sequent`` when one is given and closes on its
    formula 1.
    """
    body = {"neg": False, "lhs": body_lhs, "rhs": {"num": 0}}
    leaf = {"path": [0], "rule": {"tag": "initial", "index": 1}}
    if leaf_sequent is not None:
        leaf["sequent"] = leaf_sequent
    root = {
        "path": [],
        "rule": {"tag": "exists", "principal": 0, "witness": _div2s({"num": 0}, 256)},
        "sequent": [{"ex": {"v": "v", "bound": {"num": 1}, "body": body}}],
    }
    return {"end_x": 0, "nodes": [root, leaf]}


def _run_each(tmp_path, capsys, doc, commands=("validate", "extract")):
    path = tmp_path / "d.json"
    path.write_text(dumps(doc), encoding="utf-8")
    got = {}
    for command in commands:
        for fmt in ("text", "machine"):
            code = main([command, str(path), "--format", fmt])
            got[command, fmt] = (code, *capsys.readouterr())
    return got


def test_a_stated_instance_with_an_equal_deep_witness_runs_as_its_compact_form(
    tmp_path, capsys
):
    # The leaf states the instance with its own copy of the witness:
    # equal to the rule's, 256 operations deep, and a distinct object.
    # Comparing the two with dataclass == passes the recursion limit.
    compact = _deep_witness_document({"var": "v"})
    instance = {"neg": False, "lhs": _div2s({"num": 0}, 256), "rhs": {"num": 0}}
    full = _deep_witness_document({"var": "v"}, [compact["nodes"][0]["sequent"][0], instance])
    want = _run_each(tmp_path, capsys, compact)
    assert want["validate", "text"][:2] == (0, "ok mode=pls\n")
    assert want["extract", "text"][0] == 0
    assert _run_each(tmp_path, capsys, full) == want


def test_a_stated_deep_instance_encodes_to_its_compact_form(tmp_path, capsys):
    # In memory, the leaf's instance is its own object, equal to the one
    # the encoder builds from the rule's 256-deep witness; comparing the
    # two with dataclass == passes the recursion limit.
    compact = _deep_witness_document({"var": "v"})
    instance = {"neg": False, "lhs": _div2s({"num": 0}, 256), "rhs": {"num": 0}}
    full = _deep_witness_document({"var": "v"}, [compact["nodes"][0]["sequent"][0], instance])
    d = derivation_from_json(full)
    assert validate(d, MODE_PLS).ok
    doc = derivation_to_json(d)
    assert dumps(doc) == dumps(compact)
    assert dumps(derivation_to_json(derivation_from_json(doc))) == dumps(doc)
    assert _run_each(tmp_path, capsys, doc) == _run_each(tmp_path, capsys, compact)


def test_a_built_instance_past_the_depth_cap_is_a_validation_issue(tmp_path, capsys):
    # A 256-deep body variable and a 256-deep witness make a 512-deep
    # instance; the leaf states another sequent, so validation builds it.
    lhs = _div2s({"var": "v"}, 256)
    root = _deep_witness_document(lhs)["nodes"][0]
    zero = {"neg": False, "lhs": {"num": 0}, "rhs": {"num": 0}}
    doc = _deep_witness_document(lhs, [root["sequent"][0], zero])
    got = _run_each(tmp_path, capsys, doc)
    issue = "(0): added formula nests more than 256 operations"
    assert got["validate", "text"] == (1, f"{issue}\n", "")
    assert got["extract", "text"] == (1, "", f"error: ValidationFailed: derivation is invalid: {issue}\n")
    for command in ("validate", "extract"):
        assert "Traceback" not in got[command, "machine"][2], command
        assert got[command, "machine"][0] == 1, command


# Values that do not evaluate, and inputs that never reach validation.

# Its value would be 2**(9*9), past the 64-bit cap.
_HUGE = smash(num(256), num(256))
_TRUE = LitFormula(Literal(False, num(0), num(0)))
_ZY = Literal(False, var("z"), var("y"))
_EF = ExistsForall("z", num(1), "y", num(1), _ZY)


@pytest.mark.parametrize(
    "d, mode, line",
    [
        (
            _root_only((LitFormula(Literal(False, _HUGE, num(0))),), InitialRule(0)),
            "pls",
            "(): initial literal does not evaluate: smash exponent 81 exceeds 64 bits",
        ),
        (
            _root_only((ExistsForall("z", num(1), "y", _HUGE, _ZY),), ExistsForallRule(0, num(0))),
            "npls",
            "(): inner bound does not evaluate",
        ),
        (
            _root_only((_TRUE,), CutRule(ExistsForall("z", _HUGE, "y", num(1), _ZY))),
            "npls",
            "(): cut bound does not evaluate",
        ),
        (
            _root_only((ExistsLit("z", num(1), _TRUE.lit),), ExistsRule(0, _HUGE)),
            "pls",
            "(): witness or bound does not evaluate",
        ),
    ],
    ids=["initial literal", "inner bound", "cut bound", "witness"],
)
def test_a_value_that_does_not_evaluate_fails_validation(tmp_path, capsys, d, mode, line):
    assert validate(d, mode).lines() == [line]
    path = tmp_path / "d.json"
    path.write_text(dumps(derivation_to_json(d)), encoding="utf-8")
    assert main(["validate", str(path), "--mode", mode]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_a_family_bound_left_open_fails_the_expansion(tmp_path, capsys):
    leaf = TemplateNode((_TRUE,), InitialRule(0))
    family = FamilySpec("i", var("q"), leaf)
    t = DerivationTemplate(TemplateNode((_TRUE,), InitialRule(0), (), family))
    message = "family bound at () is open after substitution"
    with pytest.raises(ValidationFailed) as raised:
        expand_template(t, 0)
    assert str(raised.value) == message
    path = tmp_path / "t.json"
    path.write_text(dumps(template_to_json(t)), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: ValidationFailed: {message}\n"


def test_a_negative_parameter_fails_decoding(tmp_path, capsys):
    obj = {**derivation_to_json(d2()), "end_x": -1}
    message = "derivation.end_x: the parameter is non-negative"
    with pytest.raises(FormatError) as raised:
        derivation_from_json(obj)
    assert str(raised.value) == message
    path = tmp_path / "d.json"
    path.write_text(dumps(obj), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exists_forall_material_needs_npls_mode(tmp_path, capsys):
    d = _root_only((_EF, _TRUE), InitialRule(1))
    message = "exists-forall material needs npls mode at ()"
    with pytest.raises(ModeError) as raised:
        ExtractionContext(d, MODE_PLS)
    assert str(raised.value) == message
    path = tmp_path / "d.json"
    path.write_text(dumps(derivation_to_json(d)), encoding="utf-8")
    assert main(["extract", str(path), "--mode", "pls"]) == 1
    assert capsys.readouterr().err == f"error: ModeError: {message}\n"
