from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import npls.cli
import npls.derivation
import npls.extraction
from npls.cli import main
from npls.corpus import FIXTURES, d2, random_sigma1_derivation, random_sigma2_derivation, t_d3
from npls.derivation import ProofNode
from npls.serialization import derivation_to_json, document_to_json, dumps, template_to_json
from npls.terms import LitFormula


def _lines(capsys):
    out = capsys.readouterr().out
    return out.splitlines()


def test_validate_fixture_by_name(capsys):
    assert main(["validate", "D2"]) == 0
    assert _lines(capsys) == ["ok mode=pls"]
    assert main(["validate", "D3"]) == 0
    assert _lines(capsys) == ["ok mode=npls"]


def test_package_runs_as_a_module():
    # The same command line without an installed ``npls`` script.
    src = str(Path(npls.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "npls", "validate", "D2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok mode=pls\n", "")


def test_validate_expands_templates(capsys):
    assert main(["validate", "T-D3", "--x", "4"]) == 0
    assert _lines(capsys) == ["ok mode=npls"]


def _broken_d2_file(tmp_path):
    d = d2()
    nodes = dict(d.nodes)
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
    from npls.nested_graph import CostedDigraph, NestedGraphFamily
    from npls.serialization import family_to_json

    # Node 0 of the top problem is backed by a rank-0 chain 0 -> 1 -> 2
    # whose costs are all negative; strict decrease still ends the walk.
    child = NestedGraphFamily(CostedDigraph(3, ((0, 1), (1, 2), (2, 2)), (-1, -2, -3)), 0)
    top = NestedGraphFamily(CostedDigraph(2, ((0, 1), (1, 1)), (1, 0)), 1, {0: child}, {(0, 2): 1})
    path = tmp_path / "negative.json"
    path.write_text(dumps(family_to_json(top)), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert all(line.endswith(" pass") for line in _lines(capsys))
    assert main(["solve", str(path)]) == 0
    lines = _lines(capsys)
    assert [line.split()[-1] for line in lines[2:5]] == ["cost=-1", "cost=-2", "cost=-3"]
    assert lines[-1] == "solution=1 steps=7"


def test_verify_reports_corrupted_costs(tmp_path, capsys):
    from npls.corpus import ng2
    from npls.nested_graph import CostedDigraph, NestedGraphFamily
    from npls.serialization import family_to_json

    fam = ng2()
    costs = list(fam.graph.costs)
    costs[costs.index(0)] = 99
    bad = NestedGraphFamily(
        CostedDigraph(fam.graph.n_nodes, fam.graph.edges, tuple(costs)),
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


# Contract fuzz: one leaf replaced or one key deleted, four commands.


@cache
def _fuzz_documents():
    names = ("D1", "D2", "D3", "T-D2", "T-D3", "G1", "NG2")
    docs = [document_to_json(FIXTURES[name]()) for name in names]
    docs.append(derivation_to_json(random_sigma1_derivation(3)))
    docs.append(derivation_to_json(random_sigma2_derivation(12)))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.booleans(), st.integers(0), _FUZZ_LEAVES)
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
