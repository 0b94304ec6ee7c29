"""The benchmark tracer still finds every name it patches.

``bench/tracing.py`` looks package functions up by name at run time, so
deleting or renaming one of them breaks ``bench/run.py --trace 1``
without failing any other test.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import npls.derivation
from npls.cli import main
from npls.corpus import random_sigma2_derivation
from npls.derivation import MODE_NPLS
from npls.extraction import ExtractionContext, build_npls
from npls.nested_graph import generate_family
from npls.serialization import derivation_to_json, digraph_to_json, dumps, family_to_json

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_the_command_path(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["solve", "G1"]) == 0
        # Plain descent fetches its one row once.
        assert tracer.counts["search_core.calls.row"] == 1
        assert main(["extract", "D3"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["search_core.calls.row"] > 1
    names = {span[1] for span in tracer.spans}
    assert {"nested_graph.pls_from_digraph", "derivation.validate"} <= names
    # Uninstalling restores the package: nothing more is recorded.
    before = len(tracer.spans)
    assert main(["solve", "G1"]) == 0
    assert len(tracer.spans) == before


def test_tracer_spans_the_decode_of_a_family_file(tmp_path, capsys):
    # A family file decodes to a table, which no traced builder may receive.
    text = dumps(family_to_json(generate_family(5, 3, 4)))
    path = tmp_path / "family.json"
    path.write_text(text, encoding="utf-8")
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for command in ("solve", "verify"):
            tracer.start_command()
            assert main([command, str(path)]) == 0
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert names.count("serialization.loads_document") == 2
    assert {"search_core.solve_npls", "search_core.verify_npls_conditions"} <= set(names)
    assert tracer.counts["serialization.bytes_decoded"] == 2 * len(text)


def test_tracer_spans_and_counts_the_compile_of_a_digraph_file(tmp_path, capsys):
    # A digraph file decodes to a table, which goes through the traced compile.
    doc = digraph_to_json(generate_family(3, 0, 16).graph)
    path = tmp_path / "digraph.json"
    path.write_text(dumps(doc), encoding="utf-8")
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for command in ("solve", "verify"):
            tracer.start_command()
            assert main([command, str(path)]) == 0
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert names.count("nested_graph.pls_from_digraph") == 2
    assert tracer.counts["search_core.calls.row"] == 2
    assert tracer.counts["search_core.calls.cost"] > 0


@pytest.mark.parametrize(
    "name, span", [("D2", "extraction.build_pls"), ("G1", "nested_graph.pls_from_digraph")]
)
def test_verify_reads_the_one_row_of_a_plain_instance(name, span, capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["verify", name]) == 0
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert names.count(span) == 1
    assert "search_core.verify_npls_conditions" in names
    assert tracer.counts["search_core.calls.row"] == 1


@pytest.mark.parametrize("name", ["G1", "D2", "NG2", "D3", "T-D3"])
def test_solve_runs_the_nested_solver_on_every_input_kind(name, capsys):
    # A plain instance is the one-row, rank-zero case of a nested one.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["solve", name]) == 0
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert names.count("search_core.solve_npls") == 1
    assert "search_core.solve_pls" not in names


def test_verify_reads_the_rows_table_instead_of_scanning_the_point_space(capsys):
    # NG2's point space has 128 points and 18 source rows; the verifier
    # fetches each listed row once and asks about no other point.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["verify", "NG2"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["search_core.calls.sources"] == 1
    assert tracer.counts["search_core.calls.row"] == 18


def test_verify_walks_the_neighbor_lists_instead_of_asking_the_relation(tmp_path, capsys):
    # The verifier reads every edge from the rows it fetches, one fetch
    # per source row; asking a relation for each pair of targets took
    # 869,287 calls on this derivation.
    derivation = random_sigma2_derivation(20)
    sources = build_npls(ExtractionContext(derivation, MODE_NPLS)).sources()
    path = tmp_path / "sigma2.json"
    path.write_text(dumps(derivation_to_json(derivation)), encoding="utf-8")
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["verify", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["search_core.calls.row"] == len(sources) > 1


def test_extract_normalizes_each_formula_once(capsys):
    # The expansion of T-D3 at x=50 has 110 nodes and 277 formula
    # occurrences.  Validation normalizes each occurrence and each
    # child's added formula at most once; extraction compares the ids.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["extract", "T-D3", "--x", "50"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["terms.normalize.calls"] <= 277 + 110
    assert [s[1] for s in tracer.spans].count("derivation.validate") == 1


def test_extract_substitutes_each_distinct_formula_once(monkeypatch, capsys):
    # Expanding T-D3 at x=50 meets 278 formula occurrences.  One of the
    # template's eight formulas mentions the family index, which takes
    # 52 values, so substituting per assignment of each formula's free
    # variables takes 52 + 7 = 59 calls.
    calls = []
    substitute_formula = npls.derivation.substitute_formula

    def counted(*args):
        calls.append(1)
        return substitute_formula(*args)

    monkeypatch.setattr(npls.derivation, "substitute_formula", counted)
    assert main(["extract", "T-D3", "--x", "50"]) == 0
    assert len(calls) <= 60
