"""Spans and counters around the layers of the ``npls`` package.

The tracer patches the package at run time and restores it afterwards;
the package's files are never touched.  A public function is replaced
by a wrapper in every ``npls`` module that binds it, so the calls the
CLI and the library make through those bindings are seen.  Builders of
search instances return copies whose callables count their calls.

Spans record name, start, end, parent span and command id, and stay in
memory until ``write`` saves them.  Calls that happen millions of times
per pass (instance callables, ``npls_targets``, ``normalize``,
``eval_literal``) are counted, not spanned.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, span name) of every spanned layer boundary.
SPANNED = (
    ("serialization", "loads_document", "serialization.loads_document"),
    ("derivation", "substitute_numeral", "derivation.substitute_numeral"),
    ("derivation", "validate", "derivation.validate"),
    ("derivation", "postorder_index", "derivation.postorder_index"),
    ("extraction", "build_npls", "extraction.build_npls"),
    ("extraction", "build_pls", "extraction.build_pls"),
    ("extraction", "extract_witness_npls", "extraction.extract_witness"),
    ("extraction", "extract_witness_pls", "extraction.extract_witness"),
    ("nested_graph", "npls_from_family", "nested_graph.npls_from_family"),
    ("nested_graph", "pls_from_digraph", "nested_graph.pls_from_digraph"),
    ("search_core", "solve_npls", "search_core.solve_npls"),
    ("search_core", "solve_pls", "search_core.solve_pls"),
    ("search_core", "verify_npls_conditions", "search_core.verify_npls_conditions"),
)
# Functions of the terms layer counted where derivation and extraction call them.
TERM_CALLERS = ("derivation", "extraction")
TERM_COUNTED = ("normalize", "eval_literal")


def _problems(fam) -> int:
    total, stack = 0, [fam]
    while stack:
        f = stack.pop()
        total += 1
        stack.extend(f.children.values())
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [cmd, name, start, end, parent]
        self.counts: Counter = Counter()
        self.cmd = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._validated: set[int] = set()

    # Recording

    def spanned(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([self.cmd, name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
            return result if after is None else after(result)

        return wrapper

    def counted(self, key: str, fn, hit_key: str | None = None):
        """Wrap ``fn`` to count its calls, and its true results under ``hit_key``."""
        counts = self.counts
        if hit_key is None:

            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        def hit_wrapper(*args):
            result = fn(*args)
            counts[key] += 1
            if result:
                counts[hit_key] += 1
            return result

        return hit_wrapper

    def start_command(self) -> None:
        self.cmd += 1
        self._validated.clear()

    # Instance callables

    def _counted_instance(self, inst):
        fields = {}
        for f in dataclasses.fields(inst):
            fn = getattr(inst, f.name)
            if f.name == "d_bound" or not callable(fn):
                continue
            key = "search_core.calls." + f.name
            fields[f.name] = self.counted(key, fn, key + "_hits" if f.name == "targets" else None)
        return dataclasses.replace(inst, **fields)

    # Hooks

    def _on_validate(self, args) -> None:
        d = args[0]
        if id(d) not in self._validated:
            self._validated.add(id(d))
            self.counts["derivation.nodes"] += len(d.nodes)

    def _on_loads(self, args) -> None:
        # The input files are ASCII JSON, so characters are bytes.
        self.counts["serialization.bytes_decoded"] += len(args[0])

    def _on_family(self, args) -> None:
        self.counts["nested_graph.problems"] += _problems(args[0])

    def _after_solve(self, result):
        self.counts["search_core.trace_steps"] += len(result[1].steps)
        return result

    def _after_verify(self, report):
        self.counts["search_core.conditions_failed"] += sum(not c.passed for c in report.checks)
        return report

    # Patching

    def _rebind(self, modules, old, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, new)

    def install(self, package: str = "npls") -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
        ]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        hooks = {
            "loads_document": (self._on_loads, None),
            "validate": (self._on_validate, None),
            "npls_from_family": (self._on_family, self._counted_instance),
            "pls_from_digraph": (None, self._counted_instance),
            "build_npls": (None, self._counted_instance),
            "build_pls": (None, self._counted_instance),
            "solve_npls": (None, self._after_solve),
            "solve_pls": (None, self._after_solve),
            "verify_npls_conditions": (None, self._after_verify),
        }
        for mod_name, fn_name, span_name in SPANNED:
            fn = getattr(by_name[mod_name], fn_name)
            before, after = hooks.get(fn_name, (None, None))
            self._rebind(modules, fn, self.spanned(span_name, fn, before, after))

        extraction = by_name["extraction"]
        targets = extraction.npls_targets
        counted = self.counted(
            "extraction.npls_targets.calls", targets, "extraction.npls_targets.hits"
        )
        self._rebind(modules, targets, counted)
        callers = [by_name[n] for n in TERM_CALLERS]
        for fn_name in TERM_COUNTED:
            fn = getattr(by_name["terms"], fn_name)
            self._rebind(callers, fn, self.counted(f"terms.{fn_name}.calls", fn))

        cls = extraction.ExtractionContext
        init = cls.__init__
        self._restore.append((cls, "__init__", init))
        cls.__init__ = self.spanned("extraction.ExtractionContext", init)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # Results

    def summary(self, first_span: int = 0) -> dict[str, float]:
        """Busy seconds, self seconds and calls per span name, from ``first_span`` on.

        Busy time sums the spans of a name that have no ancestor of the
        same name; self time subtracts from each span its direct
        children's durations.
        """
        spans = self.spans
        child_time: defaultdict[int, float] = defaultdict(float)
        for s in spans[first_span:]:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        out: defaultdict[str, float] = defaultdict(float)
        for i in range(first_span, len(spans)):
            _, name, start, end, parent = spans[i]
            out[name + ".self_s"] += end - start - child_time[i]
            out[name + ".calls"] += 1
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][4]
            if p < 0:
                out[name + ".s"] += end - start
        return dict(out)

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for cmd, name, start, end, parent in self.spans:
                rec = {"cmd": cmd, "name": name, "start": start - t0, "end": end - t0, "parent": parent}
                fh.write(json.dumps(rec) + "\n")
