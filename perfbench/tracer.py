"""Per-layer tracing of parafock, installed from outside the package.

Each public function listed below is replaced, in every namespace its callers
look it up in, by a wrapper that records a span ``[name, start, end, parent]``
(parent is the index of the enclosing span, -1 at the top).  Functions that
recurse or run hundreds of thousands of times are only counted.  Spans stay in
memory; ``metrics`` derives calls, inclusive seconds (``.s``) and self seconds
(``.self_s``) from them, and ``write_spans`` dumps them as JSON lines.

A name the program no longer defines is skipped and reads as zero, so the
tracer keeps working across refactors of the traced code.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def _content_key(args, kwargs):
    m, n, p, content = args[:4]
    return (m, n, p, tuple(content), args[4:], tuple(sorted(kwargs.items())))


# (span name, module, attribute path, other modules that import the name)
SPANNED = (
    ("cli.main", "cli", "main", ()),
    ("verma.pair_poly", "verma", "VermaEngine.pair_poly", ()),
    ("verma.gram_block_for_content", "verma", "gram_block_for_content", ()),
    ("verma.pbw_basis", "verma", "pbw_basis", ()),
    ("verma.basis_for_content", "verma", "basis_for_content", ()),
    ("verma.act", "verma", "VermaEngine.act", ()),
    ("verma.diagonal_check", "verma", "diagonal_check", ()),
    ("verma.radical_cut_check", "verma", "radical_cut_check", ()),
    ("rational_linalg.symmetric_rank_psd", "rational_linalg",
     "symmetric_rank_psd", ("verma",)),
    ("rational_linalg.kernel_basis", "rational_linalg", "kernel_basis", ()),
    ("rational_linalg.build_column_solver", "rational_linalg",
     "build_column_solver", ("algebra",)),
    ("rational_linalg.rref", "rational_linalg", "rref", ()),
    ("algebra.structure_constants", "algebra", "structure_constants", ()),
    ("algebra.superbracket", "algebra", "superbracket", ()),
    ("algebra.verify_triple_relations", "algebra", "verify_triple_relations",
     ()),
    ("algebra.verify_para_relations", "algebra", "verify_para_relations", ()),
    ("symfunc.character_formula_report", "symfunc",
     "character_formula_report", ()),
    ("symfunc.irreducible_character", "symfunc", "irreducible_character", ()),
    ("symfunc.verma_character", "symfunc", "verma_character", ()),
    ("symfunc.super_schur", "symfunc", "super_schur", ()),
    ("patterns.fillings", "patterns", "fillings", ()),
    ("patterns.weight_pattern_counts", "patterns", "weight_pattern_counts",
     ()),
    ("reduced.select_parsing_variant_multi", "reduced",
     "select_parsing_variant_multi", ()),
    ("reduced.residual_sweep", "reduced", "residual_sweep", ()),
    ("reduced.recurrence_residual", "reduced", "recurrence_residual", ()),
)

# (counter name, module, attribute path): recursive or very hot, no span
COUNTED = (
    ("verma.reduce_word", "verma", "VermaEngine.reduce_word"),
    ("verma.straighten", "verma", "VermaEngine.straighten"),
    ("verma.PPoly.evaluate", "verma", "PPoly.evaluate"),
    ("patterns.top_rows_for_level", "patterns", "top_rows_for_level"),
    ("patterns.valid_subrows", "patterns", "valid_subrows"),
    ("reduced.reduced_me_squared", "reduced", "reduced_me_squared"),
)

# name -> key of the arguments, for the distinct-call counts
DISTINCT = {
    "verma.reduce_word": lambda args, kwargs: args[1],
    "verma.straighten": lambda args, kwargs: args[1],
    "verma.pair_poly": lambda args, kwargs: (args[1], args[2]),
    "verma.gram_block_for_content": _content_key,
}

# functools caches whose hit/miss counters are read directly
LRU = (
    ("symfunc.lr_coefficient", "symfunc", "lr_coefficient"),
    ("symfunc.skew_schur_monomials", "symfunc", "skew_schur_monomials"),
)

# (metric, unit, better): the per-layer metrics, in report order
PER_LAYER = (
    ("verma.reduce_word.calls", "count", "lower"),
    ("verma.reduce_word.distinct", "count", "lower"),
    ("verma.reduce_word.hit_ratio", "ratio", "higher"),
    ("verma.pair_poly.calls", "count", "lower"),
    ("verma.pair_poly.distinct", "count", "lower"),
    ("verma.pair_poly.hit_ratio", "ratio", "higher"),
    ("verma.pair_poly.s", "s", "lower"),
    ("verma.gram_block_for_content.calls", "count", "lower"),
    ("verma.gram_block_for_content.distinct", "count", "lower"),
    ("verma.gram_block_for_content.repeat_ratio", "ratio", "lower"),
    ("verma.gram_block_for_content.s", "s", "lower"),
    ("verma.gram_block_for_content.self_s", "s", "lower"),
    ("verma.pbw_basis.calls", "count", "lower"),
    ("verma.pbw_basis.s", "s", "lower"),
    ("verma.basis_for_content.s", "s", "lower"),
    ("verma.PPoly.evaluate.calls", "count", "lower"),
    ("verma.block_size.max", "count", "lower"),
    ("verma.block_size.sum", "count", "lower"),
    ("verma.act.calls", "count", "lower"),
    ("verma.act.s", "s", "lower"),
    ("verma.straighten.calls", "count", "lower"),
    ("verma.straighten.distinct", "count", "lower"),
    ("verma.diagonal_check.s", "s", "lower"),
    ("verma.radical_cut_check.s", "s", "lower"),
    ("rational_linalg.symmetric_rank_psd.calls", "count", "lower"),
    ("rational_linalg.symmetric_rank_psd.s", "s", "lower"),
    ("rational_linalg.kernel_basis.calls", "count", "lower"),
    ("rational_linalg.build_column_solver.s", "s", "lower"),
    ("rational_linalg.solve.calls", "count", "lower"),
    ("rational_linalg.solve.s", "s", "lower"),
    ("rational_linalg.rref.calls", "count", "lower"),
    ("rational_linalg.rref.s", "s", "lower"),
    ("algebra.structure_constants.s", "s", "lower"),
    ("algebra.structure_constants.self_s", "s", "lower"),
    ("algebra.superbracket.calls", "count", "lower"),
    ("algebra.superbracket.s", "s", "lower"),
    ("algebra.verify_triple_relations.s", "s", "lower"),
    ("algebra.verify_para_relations.s", "s", "lower"),
    ("algebra.basis_dimension", "count", "lower"),
    ("algebra.brackets_nonzero", "count", "lower"),
    ("symfunc.character_formula_report.s", "s", "lower"),
    ("symfunc.irreducible_character.calls", "count", "lower"),
    ("symfunc.irreducible_character.s", "s", "lower"),
    ("symfunc.verma_character.s", "s", "lower"),
    ("symfunc.super_schur.calls", "count", "lower"),
    ("symfunc.super_schur.s", "s", "lower"),
    ("symfunc.lr_coefficient.hits", "count", "higher"),
    ("symfunc.lr_coefficient.misses", "count", "lower"),
    ("symfunc.skew_schur_monomials.hits", "count", "higher"),
    ("symfunc.skew_schur_monomials.misses", "count", "lower"),
    ("patterns.fillings.calls", "count", "lower"),
    ("patterns.fillings.s", "s", "lower"),
    ("patterns.patterns_enumerated", "count", "lower"),
    ("patterns.weight_pattern_counts.calls", "count", "lower"),
    ("patterns.weight_pattern_counts.s", "s", "lower"),
    ("patterns.top_rows_for_level.calls", "count", "lower"),
    ("patterns.valid_subrows.calls", "count", "lower"),
    ("reduced.select_parsing_variant_multi.s", "s", "lower"),
    ("reduced.residual_sweep.calls", "count", "lower"),
    ("reduced.residual_sweep.s", "s", "lower"),
    ("reduced.recurrence_residual.calls", "count", "lower"),
    ("reduced.recurrence_residual.s", "s", "lower"),
    ("reduced.reduced_me_squared.calls", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.records", "count", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(module: str, path: str):
    """(object holding the attribute, attribute name, current value or None)."""
    owner = importlib.import_module(f"parafock.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.extra: Counter = Counter()
        self.lru: dict[str, object] = {}

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        """Wrap fn to record a span; observe(result) may inspect or wrap the
        result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        key = DISTINCT.get(name)
        seen = self.distinct[name]

        def wrapper(*args, **kwargs):
            if key is not None:
                seen.add(key(args, kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                result = observe(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = DISTINCT.get(name)
        if key is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            seen = self.distinct[name]

            def wrapper(*args, **kwargs):
                counts[name] += 1
                seen.add(key(args, kwargs))
                return fn(*args, **kwargs)
        return wrapper

    def _observers(self):
        extra = self.extra

        def block(blk):
            size = len(blk.basis)
            extra["verma.block_size.sum"] += size
            extra["verma.block_size.max"] = max(
                extra["verma.block_size.max"], size)
            return blk

        def solver(solve):
            return self._span("rational_linalg.solve", solve)

        def algebra_basis(basis):
            extra["algebra.basis_dimension"] = basis.dimension
            extra["algebra.brackets_nonzero"] += sum(
                1 for coeffs in basis.brackets.values() if coeffs)
            return basis

        def filled(pats):
            extra["patterns.patterns_enumerated"] += len(pats)
            return pats

        return {
            "verma.gram_block_for_content": block,
            "rational_linalg.build_column_solver": solver,
            "algebra.structure_constants": algebra_basis,
            "patterns.fillings": filled,
        }

    # -- installation -----------------------------------------------------------

    def install(self):
        observers = self._observers()
        for name, module, path, aliases in SPANNED:
            owner, attr, original = _resolve(module, path)
            if original is None:
                continue
            wrapper = self._span(name, original, observers.get(name))
            setattr(owner, attr, wrapper)
            for alias in aliases:
                alias_owner, _, current = _resolve(alias, attr)
                if current is original:
                    setattr(alias_owner, attr, wrapper)
        for name, module, path in COUNTED:
            owner, attr, original = _resolve(module, path)
            if original is not None:
                setattr(owner, attr, self._counter(name, original))
        for name, module, path in LRU:
            _, _, fn = _resolve(module, path)
            if hasattr(fn, "cache_info"):
                self.lru[name] = fn

    # -- results ------------------------------------------------------------------

    def _span_totals(self):
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_s[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:  # outermost span of its name: count its time once
                total[name] += end - start
        return calls, total, own

    def metrics(self, job_calls) -> dict:
        """Every PER_LAYER metric except trace.overhead_s, which needs an
        untraced run and is filled in by run.py."""
        calls, total, own = self._span_totals()
        calls.update(self.counts)
        values = dict(self.extra)
        values["cli.records"] = sum(c["records"] for c in job_calls)
        values["cli.bytes_out"] = sum(c["bytes"] for c in job_calls)
        for name, fn in self.lru.items():
            info = fn.cache_info()
            values[f"{name}.hits"] = info.hits
            values[f"{name}.misses"] = info.misses
        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            n_calls = calls[base]
            n_distinct = len(self.distinct.get(base, ()))
            if metric in values:
                out[metric] = values[metric]
            elif stat == "calls":
                out[metric] = n_calls
            elif stat == "s":
                out[metric] = total[base]
            elif stat == "self_s":
                out[metric] = own[base]
            elif stat == "distinct":
                out[metric] = n_distinct
            elif stat == "hit_ratio":
                out[metric] = 1 - n_distinct / n_calls if n_calls else 0.0
            elif stat == "repeat_ratio":
                out[metric] = n_calls / n_distinct if n_distinct else 0.0
            elif metric != "trace.overhead_s":
                out[metric] = 0
        return out

    def write_spans(self, path: str):
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
