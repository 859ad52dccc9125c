"""Per-layer spans for the traced benchmark run, patched in from outside.

`Tracer.install` wraps the public functions listed in `LAYERS`.  A function is
replaced in its defining module and in every `toupie` namespace that imported
it by name (`cli` imports `build_groebner`, `duality` imports `rref`, ...);
a method is replaced on its class.  `patch` and `unpatch` swap the wrappers
in and out, so untraced batches of the same process run the original code.

Spans stay in memory: (name, parent span, start, end, raised).  `layer_metrics`
turns them into calls, self time (span time minus child-span time) and total
time per function.  Functions called hundreds of thousands of times per job
(`ChainGraph.parse`, `Path.slice`, ...) are not wrapped; the counts below are
derived from the arguments and return values of their callers instead.
"""
from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = {
    "rewriting": ("rref", "build_groebner", "special_basis"),
    "chains": ("ChainGraph.chains", "ChainGraph.decompositions"),
    "ainf": (
        "ExtAlgebra.m",
        "TorCoalgebra.closed_delta",
        "TorCoalgebra.transfer_delta",
        "algebra_table",
        "coalgebra_table",
        "stasheff_coalgebra_defects",
        "stasheff_algebra_defects",
    ),
    "morse": ("bar_words", "build_matching", "BarSDR.verify"),
    "zigzag": ("verify_sdr", "BasedComplex.__init__"),
    "anick": ("AnickResolution.__init__", "AnickResolution.check", "betti_numbers"),
    "duality": (
        "gr_algebra",
        "yoneda_presentation",
        "double_dual",
        "ideal_equal",
        "hypotheses_check",
        "quadratic_blocks",
    ),
    "presentation": ("validate_toupie", "branches_of"),
    "cli": ("parse_presentation", "render_report"),
    "random_presentations": ("random_presentation",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
COUNTS = (
    "chains.chain_count",
    "chains.cuts_tried",
    "chains.cuts_parsed",
    "morse.bar_cells",
    "ainf.algebra_table.entries",
    "ainf.coalgebra_table.entries",
    "random_presentations.retries",
)


def _table_size(table) -> int:
    return sum(len(row) for row in table.values())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []
        self._chain_layers = weakref.WeakKeyDictionary()

    # -- counts derived from callers ------------------------------------------

    def _count_cuts(self, args, kwargs, result):
        word = args[1] if len(args) > 1 else kwargs["word"]
        n = args[2] if len(args) > 2 else kwargs["n"]
        # decompositions tries every (n-1)-subset of the inner cut points
        self.counts["chains.cuts_tried"] += comb(sum(len(x) for x in word) - 1, n - 1)
        self.counts["chains.cuts_parsed"] += len(result)

    def _count_chains(self, args, kwargs, result):
        # chains(d) is memoised per graph: count each layer once, when it is built
        degree = args[1] if len(args) > 1 else kwargs["degree"]
        seen = self._chain_layers.setdefault(args[0], set())
        if degree not in seen:
            seen.add(degree)
            self.counts["chains.chain_count"] += len(result)

    def _count_bar_cells(self, args, kwargs, result):
        self.counts["morse.bar_cells"] += _table_size(result)

    def _count_algebra_entries(self, args, kwargs, result):
        self.counts["ainf.algebra_table.entries"] += _table_size(result)

    def _count_coalgebra_entries(self, args, kwargs, result):
        self.counts["ainf.coalgebra_table.entries"] += _table_size(result)

    _HOOKS = {
        "chains.ChainGraph.decompositions": _count_cuts,
        "chains.ChainGraph.chains": _count_chains,
        "morse.bar_words": _count_bar_cells,
        "ainf.algebra_table": _count_algebra_entries,
        "ainf.coalgebra_table": _count_coalgebra_entries,
    }

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end, raised)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Build the wrappers for the currently imported `toupie` modules."""
        self._patches = []
        namespaces = [m for k, m in list(sys.modules.items()) if k == "toupie" or k.startswith("toupie.")]
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"toupie.{mod_name}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = owner.__dict__[attr]
                wrapped = self._wrap(f"{mod_name}.{qual}", orig)
                self._patches.append((owner, attr, orig, wrapped))
                if not owner_name:
                    for ns in namespaces:
                        for key, val in vars(ns).items():
                            if val is orig and ns is not mod:
                                self._patches.append((ns, key, orig, wrapped))

    def patch(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def unpatch(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._chain_layers = weakref.WeakKeyDictionary()

    # -- aggregation ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} plus the derived counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        out = {f: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for f in FUNCTIONS}
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, parent, start, end, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[idx]
            # a span nested in a span of the same function is already inside its total
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                row["total_s"] += end - start
        counts = {c: self.counts.get(c, 0) for c in COUNTS}
        counts["random_presentations.retries"] = sum(
            1
            for name, parent, _, _, raised in spans
            if raised
            and name == "rewriting.build_groebner"
            and parent >= 0
            and spans[parent][0] == "random_presentations.random_presentation"
        )
        return {"functions": out, "counts": counts}
