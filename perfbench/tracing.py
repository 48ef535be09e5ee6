"""Spans and counters for the traced run.

The tracer wraps public functions of relalg from the outside: the library is
not modified. Consumer modules import kernel functions by name
(``from .rel import compose``), so every wrapper is installed in every
``relalg`` module namespace that holds the original object, not only in the
defining module. ``cache_info()`` is read from the original ``lru_cache``
objects, which the tracer keeps.

A span is (name, start, end, parent). Spans are kept in flat arrays in memory
while the pass runs and written to one file when it ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> (module, functions). Several functions share one span name
# where the metric groups them (e.g. the four lattice operations).
LAYERS = {
    "rel.compose": ("relalg.rel", ("compose",)),
    "rel.converse": ("relalg.rel", ("converse",)),
    "rel.complement": ("relalg.rel", ("complement",)),
    "rel.lattice": ("relalg.rel", ("union", "intersect", "is_subset", "equals")),
    "factors.residual": ("relalg.factors", ("left_residual", "right_residual")),
    "factors.sym_div": ("relalg.factors", ("sym_left_div", "sym_right_div")),
    "domains.dom": ("relalg.domains", ("ldom", "rdom")),
    "domains.per_dom": ("relalg.domains", ("per_ldom", "per_rdom")),
    "domains.classify": ("relalg.domains", ("classify",)),
    "domains.predicates": ("relalg.domains", (
        "is_per", "is_functional", "is_injective", "is_bijection", "is_difunctional",
        "is_rectangle", "is_square", "is_core_relation",
        "per_characterizations", "difunctional_characterizations",
    )),
    "indexcore.relation_index": ("relalg.indexcore", ("relation_index",)),
    "indexcore.per_index": ("relalg.indexcore", ("per_index",)),
    "indexcore.core_of": ("relalg.indexcore", ("core_of",)),
    "indexcore.candidate_indexes": ("relalg.indexcore", ("candidate_indexes",)),
    "indexcore.splitting": ("relalg.indexcore", ("splitting",)),
    "isomorph.find": ("relalg.isomorph", ("find_isomorphism",)),
    "isomorph.verify": ("relalg.isomorph", ("verify_witness",)),
    "points": ("relalg.points", (
        "points", "is_atom", "is_point", "is_pair", "is_particle", "pair_rel",
        "all_or_nothing", "decompose_to_pairs", "union_all",
    )),
    "laws.run_law": ("relalg.laws", ("run_law",)),
    "laws.shrink": ("relalg.laws", ("shrink",)),
    "models.load_model": ("relalg.models", ("load_model",)),
    "models.product_model": ("relalg.models", ("product_model",)),
    "models.check_axioms": ("relalg.models", ("check_axioms",)),
    "models.recheck": ("relalg.models", ("recheck",)),
}

# Groups whose functions are lru_cache'd; their hit ratio is reported.
CACHED = ("rel.compose", "rel.converse", "rel.complement", "factors.residual",
          "factors.sym_div", "domains.dom", "domains.per_dom")

# Pool construction: these enumerators, when called from relalg.laws. The
# generators are drained inside the span so the span covers their work.
POOL_SPAN = "laws.pool.build"
POOL_FUNCTIONS = ("enumerate_relations", "enumerate_coreflexives", "enumerate_pers", "points")

ROOT_SPAN = "bench.item"

# Laws whose time per instance is reported on its own.
NAMED_LAWS = ("compose-assoc", "sym-division-converse", "compose-monotonic", "compose-join-right")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.law_ns: Counter = Counter()
        self.law_instances: Counter = Counter()
        self._originals: dict[str, list] = defaultdict(list)
        self._gc_started = 0
        self.gc_ns = 0

    def wrap(self, fn, span_name: str):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function of LAYERS, the law pools, and the Relation
        constructor and equality (counted only), and start GC timing."""
        from relalg import laws, rel

        for span_name, (module_name, functions) in LAYERS.items():
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                self._originals[span_name].append(original)
                _replace_everywhere(original, self.wrap(self._hooked(span_name, original), span_name))
        for fn_name in POOL_FUNCTIONS:
            setattr(laws, fn_name, self.wrap(_drained(getattr(laws, fn_name)), POOL_SPAN))

        counts = self.counts
        init, eq = rel.Relation.__init__, rel.Relation.__eq__

        def counted_init(self, *args):
            counts["rel.construct"] += 1
            init(self, *args)

        def counted_eq(self, other):
            counts["rel.eq"] += 1
            return eq(self, other)

        rel.Relation.__init__ = counted_init
        rel.Relation.__eq__ = counted_eq
        gc.callbacks.append(self._on_gc)

    def _hooked(self, span_name: str, original):
        """The original, plus the result bookkeeping some metrics need."""
        if span_name == "isomorph.find":
            def find(*args, **kwargs):
                witness = original(*args, **kwargs)
                self.counts["isomorph.found"] += witness is not None
                return witness
            return find
        if span_name == "laws.run_law":
            clock = time.perf_counter_ns

            def run_law(law, *args, **kwargs):
                t = clock()
                report = original(law, *args, **kwargs)
                self.law_ns[law.id] += clock() - t
                self.law_instances[law.id] += report.instances
                if report.mode == "exhaustive":
                    self.counts["laws.exhaustive_instances"] += report.instances
                return report
            return run_law
        return original

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.counts["process.gc_collections"] += 1

    # -- results ----------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self seconds, inclusive seconds and call count per span name."""
        n = len(self.start)
        child_ns = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, nid in enumerate(self.name):
            dur = end[i] - start[i]
            self_ns[nid] += dur - child_ns[i]
            incl_ns[nid] += dur
            calls[nid] += 1
        names = self.names
        return (
            {names[k]: v / 1e9 for k, v in self_ns.items()},
            {names[k]: v / 1e9 for k, v in incl_ns.items()},
            {names[k]: v for k, v in calls.items()},
        )

    def hit_ratio(self, span_name: str) -> float:
        hits = misses = 0
        for fn in self._originals[span_name]:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the start, end, name and parent arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["start_ns:q", "end_ns:q", "name:H", "parent:q"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(f)


def _drained(generator_fn):
    def drained(*args, **kwargs):
        return list(generator_fn(*args, **kwargs))
    return drained


def _replace_everywhere(original, wrapper) -> None:
    """Rebind `original` to `wrapper` in every relalg module, including
    module-level dicts such as laws.KIND_VALIDATORS."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "relalg" and not mod_name.startswith("relalg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
