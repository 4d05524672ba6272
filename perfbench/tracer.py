"""Span tracer that wraps public selfdual functions from outside.

``install()`` rebinds each listed function in every ``selfdual.*``
module namespace that holds it (so calls through ``from .x import f``
are caught too) and wraps two ``DlogTable`` methods.  Spans are kept in
memory as (id, name, start, end, parent, op) and written as NDJSON by
``Tracer.write``; self time is derived from them afterwards, never
measured inside the wrapper.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name); None means the name depends on the call
TARGETS = (
    ("fields", "find_primitive_element", "fields.find_primitive_element"),
    ("fields", "make_field", "fields.make_field"),
    ("fields", "quadratic_extension", "fields.quadratic_extension"),
    ("fields", "solve_norm", "fields.solve_norm"),
    ("fields", "sqrt_in_field", "fields.sqrt_in_field"),
    ("linalg", "det_nonzero", "linalg.det"),
    ("linalg", "null_space", "linalg.null_space"),
    ("linalg", "row_reduce", "linalg.row_reduce"),
    ("codes", "min_distance_exhaustive", "codes.min_distance_exhaustive"),
    ("codes", "mds_check", None),
    ("codes", "is_euclidean_self_dual", "codes.self_dual_check"),
    ("codes", "is_hermitian_self_dual", "codes.self_dual_check"),
    ("codes", "generator_from_defining_set",
     "codes.generator_from_defining_set"),
    ("codes", "code_from_json", "codes.code_from_json"),
    ("constructions", "build_euclidean_duadic_extended",
     "constructions.euclidean-duadic"),
    ("constructions", "build_grs_hermitian", "constructions.grs-hermitian"),
    ("constructions", "build_constacyclic_hermitian",
     "constructions.constacyclic"),
    ("constructions", "build_negacyclic_hermitian",
     "constructions.negacyclic"),
    ("constructions", "build_hermitian_extended_duadic",
     "constructions.hermitian-duadic"),
    ("constructions", "build_hermitian_n5", "constructions.hermitian-n5"),
    ("constructions", "exists_hermitian_dispatch", "constructions.dispatch"),
    ("cosets", "check_duadic_splitting", "cosets.check_duadic_splitting"),
    ("numtheory", "gamma_solvability", "numtheory.gamma_solvability"),
    ("table", "run_table_pair", "table.run_table_pair"),
    ("cli", "main", "cli.main"),
)

METHODS = (
    ("DlogTable", "__init__", "linalg.dlog_table"),
    ("DlogTable", "det_nonzero", "linalg.det"),
)

# the lru caches that cache_hit_ratio sums over
CACHED = ("make_field", "quadratic_extension", "find_primitive_element")


def _mds_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return "codes.mds_check." + mode.replace("exhaustive-", "").replace(
        "-", "_")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name or _mds_name(args, kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, label, start, end, parent, self.op))

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def install() -> Tracer:
    """Wrap every target in the already imported selfdual modules."""
    tracer = Tracer()
    modules = [m for key, m in list(sys.modules.items())
               if key == "selfdual" or key.startswith("selfdual.")]
    for mod_name, attr, name in TARGETS:
        original = getattr(sys.modules["selfdual." + mod_name], attr)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    linalg = sys.modules["selfdual.linalg"]
    for cls_name, attr, name in METHODS:
        cls = getattr(linalg, cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    return tracer


def cache_counters() -> tuple[int, int]:
    """(hits, misses) summed over the CACHED lru caches of selfdual.fields."""
    fields = sys.modules["selfdual.fields"]
    hits = misses = 0
    for attr in CACHED:
        fn = getattr(fields, attr)
        while not hasattr(fn, "cache_info"):  # under a tracer wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def self_times(spans, factors) -> dict[str, list]:
    """{name: [self seconds, calls]} from the span records of one process.

    Each span's self time is scaled by ``factors[op]``, the factor that
    turns its op's raw seconds into reference seconds (see speed.py).
    """
    child = {}
    for sp in spans:
        if sp["parent"] != -1:
            child[sp["parent"]] = (child.get(sp["parent"], 0.0)
                                   + sp["end"] - sp["start"])
    out: dict[str, list] = {}
    for sp in spans:
        own = sp["end"] - sp["start"] - child.get(sp["id"], 0.0)
        acc = out.setdefault(sp["name"], [0.0, 0])
        acc[0] += own * factors[sp["op"]]
        acc[1] += 1
    return out
