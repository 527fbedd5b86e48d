"""Span tracing of the library from outside it.

``Tracer.install`` replaces selected public functions of ``lyubeznik``
modules with timing wrappers, in every ``lyubeznik.*`` namespace that
imported them, so nothing under ``src/`` is edited.  A span is
``[name, start, end, parent, request id, busy]``; ``busy`` is set only
for the order stream, whose time is the sum of its ``next()`` calls
rather than one interval.  Spans stay in memory until the run ends.

Spans recorded inside ``--jobs`` worker processes are lost with the
workers, so under ``--jobs 2`` the scan's self time includes the
parent's wait on futures.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, RID, BUSY = range(6)

# (module, function): wrapped public functions, named "<module>.<function>"
TARGETS = (
    ("monomials", "read_ideal"),
    ("graphs", "read_graph"),
    ("graphs", "edge_ideal"),
    ("graphs", "longest_path_edges"),
    ("graphs", "check_graph_propositions"),
    ("subsets", "tables_for"),
    ("orders", "orders_for_search"),
    ("invariants", "search_scan"),
    ("invariants", "analyze"),
    ("invariants", "ara_bounds"),
    ("invariants", "height"),
    ("invariants", "is_lyubeznik"),
    ("invariants", "is_totally_lyubeznik"),
    ("invariants", "min_l_length"),
    ("invariants", "is_minimal_resolution"),
    ("invariants", "obstruction"),
    ("invariants", "l_length"),
    ("invariants", "preserved_size"),
    ("invariants", "betti_from_preserved"),
    ("complexes", "order_analysis"),
    ("complexes", "lyubeznik_complex"),
    ("complexes", "classification_census"),
    ("covers", "covers_of"),
    ("covers", "e_minimal_covers_of"),
    ("covers", "cover_clutter"),
    ("generators", "radical_generators"),
    ("oracle", "taylor_betti"),
    ("oracle", "verify_chain_complex"),
    ("oracle", "verify_resolution_report"),
    ("linalg", "exact_rank"),
    ("linalg", "rank_mod_p"),
)
LAYERS = ("monomials", "graphs", "subsets", "orders", "invariants",
          "complexes", "covers", "generators", "oracle", "linalg")
PER_ORDER = {"invariants." + f for f in (
    "is_minimal_resolution", "obstruction", "l_length", "preserved_size",
    "betti_from_preserved")}


class _TimedStream:
    """An order iterator whose next() time and count go to one span."""

    def __init__(self, tracer: "Tracer", stream) -> None:
        self.tracer = tracer
        self.stream = stream
        self.span = None

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        try:
            item = next(self.stream)
        finally:
            end = perf_counter()
            span = self.span
            if span is None:
                tracer = self.tracer
                span = self.span = ["orders.stream", start, end,
                                    tracer.stack[-1] if tracer.stack else -1,
                                    tracer.rid, 0.0]
                tracer.spans.append(span)
            span[END] = end
            span[BUSY] += end - start
        self.tracer.counts["orders_yielded"] += 1
        return item


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = -1
        self.counts: Counter = Counter()
        self.oracle_ideals: list = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- wrapping -----------------------------------------------------------

    def _after(self, name: str, result, args):
        counts = self.counts
        if name == "orders.orders_for_search":
            stream, exact = result
            return _TimedStream(self, stream), exact
        if name == "invariants.search_scan":
            counts["orders_scanned"] += result.scanned
            counts["early_stops"] += int(result.stopped_early)
        elif name in ("covers.covers_of", "covers.e_minimal_covers_of"):
            counts["sets_emitted"] += len(result)
        elif name == "covers.cover_clutter":
            counts["sets_emitted"] += len(result.edges)
        elif name == "oracle.taylor_betti":
            self.oracle_ideals.append(args[0])
        elif name == "oracle.verify_resolution_report":
            self.oracle_ideals.append(args[0].ideal)
        elif name.startswith("linalg."):
            rows = args[0]
            counts["rank_entries"] += len(rows) * (len(rows[0]) if rows else 0)
        return result

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        after = self._after

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            return after(name, result, args)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lyubeznik" or n.startswith("lyubeznik.")]
        for module_name, func in TARGETS:
            original = getattr(sys.modules["lyubeznik." + module_name], func)
            name = f"{module_name}.{func}"
            self._originals[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        for name in ("subsets.tables_for", "complexes.order_analysis"):
            info = self._originals[name].cache_info()
            self._cache_start[name] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def cache_delta(self, name: str) -> tuple[int, int]:
        info = self._originals[name].cache_info()
        hits0, misses0 = self._cache_start[name]
        return info.hits - hits0, info.misses - misses0

    def lattice_sizes(self) -> list[int]:
        tables_for = self._originals["subsets.tables_for"]
        return [len(set(tables_for(ideal).lcm_exps[1:]))
                for ideal in self.oracle_ideals]


def span_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """(duration, self time) of every span."""
    dur = [s[BUSY] if s[BUSY] is not None else s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _topmost(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return False
        parent = spans[parent][PARENT]
    return True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, records: list[dict], requests) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = tracer.spans
    dur, self_t = span_times(spans)
    total = defaultdict(float)
    self_by = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    top_by_rid = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] += dur[i]
        self_by[name] += self_t[i]
        calls[name] += 1
        layer_self[name.split(".")[0]] += self_t[i]
        if s[PARENT] < 0:
            top_by_rid[s[RID]] += dur[i]

    def inclusive(names: set[str]) -> float:
        return sum(dur[i] for i, s in enumerate(spans)
                   if s[NAME] in names and _topmost(spans, i, names))

    counts = tracer.counts
    walls = [r["end"] - r["start"] for r in records]
    cli_self = sum(w - top_by_rid[i] for i, w in enumerate(walls))
    searching = sum(1 for r in requests if r.searches)
    t_hits, t_misses = tracer.cache_delta("subsets.tables_for")
    o_hits, o_misses = tracer.cache_delta("complexes.order_analysis")
    lattice = tracer.lattice_sizes()
    covers = {"covers.covers_of", "covers.e_minimal_covers_of",
              "covers.cover_clutter"}
    s, count, ratio = "s", "count", "ratio"
    metrics = {
        "orders.stream_s": (total["orders.stream"], s),
        "orders.orders_yielded": (counts["orders_yielded"], count),
        "invariants.scan_self_s": (self_by["invariants.search_scan"], s),
        "invariants.orders_scanned": (counts["orders_scanned"], count),
        "invariants.orders_per_s": (
            _ratio(counts["orders_scanned"], total["invariants.search_scan"]),
            "1/s"),
        "invariants.early_stops": (counts["early_stops"], count),
        "invariants.searches_per_request": (
            _ratio(calls["invariants.search_scan"], searching), ratio),
        "invariants.per_order_s": (inclusive(PER_ORDER), s),
        "oracle.taylor_betti_s": (total["oracle.taylor_betti"], s),
        "oracle.taylor_betti_calls": (calls["oracle.taylor_betti"], count),
        "oracle.verify_s": (total["oracle.verify_resolution_report"], s),
        "oracle.chain_check_s": (total["oracle.verify_chain_complex"], s),
        "oracle.lattice_size": (_ratio(sum(lattice), len(lattice)), count),
        "linalg.rank_s": (total["linalg.exact_rank"]
                          + total["linalg.rank_mod_p"], s),
        "linalg.rank_calls": (calls["linalg.exact_rank"]
                              + calls["linalg.rank_mod_p"], count),
        "linalg.rank_entries": (counts["rank_entries"], count),
        "subsets.tables_s": (total["subsets.tables_for"], s),
        "subsets.tables_built": (t_misses, count),
        "subsets.tables_hit_ratio": (_ratio(t_hits, t_hits + t_misses), ratio),
        "covers.enumerate_s": (inclusive(covers), s),
        "covers.sets_emitted": (counts["sets_emitted"], count),
        "complexes.order_analysis_s": (total["complexes.order_analysis"], s),
        "complexes.complex_s": (total["complexes.lyubeznik_complex"], s),
        "complexes.census_s": (total["complexes.classification_census"], s),
        "complexes.order_analysis_hit_ratio": (
            _ratio(o_hits, o_hits + o_misses), ratio),
        "generators.radical_gens_s": (total["generators.radical_generators"], s),
        "graphs.check_props_self_s": (
            self_by["graphs.check_graph_propositions"], s),
        "monomials.parse_s": (total["monomials.read_ideal"], s),
        "cli.self_s": (cli_self, s),
        "cli.output_bytes": (sum(r["bytes"] for r in records), "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], s)
    return metrics
