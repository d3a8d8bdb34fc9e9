"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces module-level functions of the cwg layers (and two
methods) with wrappers that record one span per call: name, start, end,
parent span and op id.  Names re-imported into other cwg modules (for example
``cli.search_hom_rk``) are replaced too, so every call path is seen.  Spans
stay in memory in flat arrays and are written once, at the end.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested in this single-threaded program, so the self times
of the spans under one root add up to the root's duration.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "core", "constructions", "embedding", "homomorphism", "analysis", "search")

# Constant-time lookups: a span each would cost more than the call itself,
# so their time stays with the caller.
UNTRACED = {"core.pair_list", "core.pair_pos", "core.num_pairs"}
# Recursive backtracking step: counted, not spanned (one call per search node).
COUNT_ONLY = {"embedding._extend"}
METHODS = {
    "core.ColoredGraph": ("core", "ColoredGraph", "__init__"),
    "search.FamilyChecker.is_free_graph": ("search", "FamilyChecker", "is_free_graph"),
}

SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.op = SETUP_OP
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        # Self time of the spans opened during the ops (set-up excluded).
        self.op_self_s = 0.0
        # One entry per span, columns in parallel arrays.
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_op = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        # Open spans: [span index, start, time covered by child spans].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _recorders(self, nid: int):
        clock = time.perf_counter
        stack = self._stack
        col_name, col_parent, col_op = self.col_name, self.col_parent, self.col_op
        col_start, col_end = self.col_start, self.col_end
        calls, self_s = self.calls, self.self_s

        def open_span() -> list:
            index = len(col_start)
            col_name.append(nid)
            col_parent.append(stack[-1][0] if stack else -1)
            col_op.append(self.op)
            col_end.append(0.0)
            frame = [index, clock(), 0.0]
            col_start.append(frame[1])
            stack.append(frame)
            return frame

        def close_span(frame: list) -> None:
            end = clock()
            stack.pop()
            col_end[frame[0]] = end
            duration = end - frame[1]
            calls[nid] += 1
            self_s[nid] += duration - frame[2]
            if col_op[frame[0]] != SETUP_OP:
                self.op_self_s += duration - frame[2]
            if stack:
                stack[-1][2] += duration

        return open_span, close_span

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        if name in COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)

            return counted
        open_span, close_span = self._recorders(nid)
        if inspect.isgeneratorfunction(fn):
            # The work happens in next(), so each resumption is one span.
            def generator(*args, **kwargs):
                if on_result is not None:
                    on_result(args, kwargs, None)
                inner = fn(*args, **kwargs)
                while True:
                    frame = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(frame)
                    if on_result is not None:
                        on_result(args, kwargs, item)
                    yield item

            return generator

        def spanned(*args, **kwargs):
            frame = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(frame)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return spanned

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of the cwg layers, wherever it is bound."""
        import cwg

        modules = [cwg] + [sys.modules["cwg." + layer] for layer in LAYERS]
        hooks = _hooks(self)
        for layer in LAYERS:
            module = sys.modules["cwg." + layer]
            for attr, fn in list(vars(module).items()):
                name = "%s.%s" % (layer, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in UNTRACED:
                    continue
                wrapper = self.wrap(name, fn, hooks.get(name))
                for owner in modules:
                    for owner_attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, owner_attr, wrapper)
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules["cwg." + layer], cls_name)
            self._set(cls, attr, self.wrap(name, vars(cls)[attr], hooks.get(name)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def metric(self, name: str, stat: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return self.calls[nid] if stat == "calls" else self.self_s[nid]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end
        (seconds from the first span)."""
        t0 = self.col_start[0] if self.col_start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.col_start)):
                op = self.col_op[i]
                fh.write(
                    "%d\t%d\t%s\t%s\t%.7f\t%.7f\n"
                    % (
                        i,
                        self.col_parent[i],
                        "setup" if op == SETUP_OP else op_labels[op],
                        self.names[self.col_name[i]],
                        self.col_start[i] - t0,
                        self.col_end[i] - t0,
                    )
                )


def _hooks(tracer: Tracer) -> dict[str, Callable]:
    """Counters read from the arguments or results of particular calls.

    A hook gets (args, kwargs, result).  For a generator function it gets
    result None once per call, then each yielded item."""
    from cwg import search

    add = tracer.add
    scan_sig = inspect.signature(search._scan_raw)

    def scan(args, kwargs, item) -> None:
        if item is None:
            bound = scan_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            add("search._scan_raw.codes", a["hi"] - a["lo"])
            add("search._scan_raw.chunks", -(-(a["hi"] - a["lo"]) // a["chunk"]))
        else:
            add("search._scan_raw.survivors", len(item))

    def hits(name):
        def hook(args, kwargs, result) -> None:
            add(name + ".hits", result is not None)

        return hook

    def hom(name):
        def hook(args, kwargs, result) -> None:
            add(name + ".nodes", result.nodes)
            add(name + ".hits", result.exists)

        return hook

    return {
        "search._scan_raw": scan,
        "search._compile_conditions": lambda a, k, r: add("search._compile_conditions.conditions", len(r)),
        "search.compute_ex": lambda a, k, r: add("search.compute_ex.nodes", r.statistics["nodes"]),
        "core._min_relabelling": lambda a, k, r: add("core._min_relabelling.perms", math.factorial(a[0].n)),
        "embedding.find_embedding": hits("embedding.find_embedding"),
        "embedding.find_embedding_using_pair": hits("embedding.find_embedding_using_pair"),
        "homomorphism.search_hom_rk": hom("homomorphism.search_hom_rk"),
        "homomorphism.search_hom_rk_minus": hom("homomorphism.search_hom_rk_minus"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _unit(name: str) -> str:
    stat = name.rpartition(".")[2]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat.endswith(("_ratio", "_frac")) else "count"


# Per-layer metrics in reporting order: name -> (unit, better).  Layer self
# times first, then the single functions the optimisations target.
PER_LAYER: dict[str, tuple[str, str]] = {
    name: (_unit(name), "higher" if name.endswith((".hit_ratio", ".self_sum_frac")) else "lower")
    for name in [layer + ".self_s" for layer in LAYERS] + [
        "search._scan_raw.self_s",
        "search._scan_raw.chunks",
        "search._scan_raw.survivors",
        "search._scan_raw.survivor_ratio",
        "search.empirical_threshold.self_s",
        "search._compile_conditions.self_s",
        "search._compile_conditions.conditions",
        "search.graph_from_code.calls",
        "core._min_relabelling.calls",
        "core._min_relabelling.self_s",
        "core._min_relabelling.perms",
        "search.FamilyChecker.is_free_graph.calls",
        "search.FamilyChecker.is_free_graph.self_s",
        "core.ColoredGraph.calls",
        "core.ColoredGraph.self_s",
        "embedding._search_order.calls",
        "embedding._search_order.self_s",
        "embedding.find_embedding_using_pair.calls",
        "embedding.find_embedding_using_pair.self_s",
        "embedding.find_embedding_using_pair.hit_ratio",
        "analysis.find_embedding_using_pair_any.calls",
        "analysis.find_embedding_using_pair_any.self_s",
        "search.compute_ex.nodes",
        "embedding._extend.calls",
        "embedding.is_free.calls",
        "embedding.is_free.self_s",
        "embedding.find_embedding.calls",
        "embedding.find_embedding.self_s",
        "embedding.find_embedding.hit_ratio",
        "embedding.find_clique.calls",
        "embedding.find_clique.self_s",
        "homomorphism.search_hom_rk.calls",
        "homomorphism.search_hom_rk.self_s",
        "homomorphism.search_hom_rk.nodes",
        "homomorphism.search_hom_rk.hit_ratio",
        "homomorphism.search_hom_rk_minus.calls",
        "homomorphism.search_hom_rk_minus.self_s",
        "homomorphism.search_hom_rk_minus.nodes",
        "homomorphism.search_hom_rk_minus.hit_ratio",
        "homomorphism.verify_certificate.self_s",
        "analysis.extremal_completion.self_s",
        "analysis.decompose.self_s",
        "analysis.build_structure_report.self_s",
        "core.read_cwg.self_s",
        "cli.main.self_s",
        "process.cpu_s",
        "calibration.block_s",
        "trace.wall_s",
        "trace.self_sum_frac",
        "trace.overhead_ratio",
    ]
}


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round, except the three that need
    other rounds or the calibration blocks (process.cpu_s,
    calibration.block_s, trace.overhead_ratio)."""
    out: dict[str, float] = {}
    counts = tracer.counts
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if base in LAYERS:
            out[name] = tracer.layer_self_s(base)
        elif stat in ("calls", "self_s"):
            out[name] = tracer.metric(base, stat)
        elif stat == "hit_ratio":
            out[name] = _ratio(counts.get(base + ".hits", 0), tracer.metric(base, "calls"))
        elif stat == "survivor_ratio":
            out[name] = _ratio(counts.get(base + ".survivors", 0), counts.get(base + ".codes", 0))
        elif name in counts or base.split(".")[0] in LAYERS:
            out[name] = counts.get(name, 0)
    out["trace.wall_s"] = traced_wall_s
    out["trace.self_sum_frac"] = _ratio(tracer.op_self_s, traced_wall_s)
    return out
