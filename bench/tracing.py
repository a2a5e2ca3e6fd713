"""Timing wrappers installed around spdim's public functions, from outside.

The traced run replaces every name through which callers reach a layer
boundary (module attributes in any ``spdim`` module that refer to the same
function object, or the method on its class) with a wrapper that records a
span, then restores the originals.  Nothing under ``src/`` is edited.

Self time of a boundary is its duration minus the time covered by the
boundaries it called.  ``stdecomp.lca`` runs once per incomparable pair, so it
is aggregated (calls, time) instead of kept as individual spans.
"""

import functools
import gc
import sys
import time
from collections import Counter, defaultdict

# (stat key, module, attribute path, keep individual spans)
BOUNDARIES = [
    ("poset.parse", "spdim.poset", "loads", True),
    ("poset.inc_pairs", "spdim.poset", "Poset.incomparable_pairs", True),
    ("poset.extension", "spdim.poset", "Poset.linear_extension_reversing", True),
    ("poset.verify", "spdim.poset", "Poset.realizer_violations", True),
    ("graphs.cover_graph", "spdim.poset", "Poset.cover_graph", True),
    ("spembed.tw2_test", "spdim.spembed", "has_treewidth_at_most_2", True),
    ("spembed.embed", "spdim.spembed", "embed_into_sp", True),
    ("spembed.embed", "spdim.spembed", "augment_with_fresh_terminals", True),
    ("stdecomp.build", "spdim.stdecomp", "build_st_decomposition", True),
    ("stdecomp.lca", "spdim.stdecomp", "STDecomposition.lca", False),
    ("realizer.classify", "spdim.realizer", "ClassifiedInstance.__init__", True),
    ("realizer.partition", "spdim.realizer", "partition_inc_pairs", True),
    ("realizer.realize", "spdim.realizer", "realize_tw2", True),
    ("realizer.serialize", "spdim.realizer", "dumps_realizer", True),
    ("realizer.serialize", "spdim.realizer", "loads_realizer", True),
    ("exactdim.oracle", "spdim.exactdim", "dimension_exact", True),
    ("generators.gen", "spdim.generators", "generate", True),
]


def _count_embedding(counters, args, result):
    counters["spembed.fill_edges"] += len(result.added_edges)
    counters["spembed.added_vertices"] += len(result.added_vertices)


def _count_decomposition(counters, args, result):
    counters["stdecomp.nodes"] += len(result.nodes)
    depth = max(result.depth(node.id) for node in result.nodes)
    counters["stdecomp.depth_max"] = max(counters["stdecomp.depth_max"], depth)


def _count_classification(counters, args, result):
    counters["realizer.inc_pairs"] += len(args[0].classification)


def _count_partition(counters, args, result):
    counters["realizer.classes_nonempty"] += len(result)


def _count_dimension(counters, args, result):
    counters["exactdim.dimension_max"] = max(counters["exactdim.dimension_max"],
                                             result.dimension)


# Counters read off a boundary's result.  Fill counts come from embed_into_sp
# alone, so the two fresh outer terminals are not counted as fill.
AFTER = {
    "embed_into_sp": _count_embedding,
    "build_st_decomposition": _count_decomposition,
    "ClassifiedInstance.__init__": _count_classification,
    "partition_inc_pairs": _count_partition,
    "dimension_exact": _count_dimension,
}


class Tracer:
    """Spans and per-boundary totals, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []              # (id, name, start, end, parent id, instance)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.counters = Counter()
        self.instance = None
        self._stack = [[0.0, None]]  # frames: [time covered by children, span id]
        self._restore = []
        self.missing = set()         # boundaries the program no longer has
        self._gc_start = None

    def reset(self):
        "Start a new pass: totals and counters go back to zero; spans stay."
        self.stats.clear()
        self.counters.clear()

    def span(self, name, fn, *args, after=None, **kwargs):
        "Call ``fn`` inside a span named ``name``."
        stack = self._stack
        span_id = len(self.spans)
        frame = [0.0, span_id]
        parent = stack[-1][1]
        self.spans.append(None)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            stack[-1][0] += duration
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]
            self.spans[span_id] = (span_id, name, start, end, parent, self.instance)
        if after is not None:
            after(self.counters, args, result)
        return result

    def _wrapper(self, name, fn, keep, after):
        if keep:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, after=after, **kwargs)
            return traced
        # A per-pair leaf: count and time it without a span, as cheaply as
        # possible, since its wrapper runs once per incomparable pair.
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            stack[-1][0] += duration
            entry = stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration
            return result
        return counted

    def install(self):
        "Wrap every boundary at each name callers look it up by."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spdim" or key.startswith("spdim."))]
        for name, module, path, keep in BOUNDARIES:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                # A refactor removed this boundary: its figures read 0.
                self.missing.add("%s.%s" % (module, path))
                continue
            wrapper = self._wrapper(name, original, keep, AFTER.get(path))
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counters["runtime.gc_collections"] += 1
            self.counters["runtime.gc_s"] += time.perf_counter() - self._gc_start
            self._gc_start = None

    def self_time(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_time_prefix(self, prefix):
        return sum(entry[2] for name, entry in self.stats.items() if name.startswith(prefix))

    def layer_metrics(self):
        "Per-layer figures for the pass since the last ``reset``."
        c = self.counters
        return {
            "poset.parse_s": self.self_time("poset.parse"),
            "poset.inc_pairs_s": self.self_time("poset.inc_pairs"),
            "poset.inc_pairs_calls": self.calls("poset.inc_pairs"),
            "poset.extension_s": self.self_time("poset.extension"),
            "poset.extension_calls": self.calls("poset.extension"),
            "poset.verify_s": self.self_time("poset.verify"),
            "graphs.cover_graph_s": self.self_time("graphs.cover_graph"),
            "graphs.cover_graph_calls": self.calls("graphs.cover_graph"),
            "spembed.tw2_test_s": self.self_time("spembed.tw2_test"),
            "spembed.tw2_test_calls": self.calls("spembed.tw2_test"),
            "spembed.embed_s": self.self_time("spembed.embed"),
            "spembed.fill_edges": c["spembed.fill_edges"],
            "spembed.added_vertices": c["spembed.added_vertices"],
            "stdecomp.build_s": self.self_time("stdecomp.build"),
            "stdecomp.nodes": c["stdecomp.nodes"],
            "stdecomp.depth_max": c["stdecomp.depth_max"],
            "stdecomp.lca_calls": self.calls("stdecomp.lca"),
            "stdecomp.lca_s": self.self_time("stdecomp.lca"),
            "realizer.classify_s": self.self_time("realizer.classify"),
            "realizer.partition_s": self.self_time("realizer.partition"),
            "realizer.realize_self_s": self.self_time("realizer.realize"),
            "realizer.serialize_s": self.self_time("realizer.serialize"),
            "realizer.inc_pairs": c["realizer.inc_pairs"],
            "realizer.classes_nonempty": c["realizer.classes_nonempty"],
            "exactdim.oracle_s": self.self_time("exactdim.oracle"),
            "exactdim.oracle_calls": self.calls("exactdim.oracle"),
            "exactdim.dimension_max": c["exactdim.dimension_max"],
            "cli.self_s": self.self_time_prefix("cli."),
            "runtime.gc_s": c["runtime.gc_s"],
            "runtime.gc_collections": c["runtime.gc_collections"],
        }
