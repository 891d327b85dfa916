"""Outside-in tracing of the sumgames layers.

The tracer replaces public functions and methods of the package with
wrappers that record a span per call, and puts the originals back when the
traced pass ends.  A module-level function is replaced in every sumgames
module that holds it (``sumgames.search.fs_enumerate`` as well as
``sumgames.semigroups.fs_enumerate``), because callers look it up in their
own module.  No file of the package is changed.

Spans are kept in memory (name, parent, start, end) and written out once,
after the run.  Per-name call counts and self times are accumulated as
the spans close: self time is a span's duration minus the time its child
spans cover.

Two targets only count calls: ``semigroups.block_chains`` is a generator,
so the wrapper sees only its creation and the time spent iterating it
lands in the caller's self time; ``search._NodeBudget.spend`` is the node
counter of every backtracking search, the one private name the benchmark
touches.
"""
from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

# (layer, qualified name, mode).  "span" records timed spans, "count" only
# counts calls.  Layers are the sumgames modules.
TARGETS = (
    ("semigroups", "fs_enumerate", "span"),
    ("semigroups", "proper_violation", "span"),
    ("semigroups", "indexed_sum", "span"),
    ("semigroups", "sum_hypergraph", "span"),
    ("semigroups", "take_sumsequence", "span"),
    ("semigroups", "block_chains", "count"),
    ("coloring", "Coloring.of_set", "span"),
    ("search", "mt_search", "span"),
    ("search", "hindman_search", "span"),
    ("search", "proper_or_collapse", "span"),
    ("search", "threshold_search", "span"),
    ("search", "verify_mt_witness", "span"),
    ("search", "verify_hindman_witness", "span"),
    ("search", "verify_dichotomy", "span"),
    ("search", "_NodeBudget.spend", "count"),
    ("covers", "classify_cover", "span"),
    ("covers", "Cover.set_at", "span"),
    ("partition", "menger_mt_search", "span"),
    ("partition", "DescendingCovers.member_set", "span"),
    ("partition", "DescendingCovers.allowed_indices", "span"),
    ("partition", "verify_partition_witness", "span"),
    ("filters", "verify_duality_laws", "span"),
    ("filters", "chain_check", "span"),
    ("games", "play", "span"),
    ("games", "judge", "span"),
    ("games", "diagonal_transfer", "span"),
    ("games", "reconstruct_parallel_plays", "span"),
    ("cli", "parse_config", "span"),
    ("cli", "dispatch", "span"),
    ("cli", "format_report", "span"),
)

# The verify-report command is one more dispatch; its span is named apart
# so that verification shows separately from producing reports.
VERIFY_REPORT = "cli.verify_report"
NODES = "search.nodes"
NODE_COUNTER = "search._NodeBudget.spend"

# Outermost spans of these names make up the search time behind
# search.nodes_per_s.
SEARCH_ENTRIES = frozenset({
    "search.mt_search", "search.hindman_search", "search.proper_or_collapse",
    "search.threshold_search", "partition.menger_mt_search",
})


def span_names() -> list:
    """Every span name the tracer can emit, in table order."""
    names = [f"{layer}.{qual}" for layer, qual, mode in TARGETS if mode == "span"]
    names.insert(names.index("cli.dispatch") + 1, VERIFY_REPORT)
    return names


def count_names() -> list:
    return [f"{layer}.{qual}" for layer, qual, mode in TARGETS if mode == "count"]


def per_layer_metric_names() -> list:
    """Names of the per-layer metrics, in the order they are reported."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
    out += [f"{n}.calls" for n in count_names() if n != NODE_COUNTER]
    out += [NODES, "search.nodes_per_s", "trace.overhead_ratio"]
    return out


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    own: bool  # the attribute lived in owner's own namespace


class Tracer:
    """Installs the wrappers, records spans, and restores the package."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.names = span_names()
        self.name_index = {n: i for i, n in enumerate(self.names)}
        self.calls = {n: 0 for n in self.names + count_names()}
        self.self_s = {n: 0.0 for n in self.names}
        self.search_s = 0.0
        self.absent: list = []
        self.dropped = 0
        # span log: name index, parent position, start, end
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list = []      # [name, start, child time, log position]
        self._search_depth = 0
        self._patches: list = []

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "sumgames" or k.startswith("sumgames."))]
        for layer, qual, mode in TARGETS:
            name = f"{layer}.{qual}"
            module = sys.modules.get(f"sumgames.{layer}")
            owner, attr = module, qual
            if module is not None and "." in qual:
                cls_name, attr = qual.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = (self._counter(name, original) if mode == "count"
                       else self._spanner(name, original))
            if owner is module:
                # every module that imported the function holds its own binding
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patches.append(_Patch(owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            p = self._patches.pop()
            if p.own:
                setattr(p.owner, p.attr, p.original)
            else:
                delattr(p.owner, p.attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers --------------------------------------------------------------

    def _counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _spanner(self, name: str, fn):
        tracer = self

        def spanned(*args, **kwargs):
            label = name
            if name == "cli.dispatch" and getattr(args[0], "command", None) == "verify-report":
                label = VERIFY_REPORT
            tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        spanned.__wrapped__ = fn
        return spanned

    def _open(self, name: str) -> None:
        pos = -1
        if len(self._name) < self.span_cap:
            pos = len(self._name)
            self._name.append(self.name_index[name])
            self._parent.append(self._stack[-1][3] if self._stack else -1)
            self._start.append(0.0)
            self._end.append(0.0)
        else:
            self.dropped += 1
        if name in SEARCH_ENTRIES:
            self._search_depth += 1
        start = time.perf_counter()
        self._stack.append([name, start, 0.0, pos])
        if pos >= 0:
            self._start[pos] = start

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, pos = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name in SEARCH_ENTRIES:
            self._search_depth -= 1
            if self._search_depth == 0:
                self.search_s += duration
        if pos >= 0:
            self._end[pos] = end

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, each averaged over the traced passes."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for name in count_names():
            if name != NODE_COUNTER:
                out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        nodes = self.calls[NODE_COUNTER]
        out[NODES] = (nodes / passes, "count")
        out["search.nodes_per_s"] = (nodes / self.search_s if self.search_s else 0.0, "1/s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write the span log as tab-separated lines; returns the count."""
        with open(path, "w") as fh:
            fh.write("# span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._name)):
                fh.write(f"{i}\t{self._parent[i]}\t{self.names[self._name[i]]}\t"
                         f"{self._start[i]:.9f}\t{self._end[i]:.9f}\n")
        return len(self._name)

