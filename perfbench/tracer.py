"""Layer spans timed from outside the simulator.

The tracer swaps functions for timing wrappers at the names the calling
module binds them under (``hccasim.engine.txop_reference``, not
``hccasim.hcca.txop_reference``), so no code under ``src/`` changes and
the untraced program is the program users run. Every swapped attribute is
put back by ``restore``.

Each call becomes a span (name, parent, start, end) kept in flat arrays.
Call counts, inclusive time and self time (the span minus the part its
child spans cover) are accumulated per span name while the program runs.
A span's layer is the hccasim module that defines the function.
"""

import heapq
import importlib
import inspect
import json
import time
import types
from array import array
from contextlib import contextmanager

# Modules whose functions are layers. util (exact-arithmetic helpers) and
# errors are leaf helpers called everywhere; wrapping them would time the
# tracer more than the program.
LAYERS = ("phy", "traces", "hcca", "adaptive", "engine", "metrics", "analytic", "experiment")

# Calls that stay inside one module and so are missed by the cross-module
# rule below, but mark a boundary the benchmark reports on. A name a later
# version of the program no longer has is skipped.
SAME_MODULE = {
    "engine": ("apply_channel", "advance_mobility"),
    "analytic": ("d_si",),
    "experiment": (
        "load_config", "expand_scenarios", "run_experiment", "validate_analytic",
        "_row_from_result", "_fill_utilization", "write_csv", "write_validation_csv",
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []    # layer index per name
        self.layers = []
        self._ids = {}
        self._saved = []
        self.clear()

    def clear(self):
        """Drop recorded spans and totals; keeps the installed wrappers."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []      # [span index, start, child time]
        n = len(self.names)
        self.calls = [0] * n
        self.incl_s = [0.0] * n   # outermost spans of each name
        self.self_s = [0.0] * n
        self._depth = [0] * n     # open spans per name, so recursion counts once
        self.layer_s = [0.0] * len(self.layers)   # outermost spans of each layer
        self._ldepth = [0] * len(self.layers)

    def _name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            if layer not in self.layers:
                self.layers.append(layer)
                self.layer_s.append(0.0)
                self._ldepth.append(0)
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layer_of.append(self.layers.index(layer))
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    # -- spans -----------------------------------------------------------

    def enter(self, nid):
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self._depth[nid] += 1
        self._ldepth[self.layer_of[nid]] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        stack.append([idx, start, 0.0])

    def exit(self, nid):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.incl_s[nid] += dur
        lid = self.layer_of[nid]
        self._ldepth[lid] -= 1
        if not self._ldepth[lid]:
            self.layer_s[lid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        nid = self._name_id(name, "bench")
        self.enter(nid)
        try:
            yield
        finally:
            self.exit(nid)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, nid):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(nid)

        traced.__wrapped__ = fn
        return traced

    def swap(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every function one layer module imports from another, the
        SAME_MODULE boundaries, and RunResult.report, at the binding the
        caller uses."""
        mods = {name: importlib.import_module(f"hccasim.{name}") for name in LAYERS}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ == mod.__name__:
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer in LAYERS:
                    self._wrap_attr(mod, attr, obj, layer)
            for attr in SAME_MODULE.get(short, ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    self._wrap_attr(mod, attr, obj, short)
        run_result = getattr(mods["engine"], "RunResult", None)
        if run_result is not None and inspect.isfunction(getattr(run_result, "report", None)):
            # report() is what row building calls to turn a run into metrics
            nid = self._name_id("metrics.RunResult.report", "metrics")
            self.swap(run_result, "report", self._wrap(run_result.report, nid))

    def _wrap_attr(self, owner, attr, fn, layer):
        nid = self._name_id(f"{layer}.{fn.__name__}", layer)
        self.swap(owner, attr, self._wrap(fn, nid))

    def restore(self):
        """Put back every swapped attribute, newest first, and check that
        the originals are in place."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- results ---------------------------------------------------------

    def by_layer(self):
        """Per layer: calls, self time, and inclusive time of the outermost
        spans of that layer (calls within the layer count once)."""
        out = {layer: {"calls": 0, "self_s": 0.0, "time_s": self.layer_s[lid]}
               for lid, layer in enumerate(self.layers)}
        for nid, lid in enumerate(self.layer_of):
            out[self.layers[lid]]["calls"] += self.calls[nid]
            out[self.layers[lid]]["self_s"] += self.self_s[nid]
        return out

    def time_of(self, *names):
        """Inclusive time of the outermost spans of the given names."""
        return sum(self.incl_s[self._ids[n]] for n in names if n in self._ids)

    def calls_of(self, *names):
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def write(self, stem):
        """Spans to ``stem.spans.bin`` (four columns in native byte order,
        one after the other: name id int32, parent span int32, start
        float64, end float64) and the name table with totals to
        ``stem.spans.json``."""
        with open(f"{stem}.spans.bin", "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)
        table = [
            {"name": n, "layer": self.layers[self.layer_of[i]], "calls": self.calls[i],
             "incl_s": self.incl_s[i], "self_s": self.self_s[i]}
            for i, n in enumerate(self.names)
        ]
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"n_spans": len(self.span_name),
                       "columns": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                       "names": table}, fh, indent=1)


class HeapCounter:
    """Stand-in for the ``heapq`` module the engine imports: counts every
    pop, so the number of events the engine processed can be checked
    against the count derived from a RunResult."""

    def __init__(self):
        self.pops = 0
        self.module = types.SimpleNamespace(heappush=heapq.heappush, heappop=self._pop)

    def _pop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)
