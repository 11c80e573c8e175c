"""In-memory span tracer that wraps the a2l package's public callables.

``Tracer.install(package)`` replaces every public function and every public
method of the package's modules with a wrapper that records one span per
call: (name, start, end, parent).  The layer of a span is the module that
defines the callable.  Nothing under the package's source tree changes; the
wrappers live in this process only.

Per span name the tracer keeps, split by phase ("setup", "timed", "check",
"probe"):

- count, inclusive time, self time (duration minus all direct children);
- in-layer time: self time plus the in-layer time of direct children of the
  same layer, i.e. the time spent in this layer under the span, with calls
  into other layers taken out;
- work figures from optional per-name hooks, which see each call's
  arguments, result and duration (simulated rounds, samples, bytes), used
  to normalise per-round costs.

Generator functions (the CSV line formatters) are traced per resume, so a
span covers the formatting of one line and never the consumer's work.

Aggregates cover every call.  Raw spans are kept up to ``span_cap`` and
written out by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import defaultdict
from time import perf_counter


class _Stat:
    __slots__ = ("count", "incl", "self_", "inlayer")

    def __init__(self):
        self.count = 0
        self.incl = 0.0
        self.self_ = 0.0
        self.inlayer = 0.0


class Tracer:
    def __init__(self, span_cap=50_000):
        self.phase = "setup"
        self.span_cap = span_cap
        self.names = []              # name id -> "layer.qualname"
        self.layers = []             # name id -> layer
        self.spans = []              # (span id, name id, start, end, parent span id)
        self.stats = defaultdict(_Stat)      # (phase, name) -> _Stat
        self.work = defaultdict(float)       # (phase, name, key) -> total
        self.maxima = {}                     # (phase, name, key) -> max
        self.instances = defaultdict(int)    # (phase, name) -> generator count
        self.hooks = {}                      # name -> fn(args, kwargs, result, dur)
        self._next_id = 0
        # Each open span: [span id, layer, child time, same-layer in-layer time].
        self._stack = [[-1, None, 0.0, 0.0]]
        self.t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def _register(self, layer, qualname):
        self.names.append(f"{layer}.{qualname}")
        self.layers.append(layer)
        return len(self.names) - 1

    def _close(self, nid, layer, start, frame):
        end = perf_counter()
        dur = end - start
        self_t = dur - frame[2]
        inlayer = self_t + frame[3]
        st = self.stats[(self.phase, nid)]
        st.count += 1
        st.incl += dur
        st.self_ += self_t
        st.inlayer += inlayer
        parent = self._stack[-1]
        parent[2] += dur
        if parent[1] == layer:
            parent[3] += inlayer
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], nid, start - self.t0, end - self.t0, parent[0]))
        return dur

    def _wrap_function(self, fn, layer, qualname):
        nid = self._register(layer, qualname)
        name = self.names[nid]
        stack = self._stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.instances[(tracer.phase, nid)] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = [tracer._next_id, layer, 0.0, 0.0]
                    tracer._next_id += 1
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        tracer._close(nid, layer, start, frame)
                    tracer.work[(tracer.phase, nid, "bytes")] += len(item) + 1
                    yield item
            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                frame = [tracer._next_id, layer, 0.0, 0.0]
                tracer._next_id += 1
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = tracer._close(nid, layer, start, frame)
                hook = tracer.hooks.get(name)
                if hook is not None:
                    for key, value in hook(args, kwargs, result, dur).items():
                        if key.endswith("_max"):
                            k = (tracer.phase, nid, key)
                            tracer.maxima[k] = max(tracer.maxima.get(k, 0.0), value)
                        else:
                            tracer.work[(tracer.phase, nid, key)] += value
                return result
            wrapper = traced
        return functools.wraps(fn)(wrapper)

    def install(self, package):
        """Wrap the public callables of every loaded module of ``package``.

        Functions are wrapped where they are defined and every module-level
        reference to them (``from .x import f``) is pointed at the wrapper,
        so calls from one layer into another are seen whichever name they
        use.  Methods are wrapped on their class; properties are left alone.
        """
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        replaced = {}
        for mod in modules:
            if mod is package:
                continue
            layer = mod.__name__.removeprefix(prefix)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = self._wrap_function(obj, layer, attr)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(raw, types.FunctionType):
                setattr(cls, attr, self._wrap_function(raw, layer, qual))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap_function(raw.__func__, layer, qual)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap_function(raw.__func__, layer, qual)))

    # -- queries -----------------------------------------------------------

    def ids(self, *names):
        return [i for i, n in enumerate(self.names) if n in names]

    def layer_ids(self, layer):
        return [i for i, lay in enumerate(self.layers) if lay == layer]

    def total(self, phases, nids, field):
        return sum(getattr(self.stats[(p, i)], field)
                   for p in phases for i in nids if (p, i) in self.stats)

    def work_total(self, phases, nids, key):
        return sum(self.work.get((p, i, key), 0.0) for p in phases for i in nids)

    def work_max(self, phases, nids, key):
        return max((self.maxima.get((p, i, key), 0.0) for p in phases for i in nids),
                   default=0.0)

    def instance_count(self, phases, nids):
        return sum(self.instances.get((p, i), 0) for p in phases for i in nids)

    def layer_self_seconds(self, phases):
        """Self time per layer: each instant goes to the innermost span."""
        out = defaultdict(float)
        for (phase, nid), st in self.stats.items():
            if phase in phases:
                out[self.layers[nid]] += st.self_
        return dict(out)

    def dump(self, path):
        """Write the kept spans and the per-name aggregates as JSON."""
        agg = [
            {"phase": p, "name": self.names[i], "count": st.count, "incl_s": st.incl,
             "self_s": st.self_, "inlayer_s": st.inlayer}
            for (p, i), st in sorted(self.stats.items())
        ]
        with open(path, "w") as f:
            json.dump({
                "names": self.names,
                "span_fields": ["span_id", "name_id", "start_s", "end_s", "parent_span_id"],
                "spans_kept": len(self.spans),
                "spans_total": self._next_id,
                "spans": self.spans,
                "aggregates": agg,
            }, f)
