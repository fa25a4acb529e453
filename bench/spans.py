"""Spans around the public functions of each hypiso module.

The benchmark wraps functions from the outside, so the library itself
carries no tracing code.  `install` builds a wrapper that records a
span for every public function of the listed modules (and the public
methods of the classes they define), for every hypiso namespace that
holds a reference to it, so calls made through `from .x import f`
copies are seen too.  `switch` puts the wrappers in or takes them out.

Spans are kept in memory as flat arrays (name id, parent span, start,
end, in nanoseconds) and written out once, by `Tracer.write`.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("geom", "spline", "steiner", "bodies", "optimize", "render",
          "serialize", "cli")

# private functions that get a span anyway, under the name given here
EXTRA_SPANS = {("cli", "_load_body"): "cli.load_body"}

# per-call amounts summed next to the spans: name -> (key, from result)
_AMOUNTS = {
    "spline.sample_frames": ("points", lambda res: len(res[0])),
    "bodies.boundary_proximity": ("points", lambda res: len(res[0])),
    "render.render_svg": ("bytes", len),
    "serialize.dumps": ("bytes", len),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._clock = time.perf_counter_ns
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.amounts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        amount = _AMOUNTS.get(name)
        stack = self._stack
        clock = self._clock
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(clock())
            span_end.append(0)
            stack.append(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if amount is not None:
                key = f"{name}.{amount[0]}"
                self.amounts[key] = self.amounts.get(key, 0) + amount[1](res)
            return res

        return traced

    def summary(self) -> dict:
        """Per name: calls, total seconds, self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_ns, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            if name in out:  # same name wrapped twice: merge
                o = out[name]
                o["calls"] += int(calls[i])
                o["total_s"] += total[i] * 1e-9
                o["self_s"] += selft[i] * 1e-9
            else:
                out[name] = {"calls": int(calls[i]),
                             "total_s": total[i] * 1e-9,
                             "self_s": selft[i] * 1e-9}
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64))


def _public_functions(mod):
    """(qualified name, owner, attribute, function) for one module."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(mod).items()):
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            name = EXTRA_SPANS.get((layer, attr))
            if name is None and attr.startswith("_"):
                continue
            yield name or f"{layer}.{attr}", mod, attr, obj
        elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
              and not attr.startswith("_")):
            for mname, raw in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if isinstance(raw, staticmethod):
                    yield (f"{layer}.{mname}", obj, mname, raw.__func__)
                elif inspect.isfunction(raw):
                    yield (f"{layer}.{mname}", obj, mname, raw)


def install(tracer: Tracer, package: str = "hypiso") -> list:
    """Wrap every public function of every layer.

    Returns the patches as (owner, attribute, original, wrapped) for
    `switch`; the wrappers are not in place yet.
    """
    mods = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
    namespaces = [sys.modules[package]] + mods
    patches, seen = [], set()
    for mod in mods:
        for name, owner, attr, fn in list(_public_functions(mod)):
            if id(fn) in seen:
                continue  # a second name for the same function
            seen.add(id(fn))
            wrapped = tracer.wrap(name, fn)
            if inspect.isclass(owner):
                raw = vars(owner)[attr]
                patches.append((owner, attr, raw, staticmethod(wrapped)
                                if isinstance(raw, staticmethod)
                                else wrapped))
            else:
                patches += [(ns, k, fn, wrapped) for ns in namespaces
                            for k, v in vars(ns).items() if v is fn]
    return patches


def switch(patches: list, on: bool) -> None:
    """Put the wrappers in (on) or the original functions back."""
    for owner, attr, original, wrapped in patches:
        setattr(owner, attr, wrapped if on else original)
