"""Span tracer for the traced benchmark run.

install() wraps every public function of each pathmn layer module at every
module binding that holds it (add_ribbons is bound in both ribbons and
symfunc, for instance), the __init__ and public methods of the classes those
modules define, and records garbage-collector pauses through gc.callbacks.
uninstall() puts every original object back.

Spans are aggregated as they close instead of being kept one by one, which
keeps memory flat over millions of calls: each open span sits on a stack,
its parent is the span below it, and a closing span adds its duration to its
parent's child time. Self time is duration minus child time; the parent ->
child edges are kept with their call counts and times.
"""

import functools
import gc
import inspect
import sys
from time import perf_counter

LAYERS = ("partitions", "partial_perm", "ribbons", "symfunc", "characters", "statistics", "cli")
_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


class _Stat:
    __slots__ = ("calls", "spans", "self_s", "total_s", "nonnull", "yields")

    def __init__(self):
        self.calls = self.spans = self.nonnull = self.yields = 0
        self.self_s = self.total_s = 0.0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.edges = {}  # (parent name, child name) -> [spans, total_s]
        self.caches = {}  # name -> original memoized function
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._gc_start = None

    # -- spans ------------------------------------------------------------

    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def _span(self, stat, name, fn, args, kwargs):
        stack = self._stack
        frame = [0.0, name]  # child time, name
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stat.spans += 1
            stat.total_s += dt
            stat.self_s += dt - frame[0]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[0] += dt
            edge = (parent[1] if parent is not None else "<root>", name)
            rec = self.edges.get(edge)
            if rec is None:
                self.edges[edge] = [1, dt]
            else:
                rec[0] += 1
                rec[1] += dt

    def _wrap(self, name, fn):
        stat = self._stat(name)
        span = self._span

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # one span per resume, so the consumer's time is not counted
                stat.calls += 1
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(stat, name, next, (gen,), {})
                    except StopIteration:
                        return
                    stat.yields += 1
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                result = span(stat, name, fn, args, kwargs)
                if result is not None:
                    stat.nonnull += 1
                return result

        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap the layers of the already imported pathmn package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pathmn" or name.startswith("pathmn."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"pathmn.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    self.caches[f"{layer}.{attr}"] = obj
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
                elif callable(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for holder in holders:
                        for name in [k for k, v in vars(holder).items() if v is obj]:
                            self._patch(holder, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, name, cls):
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                self._patch(cls, attr, self._wrap(f"{name}.{attr}", obj))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def patched(self):
        """(owner, attribute, original) for every binding install() replaced."""
        return list(self._patches)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- report -----------------------------------------------------------

    def report(self):
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "stats": {k: v.as_dict() for k, v in sorted(self.stats.items())},
            "caches": caches,
            "edges": [[p, c, n, t] for (p, c), (n, t) in sorted(self.edges.items())],
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
        }


def resolve(name, trace):
    """Value of a declared per-layer metric from a traced pass, or None if absent.

    <fn>.calls/.self_s/.yields/.tilings/.merged/.clashes/.merge_ratio come from
    the span of that function, <Class>.inits/.init_s from its __init__ span,
    <memo>.cache_hits/.cache_misses/.cache_size from cache_info().
    """
    base, _, field = name.rpartition(".")
    stats, caches = trace["stats"], trace["caches"]
    if field.startswith("cache_"):
        info = caches.get(base)
        return None if info is None else info[field[len("cache_"):]]
    if field in ("inits", "init_s"):
        base, field = base + ".__init__", "calls" if field == "inits" else "self_s"
    if base not in stats:
        return None
    s = stats[base]
    if field in ("calls", "self_s", "yields"):
        return s[field]
    if field == "tilings":
        return s["yields"]
    if field == "merged":
        return s["nonnull"]
    if field == "clashes":
        return s["calls"] - s["nonnull"]
    if field == "merge_ratio":
        return s["nonnull"] / s["calls"] if s["calls"] else 0.0
    return None
