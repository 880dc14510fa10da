"""Layer tracing from outside the program.

`Tracer.install()` replaces the public functions of `gwfloor.counting`,
`diagrams`, `multiplicity`, `gwring` and `cli` with timing wrappers.
Each replacement is made under every module name the original is bound
to, because callers resolve a function through the name they imported:
`counting` imports `enumerate_diagrams`, `merge`, `canonical_key`,
`diagram_mult` and `beta_decompose` by name, and `merge` reaches
`classify` through the `diagrams` module.

A call of a wrapped layer function is a span: name, start, end and the
index of the span that was open when it began.  Spans are kept in memory
and written out by the caller at the end of the run.  A span's self time
is its duration minus the time of the spans (and GW operations) nested
directly inside it, so the self times of all layers plus the uncovered
time add up to the traced wall time.

The `GwElem` operations run millions of times, so they are counted
rather than recorded as spans.  Their time is still taken out of the
enclosing span and reported as `gwring.elem_ops.self_s`.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (layer name, module that defines it, attribute) for every span.
SPANS = (
    ("cli.main", "cli", "main"),
    ("counting.count", "counting", "count"),
    ("diagrams.enumerate_diagrams", "diagrams", "enumerate_diagrams"),
    ("diagrams.merge", "diagrams", "merge"),
    ("diagrams.classify", "diagrams", "classify"),
    ("diagrams.canonical_key", "diagrams", "canonical_key"),
    ("multiplicity.diagram_mult", "multiplicity", "diagram_mult"),
    ("gwring.beta_decompose", "gwring", "beta_decompose"),
    ("gwring.equals_mod", "gwring", "equals_mod"),
)
# GwElem methods wrapped as spans or as counted operations.
METHOD_SPANS = (("gwring.substitute_square", "substitute_square"),)
ELEM_OPS = ("__mul__", "__rmul__", "__add__", "from_coeffs")
CLASS_LABELS = ("twin", "type_a", "free")

LAYERS = tuple(name for name, _, _ in SPANS) + \
    tuple(name for name, _ in METHOD_SPANS) + ("gwring.elem_ops",)


class Tracer:
    """Spans and counts of the layers of one imported gwfloor package."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list = []          # [name, start, end, parent index]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.top_s = 0.0               # time covered by top-level spans and ops
        self._stack: list = []         # [span index, child time] per open span
        self._op_depth = 0
        self._caches: dict = {}        # metric prefix -> the program's lru_cache

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx][1], spans[idx][2] = t0, t1
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _op(self, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls["gwring.elem_ops"] += 1
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._op_depth = 0
                self_s["gwring.elem_ops"] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur

        return wrapper

    # -- per-layer counters -------------------------------------------

    def _hooks(self):
        """(before, after) callbacks that count work at the span boundaries."""
        counts = self.counts

        def on_miss(cache, metric, size):
            # Add size(result) to metric for each call that missed the
            # cache, or for every call once the cache is gone.
            info = getattr(cache, "cache_info", None)
            mark = [0]

            def before(args):
                if info is not None:
                    mark[0] = info().misses

            def after(args, result):
                if info is None or info().misses > mark[0]:
                    counts[metric] += size(result)
            return before, after

        def classify_after(args, result):
            for label in result.classification:
                counts["diagrams.classify." + label[0]] += 1

        def key_before(args):
            counts["diagrams.canonical_key.orderings"] += 1 << len(args[0].pairs)

        return {
            "diagrams.enumerate_diagrams": on_miss(
                self._caches["counting.enumerate_cache"], "diagrams.count", len),
            "counting.count": on_miss(
                self._caches["counting.merged_classes"], "counting.classes",
                lambda result: result.class_count),
            "diagrams.classify": (None, classify_after),
            "diagrams.canonical_key": (key_before, None),
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import importlib
        mods = {m: importlib.import_module(f"{self.pkg.__name__}.{m}")
                for m in ("cli", "counting", "diagrams", "multiplicity", "gwring")}
        bindings = [self.pkg] + list(mods.values())
        self._caches = {
            "counting.merged_classes": getattr(mods["counting"], "merged_classes", None),
            "counting.enumerate_cache": getattr(mods["diagrams"], "enumerate_diagrams", None),
        }
        hooks = self._hooks()
        for name, home, attr in SPANS:
            original = getattr(mods[home], attr, None)
            if original is None:
                self.absent.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self._span(name, original, before, after)
            for mod in bindings:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        elem = getattr(mods["gwring"], "GwElem", None)
        for name, attr in METHOD_SPANS:
            if elem is None or attr not in vars(elem):
                self.absent.append(name)
                continue
            setattr(elem, attr, self._span(name, vars(elem)[attr]))
        if elem is None or not all(attr in vars(elem) for attr in ELEM_OPS):
            self.absent.append("gwring.elem_ops")
            return
        for attr in ELEM_OPS:
            raw = vars(elem)[attr]
            if isinstance(raw, staticmethod):
                setattr(elem, attr, staticmethod(self._op(raw.__func__)))
            else:
                setattr(elem, attr, self._op(raw))

    # -- results ----------------------------------------------------------

    def cache_counts(self) -> dict[str, int]:
        """Hit and miss counts of the program's own lru caches."""
        out = {}
        for metric, fn in self._caches.items():
            if not hasattr(fn, "cache_info"):
                self.absent.append(metric)
                continue
            info = fn.cache_info()
            out[metric + ".hits"], out[metric + ".misses"] = info.hits, info.misses
        return out

    def summary(self, wall_s: float) -> dict:
        """Per-layer calls, self time and counts of one traced run."""
        out: dict = {}
        for layer in LAYERS:
            if layer in self.absent:
                continue
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".self_s"] = self.self_s[layer]
        if "diagrams.enumerate_diagrams" not in self.absent:
            out["diagrams.count"] = self.counts["diagrams.count"]
        if "diagrams.classify" not in self.absent:
            for label in CLASS_LABELS:
                out["diagrams.classify." + label] = \
                    self.counts["diagrams.classify." + label]
        if "diagrams.canonical_key" not in self.absent:
            out["diagrams.canonical_key.orderings"] = \
                self.counts["diagrams.canonical_key.orderings"]
        if "counting.count" not in self.absent:
            out["counting.classes"] = self.counts["counting.classes"]
            merges = self.calls["diagrams.merge"]
            out["counting.dedupe_ratio"] = \
                self.counts["counting.classes"] / merges if merges else 0.0
        out.update(self.cache_counts())
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - self.top_s
        return out
