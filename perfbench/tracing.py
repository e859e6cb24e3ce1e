"""Outside-in tracing of the debruijn layers for the traced run.

The tracer replaces public functions at the module attributes their
callers look up (every ``debruijn.*`` module that imported the function
gets the wrapper), and wraps term ``==`` and ``hash`` on the term
classes.  A *spanned* function records a span (name, tag, start, end,
parent); a *counted* function, one called about once per node, only
bumps a counter so that tracing does not swamp it.  A nested call of a
spanned function from inside its own span (self-recursion through a
module global) is passed straight through.

Spans and counts are kept in memory and aggregated once the traced
phase ends.  ``tag`` is the label of the benchmark operation running,
so aggregates can be split by operation (a depth, a k, a law family).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> functions recorded as spans
SPANNED = {
    "term": ("wellformed", "support"),
    "subst": ("subst", "compose", "lift_n", "rename"),
    "typed": ("tsubst", "tcompose", "tlift_gamma", "typecheck"),
    "model": ("to_named", "alpha_eq", "check_morphism"),
    "equational": ("normalize", "eval_metaterm"),
    "surface": (
        "parse_term", "print_term", "parse_signature_file", "parse_theory_file",
    ),
    "cli": ("main", "build_parser"),
    "gen": ("random_term",),
}
# module -> functions only counted (called per node or per rewrite attempt)
COUNTED = {
    "term": ("map_free_vars",),
    "signature": ("instantiate_schema",),
    "model": ("term_model",),
    "equational": ("match_pattern",),
}
# a rename issued by subst itself runs once per free occurrence: counted
COUNTED_UNDER = {"subst.rename": "subst.subst"}
# span names whose first argument (or result) is the term to size
SIZE_ARG = {"surface.print_term": "arg", "surface.parse_term": "result"}


class Tracer:
    def __init__(self):
        self.on = False
        self.tag = ""
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.active: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (name, tag, start, end, parent, failed, child_s, obj)
        self.counts: dict[tuple[str, str, str], int] = defaultdict(int)  # (tag, name, parent)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self
        parent_only = COUNTED_UNDER.get(name)
        size = SIZE_ARG.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.on or tracer.active[name]:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if parent_only and stack and stack[-1][0] == parent_only:
                tracer.counts[(tracer.tag, name, parent_only)] += 1
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                tracer.active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][2] += end - frame[1]
                obj = None
                if size == "arg" and args:
                    obj = args[0]
                elif size == "result" and not failed:
                    obj = result
                tracer.spans.append(
                    (name, tracer.tag, frame[1], end, parent, failed, frame[2], obj)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn, hits: bool = False):
        tracer = self
        hit_key = name + ".hit"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else ""
            tracer.counts[(tracer.tag, name, parent)] += 1
            result = fn(*args, **kwargs)
            if hits and result is not None:
                tracer.counts[(tracer.tag, hit_key, parent)] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "debruijn" and not modname.startswith("debruijn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function of the loaded debruijn modules."""
        for short, names in SPANNED.items():
            mod = sys.modules[f"debruijn.{short}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                self._patch_everywhere(fn, self._spanned(f"{short}.{fn_name}", fn))
        for short, names in COUNTED.items():
            mod = sys.modules[f"debruijn.{short}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrapper = self._counted(
                    f"{short}.{fn_name}", fn, hits=fn_name == "match_pattern"
                )
                self._patch_everywhere(fn, wrapper)
        term = sys.modules["debruijn.term"]
        for cls in (term.Var, term.Op):
            for dunder, name in (("__eq__", "term.eq"), ("__hash__", "term.hash")):
                fn = cls.__dict__[dunder]
                self._undo.append((cls, dunder, fn))
                setattr(cls, dunder, self._spanned(name, fn))

    def scale(self, start: int, end: int, factor: float) -> None:
        """Scale the times of spans ``start:end`` to the reference speed."""
        for i in range(start, end):
            name, tag, t0, t1, parent, failed, child_s, obj = self.spans[i]
            self.spans[i] = (name, tag, t0, t0 + (t1 - t0) * factor, parent, failed,
                             child_s * factor, obj)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], dict]:
        """Per (tag, name): calls, failed, total_s, self_s, and ok_s and the
        terms sized by :data:`SIZE_ARG` of the successful calls."""
        agg: dict[tuple[str, str], dict] = {}
        for name, tag, start, end, _parent, failed, child_s, obj in self.spans:
            a = agg.setdefault(
                (tag, name),
                {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "ok_s": 0.0,
                 "objs": []},
            )
            a["calls"] += 1
            a["failed"] += failed
            a["total_s"] += end - start
            a["self_s"] += end - start - child_s
            if not failed:
                a["ok_s"] += end - start
                if obj is not None:
                    a["objs"].append(obj)
        return agg
