"""In-memory span tracer that wraps mubforge's functions from outside.

``Tracer.install()`` replaces every public function of the layer modules,
plus ``UnbiasedVectorProblem.residual_and_gradient`` (reported as
``analysis.objective``), with a wrapper that records one span per call:
name, start, end and the span that was open when the call began. The
package's own code is not edited. ``cli`` and ``certificates`` import names
directly, so every module attribute bound to the same function object is
patched, not only the one in the defining module.

Spans stay in memory until ``aggregate()`` folds them into per-name calls,
total and self time. A span's self time is its duration minus the time its
child spans cover. A span opened on a worker thread with an empty stack is
a child of the innermost span open on the main thread: the strong search
runs its starts in a pool while the main thread waits on them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types

LAYERS = (
    "pauli",
    "search",
    "classes",
    "unextendible",
    "bases",
    "analysis",
    "certificates",
    "cli",
)

_OBJECTIVE = "analysis.objective"


def _is_public_function(name: str, obj, module_name: str) -> bool:
    if name.startswith("_") or isinstance(obj, type):
        return False
    traceable = isinstance(obj, types.FunctionType) or isinstance(
        obj, functools._lru_cache_wrapper
    )
    return traceable and getattr(obj, "__module__", None) == module_name


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, start, end, parent_id, counters or None]
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, namer=None, counters=None):
        """Return ``fn`` wrapped to record a span per call.

        ``namer(args, kwargs)`` may refine the span name from the arguments;
        ``counters(result)`` may attach counts taken from the return value.
        """
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif main_stack and stack is not main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            span_name = namer(args, kwargs) if namer else name
            span = [next(ids), span_name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counters is not None:
                span[5] = counters(result)
            return result

        return traced

    def install(self) -> None:
        """Patch the layer modules of an imported ``mubforge`` package."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mubforge" or name.startswith("mubforge."))
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"mubforge.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if _is_public_function(attr, obj, mod.__name__):
                    replacements[id(obj)] = self._wrapper_for(layer, attr, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        problem = getattr(modules.get("mubforge.analysis"), "UnbiasedVectorProblem", None)
        if problem is not None:
            problem.residual_and_gradient = self.wrap(
                _OBJECTIVE, problem.residual_and_gradient
            )

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "cli.main":
            def namer(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.{argv[0]}" if argv else "cli.main"
            return self.wrap(name, fn, namer=namer)
        if name == "certificates.verify_payload":
            def namer(args, kwargs):
                payload = args[0] if args else kwargs.get("payload")
                kind = payload.get("kind") if isinstance(payload, dict) else None
                return f"{name}.{kind}"
            return self.wrap(name, fn, namer=namer)
        if name == "analysis.strong_unext_search":
            return self.wrap(
                name,
                fn,
                counters=lambda out: {
                    "starts": out.starts,
                    "converged": out.converged_starts,
                },
            )
        if name == "unextendible.conjecture_scan":
            return self.wrap(
                name, fn, counters=lambda out: {"subsets": out.subsets_scanned}
            )
        return self.wrap(name, fn)

    def aggregate(self) -> dict:
        """Fold the recorded spans into ``{name: {calls, total_s, self_s, ...}}``.

        ``total_s`` counts a span only when no enclosing span has the same
        name, so recursion is not counted twice.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out: dict[str, dict] = {}
        for s in self.spans:
            sid, name, start, end, parent, counts = s
            rec = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            duration = end - start
            rec["calls"] += 1
            rec["self_s"] += duration - child_time.get(sid, 0.0)
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                rec["total_s"] += duration
            for key, value in (counts or {}).items():
                rec["counts"][key] = rec["counts"].get(key, 0) + value
        return out

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s[3] - s[2] for s in self.spans if s[4] is None)
