"""In-memory spans around the public functions of each steerwork layer.

A span is set by replacing a function, in every steerwork module that
holds it, with a wrapper that records (op, name, parent span, start, end).
Callers look functions up at call time (module globals or `from .x import
f` copies), so patching each module attribute the caller reads catches
every call. Self time is a span's duration minus that of its direct
children; spans nest strictly because the benchmark is single-threaded.

The targets are named by the per-layer metrics of BENCHMARK.json. A
target that no longer exists is reported as absent and is not an error,
so removing a function needs no edit to the benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

PACKAGE = "steerwork"


class Tracer:
    """Records spans while installed; install() and uninstall() toggle it.

    targets are span names "<module>.<function>" (the layers are the
    package modules); for those in memory_targets the peak traced
    allocation is recorded too (tracemalloc runs only inside them, so the
    rest of the traced run pays nothing for it).
    """

    def __init__(self, targets, memory_targets=()):
        self.spans: list[list] = []  # [op, name, parent, start_ns, end_ns]
        self.peak_alloc: dict[tuple[int, str], int] = {}  # (op, name) -> bytes
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[str, tuple[object, object]] = {}  # name -> (orig, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        self._memory = frozenset(memory_targets)
        for name in dict.fromkeys([*targets, *memory_targets]):
            module, _, attr = name.partition(".")
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            orig = getattr(mod, attr, None) if mod is not None else None
            if callable(orig):
                self._wrappers[name] = (orig, self._wrap(name, orig))
            else:
                self.absent.append(name)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        memory = name in self._memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, name, stack[-1] if stack else -1, time.perf_counter_ns(), 0])
            stack.append(index)
            if memory:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if memory:
                    self.peak_alloc[(self.op, name)] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[index][4] = time.perf_counter_ns()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def summarize(self) -> dict[int, dict[str, tuple[int, float]]]:
        """op -> name -> (calls, self_ms); names an op never called are left out."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[2] >= 0:
                child_ns[span[2]] += span[4] - span[3]
        out: dict[int, dict[str, tuple[int, float]]] = {}
        for span, children in zip(self.spans, child_ns):
            per_name = out.setdefault(span[0], {})
            calls, self_ms = per_name.get(span[1], (0, 0.0))
            per_name[span[1]] = (calls + 1, self_ms + (span[4] - span[3] - children) / 1e6)
        return out

    def write(self, path) -> None:
        """One JSON array per line: op, name, parent index, start_ns, end_ns."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
