"""Span tracing of the mcexit layers, installed from the benchmark's files.

`Tracer.install` replaces every public function defined in one of the
package modules by a wrapper that records a span. The replacement is made
in every module namespace that binds the function, so names bound by
``from ... import`` (for example ``inference.mcd_forward`` or
``train.init_weights``) are wrapped where their callers look them up.
`dropout.RngStream.__init__` is wrapped too, so every stream built is
counted as a ``dropout.RngStream`` span.

Per-name totals (calls, inclusive time, self time) are kept for every
span. Self time is a span's duration minus the time covered by the spans
it directly caused. Full span records (id, parent, operation, name, start,
end) are kept in memory up to a fixed limit and written out at the end;
an operation is one top-level call into the program, and its identifier
is the id of that top-level span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = (
    "netspec",
    "runtime",
    "dropout",
    "inference",
    "train",
    "metrics",
    "mapping",
    "explorer",
    "emitter",
    "datasets",
    "cli",
)
SPAN_LIMIT = 30_000  # span records kept in memory and written out


class Tracer:
    def __init__(self) -> None:
        self.package = importlib.import_module("mcexit")
        self.modules = {name: importlib.import_module(f"mcexit.{name}") for name in MODULES}
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span_id, op_id, child_ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def targets(self) -> list[tuple[str, object]]:
        """(span name, function) for every public function of every module."""
        out = []
        for mod_name, mod in self.modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    out.append((f"{mod_name}.{attr}", obj))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [self.package, *self.modules.values()]
        for name, fn in self.targets():
            wrapper = self._wrap(name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patches.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        stream_cls = self.modules["dropout"].RngStream
        init = stream_cls.__dict__["__init__"]
        self._patches.append((stream_cls, "__init__", init))
        stream_cls.__init__ = self._wrap("dropout.RngStream", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own oracles)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            if stack:
                parent = stack[-1]
                parent_id, op_id = parent[0], parent[1]
            else:
                parent, parent_id, op_id = None, -1, span_id
            frame = [span_id, op_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, parent_id, op_id, name, start, end))
                else:
                    tracer.spans_dropped += 1

        return wrapper

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        return {name: tuple(v) for name, v in self.stats.items()}

    @staticmethod
    def diff(after: dict, before: dict) -> dict[str, tuple[int, int, int]]:
        out = {}
        for name, (calls, total, self_ns) in after.items():
            b = before.get(name, (0, 0, 0))
            out[name] = (calls - b[0], total - b[1], self_ns - b[2])
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent_id, op_id, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": None if parent_id < 0 else parent_id,
                            "op": op_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
