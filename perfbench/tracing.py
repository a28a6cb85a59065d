"""Spans recorded from outside the library, around calls into each layer.

A ``Tracer`` replaces a function at the module attribute its caller looks up
(for example ``semimo.sweeps.transmit_frame``) with a wrapper that records a
span: name, start, end and the id of the enclosing span. Spans stay in memory
and are written out once, when the benchmark ends. The program is single
threaded, so one stack of open spans gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object, bool]] = []  # holder, key, original, is dict item

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, name, 0.0, 0.0, parent))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """Wrap ``fn`` in a span.

        ``on_result(counts, args, kwargs, result)`` runs after a return and
        ``on_error(counts, exc)`` before an exception propagates; both may
        add to ``self.counts``.
        """

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(self.counts, exc)
                    raise
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> list[str]:
        """Patch each (module name, attribute, span name, hooks...) target.

        The attribute may be dotted (``"FrameResult.image"``), or
        ``"table:key"`` to patch the entry of a module-level dict whose key
        (or the key's ``value``) is ``key``. Returns the targets whose module,
        attribute or key no longer exists, as ``"module.attribute"``: their
        time would silently move into the caller's self time, so the caller
        must treat them as a failure.
        """
        unresolved = []
        for module_name, attr, span_name, *hooks in targets:
            if not self._install_one(module_name, attr, span_name, hooks):
                unresolved.append(f"{module_name}.{attr}")
        return unresolved

    def _install_one(self, module_name, attr, span_name, hooks) -> bool:
        try:
            holder = importlib.import_module(module_name)
        except ImportError:
            return False
        if ":" in attr:
            table_name, key = attr.split(":", 1)
            table = getattr(holder, table_name, None)
            keys = [k for k in table if getattr(k, "value", k) == key] if isinstance(table, dict) else []
            for k in keys:
                self._patch_item(table, k, span_name, hooks)
            return bool(keys)
        *path, name = attr.split(".")
        for part in path:
            holder = getattr(holder, part, None)
        if holder is None or not hasattr(holder, name):
            return False
        original = getattr(holder, name)
        self._patches.append((holder, name, original, False))
        setattr(holder, name, self.wrap(original, span_name, *hooks))
        return True

    def _patch_item(self, table, key, span_name, hooks) -> None:
        original = table[key]
        self._patches.append((table, key, original, True))
        table[key] = self.wrap(original, span_name, *hooks)

    def uninstall(self) -> None:
        for holder, attr, original, is_item in reversed(self._patches):
            if is_item:
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patches.clear()

    def measured(self) -> list[tuple[str, float, float, str]]:
        """(name, duration, self time, root span name) per span; seconds.

        Self time is the span's duration minus the durations of its child
        spans, which nest and never overlap in a single thread.
        """
        child_time = [0.0] * len(self.spans)
        root = [""] * len(self.spans)
        for span_id, name, start, end, parent in self.spans:
            if parent >= 0:  # a parent is opened, so numbered, before its children
                child_time[parent] += end - start
                root[span_id] = root[parent]
            else:
                root[span_id] = name
        return [
            (name, end - start, end - start - child_time[span_id], root[span_id])
            for span_id, name, start, end, _ in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
