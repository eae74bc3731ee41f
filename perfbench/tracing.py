"""Outside-in span tracing for the benchmark's traced runs.

The loop and the CLI call their collaborators through module globals that
are looked up at call time (``vauf.runtime.contact_wrench``,
``vauf.cli.write_csv``, ...). Replacing those globals with timing wrappers
measures each layer without changing a file of the program. Spans (name,
start, end, parent span, op id) are kept in flat lists while the run goes
and written out once it ends.
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder whose wrappers replace module globals."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self._clock_ns = clock_ns
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.op_id = -1
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self._clock_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._clock_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span; hooks see (args, kwargs[, result]).

        Exceptions pass through unchanged and are counted as
        ``<name>.raised.<ExceptionType>``.
        """
        nid = self._name_id(name)
        open_, close, counts = self._open, self._close, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr with a traced wrapper until restore()."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before=before, after=after))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one whole op."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def begin_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; spans are properly nested because the program is
        single-threaded.
        """
        a = self.arrays()
        n_names = len(self.names)
        out = {name: (0, 0.0, 0.0) for name in self.names}
        if len(a["start_ns"]) == 0:
            return out
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=self_ns, minlength=n_names)
        for i, name in enumerate(self.names):
            out[name] = (int(calls[i]), float(total[i]), float(own[i]))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
