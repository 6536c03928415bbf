"""In-memory span recorder that times the codec's layers from outside.

A ``Tracer`` replaces module attributes (functions, methods) with wrappers
that open a span on entry and close it on exit, so nothing under ``src/``
changes. Spans nest through a stack: the span open when a wrapper is
entered becomes its parent. Operations (one training step, one inference
round trip) are root spans named ``op``; every span opened while an
operation is open carries its id. ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional

from stats import Span

OP = "op"
_INHERITED = object()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent, op] while open
        self.counts: list = []  # (name, value, op)
        self._stack: list = []
        self._op: Optional[int] = None
        self._op_span: Optional[int] = None
        self.n_ops = 0
        self._op_index: list = []  # op id -> index of its root span
        self._patches: list = []

    # ----- spans -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self._op))

    # ----- operations --------------------------------------------------

    @property
    def in_op(self) -> bool:
        return self._op is not None

    def begin_op(self) -> None:
        if self._op is not None:
            raise RuntimeError("operation already open")
        self._op = self.n_ops
        self.n_ops += 1
        self._op_span = self.open(OP)
        self._op_index.append(self._op_span)

    def op_start(self, op: int) -> float:
        return self.spans[self._op_index[op]][1]

    def end_op(self) -> None:
        """Close the open operation, if any (also after an exception)."""
        if self._op is None:
            return
        self.close(self._op_span)
        self._op = None
        self._op_span = None

    # ----- wrapping ----------------------------------------------------

    def wrap(self, owner, attr: str, name: Optional[str], before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` around each call (no span when ``name`` is None).
        ``before(*args, **kw)`` runs before the span opens and
        ``after(result, *args, **kw)`` after it closes, so neither is
        charged to the layer."""
        original = getattr(owner, attr)
        tracer = self
        # restore what the owner itself held (a class may hold a descriptor
        # such as staticmethod, or inherit the attribute)
        own = vars(owner).get(attr, _INHERITED)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ----- results -----------------------------------------------------

    def finished_spans(self) -> list:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return [Span(*s) for s in self.spans]

    def op_spans(self) -> list:
        return [s for s in self.finished_spans() if s.name == OP]

    def counts_per_op(self) -> dict:
        totals: dict = {}
        for name, value, op in self.counts:
            if op is not None:
                totals[name] = totals.get(name, 0.0) + value
        return {k: v / self.n_ops for k, v in totals.items()} if self.n_ops else {}

    def write(self, path) -> None:
        """Spans then counts, one JSON object per line, times in seconds
        relative to the first span."""
        spans = self.finished_spans()
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(spans):
                rec = {"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "op": s.op}
                f.write(json.dumps(rec) + "\n")
            for name, value, op in self.counts:
                f.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")


def graph_size(root) -> int:
    """Number of autodiff graph nodes (tensors that require grad) reachable
    from ``root`` through parent links."""
    if not getattr(root, "requires_grad", False):
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
