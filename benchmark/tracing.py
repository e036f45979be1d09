"""In-memory spans around the public functions of levsketch's modules.

While ``Tracer.patched()`` is active, every public function defined in one
of ``LAYERS`` is replaced, wherever a levsketch module refers to it, by a
wrapper that records a span. Calls between modules (``cli.main`` ->
``io.load_matrix``, ``approx_leverage`` -> ``apply_srht``) therefore nest,
and a layer's self time is its spans' time minus their children's. The
library itself is not modified; the originals are restored on exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

LAYERS = ("io", "cli", "matcore", "sketch", "levscore", "crosslev",
          "rankklev", "underls")


@dataclass
class Span:
    name: str              # "<layer>.<function>", or "bench.<what>" for harness spans
    start: float           # perf_counter seconds
    end: float
    parent: Optional[int]  # index of the enclosing span, None for a root
    op: int                # op id shared by every span of one op
    error: Optional[str] = None   # exception class name if the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; ``capture`` maps a span name to a function of
    ``(args, kwargs, result)`` whose value is kept per op for counters."""

    def __init__(self, capture: Optional[Dict[str, Callable]] = None):
        self.spans: List[Span] = []
        self.captured: Dict[int, Dict[str, list]] = {}
        self.capture = capture or {}
        self.op = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if op is not None:
            self.op = op
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        keep = self.capture.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                per_op = self.captured.setdefault(self.op, {})
                per_op.setdefault(name, []).append(keep(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every levsketch reference to a public layer function
        through a span-recording wrapper for the duration of the block."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"levsketch.{layer}"]
            for attr, value in vars(mod).items():
                if (callable(value) and not attr.startswith("_")
                        and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    targets[id(value)] = self._wrap(f"{layer}.{attr}", value)
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "levsketch" and not modname.startswith("levsketch."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    def children_time(self) -> List[float]:
        """Summed duration of each span's direct children."""
        out = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] += s.duration
        return out

    def root_of(self, idx: int) -> Span:
        s = self.spans[idx]
        while s.parent is not None:
            s = self.spans[s.parent]
        return s

    def dump(self, path) -> None:
        """Write every span as JSON (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter seconds from the first span",
                       "spans": rows}, fh)
