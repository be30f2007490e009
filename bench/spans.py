"""In-memory spans recorded around calls into the program's layers.

The tracer wraps module attributes that callers look up at call time
(for example `arcline.certificates.support_min`, which `make_certificate`
resolves through its module globals) and records one span per call:
name, start, end, parent span and operation id.  Spans stay in compact
arrays until the run ends; `write_spans` then saves them as CSV.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace owner.attr by a traced wrapper until `unwrap_all`."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def durations(self, ops: range | None = None) -> dict[str, list[int]]:
        """Span durations (ns) by name, optionally only for the spans of
        operations whose id falls in `ops`."""
        out: dict[str, list[int]] = defaultdict(list)
        for i in range(len(self.start)):
            if ops is None or self.op[i] in ops:
                out[self.names[self.name_id[i]]].append(self.end[i] - self.start[i])
        return out

    def self_time_by_layer(self, ops: range) -> dict[str, int]:
        """Self time (ns) per layer over the operations in `ops`: each span's
        duration minus its children's.  A span's layer is its name's first
        dotted component."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers: dict[str, int] = defaultdict(int)
        for i in range(n):
            if self.op[i] in ops:
                layer = self.names[self.name_id[i]].split(".", 1)[0]
                layers[layer] += self.end[i] - self.start[i] - child[i]
        return dict(layers)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op[i]}\n")
