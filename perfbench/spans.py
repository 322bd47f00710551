"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent span and the run id.  Spans are
kept in a list and written out once, when the run ends.  With tracing off,
``call`` is a plain function call and nothing is recorded, so the untraced
end-to-end numbers pay for no bookkeeping.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        record = {
            "id": idx,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time per span name: each span's duration minus the time its
        child spans cover.  Children run one after another inside their parent,
        so their durations never overlap.  With ``root``, only that span and
        its descendants count."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        keep = self._subtree(root) if root is not None else None
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if keep is None or s["id"] in keep:
                out[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s["name"]] += 1
        return dict(out)

    def duration(self, idx: int) -> float:
        return self.spans[idx]["end"] - self.spans[idx]["start"]

    def _subtree(self, root: int) -> set[int]:
        keep = {root}
        for s in self.spans[root + 1 :]:  # children always follow their parent
            if s["parent"] in keep:
                keep.add(s["id"])
        return keep

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans}, fh, indent=1)
            fh.write("\n")
