"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from outside the program: a traced phase replaces
module attributes (`fastpose.metrics.e_vsd`, ...) and per-instance
methods (`graph.forward`, `layer.backward`) with timing wrappers, and puts
the originals back when the phase ends. Nothing is patched while the
end-to-end numbers are measured.

A span is (name, start_ns, end_ns, parent index, request id, op index).
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[str] = []
        self.ops: list[int] = []
        self.op_walls: list[int] = []      # ns, one per traced operation
        self.counts: list[dict] = []       # one dict of counters per operation
        self.deferred: list = []           # (callback, value) resolved after each op
        self.labels: dict[str, str] = {}   # span name -> layer kind, for net layers
        self.request = ""
        self._stack: list[int] = []
        self._undo: list = []

    # ---- recording
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ops.append(len(self.op_walls))
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        while len(self.counts) <= len(self.op_walls):
            self.counts.append(defaultdict(float))
        self.counts[len(self.op_walls)][name] += value

    def defer(self, callback, value) -> None:
        """Count later: `callback(tracer, value)` runs after the op's clock stops."""
        self.deferred.append((callback, value))

    def end_op(self, wall_ns: int) -> None:
        pending, self.deferred = self.deferred, []
        for callback, value in pending:
            callback(self, value)
        self.count("ops", 1)
        self.op_walls.append(wall_ns)

    # ---- patching
    def timed(self, name: str, fn, after=None, request=None):
        """Wrap `fn` in a span; `after(tracer, args, out)` may record counts,
        `request(args)` names the request the call's spans belong to."""

        def wrapper(*args, **kwargs):
            saved = self.request
            if request is not None:
                self.request = request(args)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.request = saved
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, request=None) -> bool:
        """Replace `owner.attr` by a timed wrapper; a missing name is skipped."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return False
        setattr(owner, attr, self.timed(name, orig, after, request))
        self._undo.append((owner, attr, orig))
        return True

    def patch_instance(self, obj, attr: str, name: str, request=None) -> None:
        obj.__dict__[attr] = self.timed(name, getattr(obj, attr), request=request)
        self._undo.append((obj, attr, None))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is None:
                del owner.__dict__[attr]
            else:
                setattr(owner, attr, orig)

    # ---- analysis
    def durations_ms(self) -> list[float]:
        return [(e - s) / 1e6 for s, e in zip(self.starts, self.ends)]

    def self_ms(self) -> list[float]:
        dur = self.durations_ms()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def outermost(self, match) -> list[int]:
        """Indices of spans whose name matches and that have no matching ancestor."""
        hit = [bool(match(n)) for n in self.names]
        out = []
        for i, h in enumerate(hit):
            if not h:
                continue
            p = self.parents[i]
            while p >= 0 and not hit[p]:
                p = self.parents[p]
            if p < 0:
                out.append(i)
        return out

    def per_op_ms(self, match, values=None) -> list[float]:
        """Per operation: summed duration (or `values`) of outermost matching spans."""
        values = values if values is not None else self.durations_ms()
        totals = [0.0] * len(self.op_walls)
        for i in self.outermost(match):
            if self.ops[i] < len(totals):
                totals[self.ops[i]] += values[i]
        return totals

    def per_call_ms(self, match) -> list[float]:
        dur = self.durations_ms()
        return [dur[i] for i in self.outermost(match)]

    def per_parent_ms(self, parent_match, child_match) -> list[float]:
        """For every span matching `parent_match`: summed duration of its
        descendants matching `child_match` (outermost only)."""
        dur = self.durations_ms()
        parents = [i for i, n in enumerate(self.names) if parent_match(n)]
        total = {i: 0.0 for i in parents}
        for i in self.outermost(child_match):
            p = self.parents[i]
            while p >= 0 and p not in total:
                p = self.parents[p]
            if p >= 0:
                total[p] += dur[i]
        return [total[i] for i in parents]

    def per_op_count(self, name: str) -> list[float]:
        return [self.counts[k].get(name, 0.0) if k < len(self.counts) else 0.0 for k in range(len(self.op_walls))]

    def root_share_unaccounted(self) -> float:
        """Median over ops of the share of the op's wall time outside any root span."""
        covered = self.per_op_ms(lambda n: True)
        shares = [1.0 - c / (w / 1e6) for c, w in zip(covered, self.op_walls) if w > 0]
        return statistics.median(shares) if shares else 0.0

    def write(self, path: Path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "request", "op"],
            "names": names,
            "op_walls_ns": self.op_walls,
            "spans": [
                [index[n], s, e, p, r, o]
                for n, s, e, p, r, o in zip(self.names, self.starts, self.ends, self.parents, self.requests, self.ops)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
