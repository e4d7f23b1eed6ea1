"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, key)``: ``parent`` is the index
of the span that caused it (-1 for a root) and ``key`` identifies the
request or pass it belongs to.  Spans are recorded around the
benchmark's own calls into each layer, kept in a list and written as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rows: list = []        # [name, start, end, parent, key]
        self._stack: list = []

    def open(self, name: str, key=None, parent: int | None = None) -> int:
        """Start a span and return its index (-1 when disabled).
        ``parent`` defaults to the innermost span opened with
        :meth:`span`, which is only right for nested, not for
        concurrent, work — concurrent callers pass it."""
        if not self.enabled:
            return -1
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter(), None, parent, key])
        return len(self.rows) - 1

    def close(self, index: int) -> None:
        if index >= 0:
            self.rows[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, key=None):
        index = self.open(name, key)
        if index >= 0:
            self._stack.append(index)
        try:
            yield index
        finally:
            if index >= 0:
                self._stack.pop()
                self.close(index)

    def write(self, path: str, summary: dict | None = None) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, key) in enumerate(self.rows):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "key": key}) + "\n")
            if summary is not None:
                fh.write(json.dumps({"summary": summary}) + "\n")


def self_times(rows) -> list:
    """Each span's duration minus the part of it its children cover
    (children may overlap one another; the covered part is their
    union, clipped to the parent)."""
    children: dict = {}
    for i, row in enumerate(rows):
        if row[3] >= 0:
            children.setdefault(row[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(rows):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda c: rows[c][1]):
            a = max(rows[c][1], cursor)
            b = min(rows[c][2], end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def coverage(rows, name: str) -> float:
    """Smallest share of any ``name`` span that its children cover."""
    selfs = self_times(rows)
    shares = [1.0 - selfs[i] / (row[2] - row[1])
              for i, row in enumerate(rows)
              if row[0] == name and row[2] > row[1]]
    return min(shares) if shares else 0.0


def totals_by_name(rows) -> dict:
    """``name -> (count, total seconds, self seconds)``."""
    selfs = self_times(rows)
    out: dict = {}
    for row, own in zip(rows, selfs):
        n, total, s = out.get(row[0], (0, 0.0, 0.0))
        out[row[0]] = (n + 1, total + (row[2] - row[1]), s + own)
    return out
