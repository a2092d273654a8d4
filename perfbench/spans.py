"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that encloses it and the operation it belongs to, plus free-form
attributes such as the method. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stands in for a Tracer in untraced operations; records nothing."""

    op_id = None

    def span(self, name, **attrs):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op_id,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name, where=None, **attrs) -> list[float]:
        """Durations of the spans with this name and these attributes that
        also satisfy the optional predicate ``where``."""
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in attrs.items())
            and (where is None or where(s))
        ]

    def self_ms(self) -> list[float]:
        """Per span, its duration minus the time its direct children cover.

        Spans come from one thread and nest strictly, so children never
        overlap one another.
        """
        own = [(s["end"] - s["start"]) * 1e3 for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= (s["end"] - s["start"]) * 1e3
        return own

    def write(self, path, header: dict):
        """JSON lines: the header, then one span per line with its self time."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for s, own in zip(self.spans, self.self_ms()):
                line = dict(s)
                line["start"] = (s["start"] - origin) * 1e3
                line["end"] = (s["end"] - origin) * 1e3
                line["self_ms"] = own
                handle.write(json.dumps(line) + "\n")
