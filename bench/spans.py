"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the library;
nothing inside ``src/`` is instrumented.  A span's layer is the part of its
name before the first dot (``intset.energy_oracle`` belongs to ``intset``),
and spans that the benchmark itself opens belong to the ``bench`` layer.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


def no_span(name: str, **tags):
    """Span factory used by untraced passes: records nothing."""
    return _NULL


class Recorder:
    """Keeps every span in memory; ``span`` is the factory traced passes use.

    Each span is a dict with its name, the id of the span open when it
    started (``parent``), the id of the benchmark op that caused it
    (``op``), its tags, start and end times, and the exception type if the
    call raised.  Spans nest strictly because the benchmark is one thread.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.passes = 0

    @contextmanager
    def span(self, name: str, **tags):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = sid if parent is None else self.spans[parent]["op"]
        rec = {"id": sid, "name": name, "parent": parent, "op": op,
               "tags": tags, "start": 0.0, "end": 0.0, "error": None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_table(rec: Recorder) -> list[tuple[str, int, float, float]]:
    """(span name, calls, busy seconds, self seconds), busiest self time first."""
    rows: dict[str, list] = {}
    for s, own in zip(rec.spans, rec.self_times()):
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])
