"""In-memory spans for the traced run.

A span holds a name, a tag (which input it worked on), start and end
times, its parent span and the pass it belongs to.  Spans stay in memory
until the run ends; ``dump`` writes them out once.  The untraced passes
use ``NullTracer``, whose spans cost one attribute lookup and record
nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter


class NullTracer:
    """Tracer interface that records nothing (used for the timed passes)."""

    pass_id = None

    def span(self, name, tag=None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._stack: list[dict] = []
        # (span name, tag) -> return value of a wrapped call
        self.captured: dict[tuple[str, str | None], object] = {}

    @contextlib.contextmanager
    def span(self, name, tag=None):
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = parent["tag"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "tag": tag,
            "pass": self.pass_id,
            "parent": parent["id"] if parent else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, module, names: dict[str, str]):
        """Replace ``module.<attr>`` by a span-recording wrapper for each
        ``attr -> span name`` in ``names``; restore the originals on exit.
        The last return value per (span name, tag) is kept in ``captured``."""
        originals = {attr: getattr(module, attr) for attr in names}
        for attr, span_name in names.items():
            setattr(module, attr, self._wrap(originals[attr], span_name))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def _wrap(self, fn, span_name):
        def traced(*args, **kwargs):
            with self.span(span_name) as rec:
                out = fn(*args, **kwargs)
            self.captured[(span_name, rec["tag"])] = out
            return out

        return traced

    # -- queries -----------------------------------------------------------

    def select(self, name, tag=None, pass_id=None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (tag is None or s["tag"] == tag)
            and (pass_id is None or s["pass"] == pass_id)
        ]

    def durations(self, name, tag=None, pass_id=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.select(name, tag, pass_id)]

    def median(self, name, tag=None, pass_id=None) -> float:
        vals = self.durations(name, tag, pass_id)
        if not vals:
            raise LookupError(f"no span {name!r} (tag {tag!r}, pass {pass_id!r})")
        return statistics.median(vals)

    def total(self, name, tag=None, pass_id=None) -> float:
        return sum(self.durations(name, tag, pass_id))

    def self_time(self, span: dict) -> float:
        """Span duration minus the time its direct children cover (children
        run one after another on this thread, so they never overlap)."""
        kids = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])
        return span["end"] - span["start"] - kids

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
