"""In-memory spans recorded around the library's public calls.

The benchmark traces from the outside: it wraps bound methods of the objects
it created (``engine.serve``, ``fleet.solve``) on the instance and opens its
own spans around ``AsyncServer.submit`` and closed-loop calls.  Nothing under
``src/`` is changed, and an untraced run installs no wrapper at all.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans (name, start, end, parent, request id, attributes).

    Parents follow the calling thread's open spans, so a ``fleet.solve`` made
    inside ``engine.serve`` on the serving executor thread nests under it.
    ``enabled`` can be flipped between calls to interleave traced and
    untraced work in one run.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None, **attrs):
        """Record one span around the ``with`` body; yields its attribute dict."""
        if not self.enabled:
            yield {}
            return
        stack = self._stack()
        span_id = next(self._ids)
        record: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "request_id": request_id,
        }
        record.update(attrs)
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def record(self, name: str, start: float, end: float, request_id: Optional[int] = None, **attrs) -> None:
        """Record a span timed by the caller (for asyncio tasks, whose
        interleaving on one thread defeats the per-thread parent stack)."""
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "id": next(self._ids), "name": name, "parent": None, "request_id": request_id,
            "start": start, "end": end,
        }
        record.update(attrs)
        with self._lock:
            self.spans.append(record)

    def wrap(self, obj: object, method: str, name: str, describe: Callable) -> None:
        """Replace ``obj.method`` by a traced call; ``describe(args, result)``
        returns attributes stored on the span."""
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                record.update(describe(args, result))
            return result

        setattr(obj, method, traced)

    def named(self, name: str) -> List[Dict[str, object]]:
        return [span for span in self.spans if span["name"] == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, default=float) + "\n")
