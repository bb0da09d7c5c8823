"""In-memory span recorder and the patches that put spans around each layer.

A span is ``(name, start_ns, end_ns, parent, run_id)`` with times from
``time.perf_counter_ns``.  The current span lives in a ``ContextVar``, so
the two concurrent client loops of the service workload each keep their own
parent chain.  Spans stay in a list until :meth:`Tracer.write_jsonl` dumps
them at the end of the run.

Spans are recorded only from this directory's own code: :class:`Patches`
wraps the public functions and methods through which a workload calls into
each layer of ``repro`` and restores them afterwards, so the untraced
measurement runs the program unmodified.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_NO_PARENT = -1


class Tracer:
    """Collects spans and named counters for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        #: One ``[name, start_ns, end_ns, parent_index, run_id]`` per span.
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=_NO_PARENT
        )
        #: Run id stamped on new spans; workloads set it per measured unit.
        self.unit = run_id

    def open(self, name: str) -> Tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter_ns(), 0, self._current.get(), self.unit]
        )
        return index, self._current.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._current.reset(token)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": None if parent == _NO_PARENT else parent,
                            "run_id": unit,
                        }
                    )
                    + "\n"
                )

    def self_times(self, units: Optional[Iterable[str]] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, busy (inclusive) and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; only spans whose run id is in ``units`` are counted.
        """
        wanted = None if units is None else set(units)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent != _NO_PARENT:
                child_ns[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent, unit) in enumerate(self.spans):
            if wanted is not None and unit not in wanted:
                continue
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[index]) / 1e9
        return dict(table)

    def durations_ms(self, name: str, units: Optional[Iterable[str]] = None) -> List[float]:
        wanted = None if units is None else set(units)
        return [
            (end - start) / 1e6
            for span_name, start, end, _parent, unit in self.spans
            if span_name == name and (wanted is None or unit in wanted)
        ]


class _Span:
    __slots__ = ("_tracer", "_name", "_index", "_token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._index, self._token = self._tracer.open(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self._index, self._token)


def traced(tracer: Tracer, name: str, function: Callable,
           after: Optional[Callable[[Tracer, tuple, Any], None]] = None) -> Callable:
    """``function`` wrapped in a span; ``after(tracer, args, result)`` counts."""

    def wrapper(*args, **kwargs):
        index, token = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index, token)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements applied on :meth:`apply`, undone on :meth:`restore`."""

    def __init__(self) -> None:
        self._targets: List[Tuple[Any, str, Callable[[Callable], Callable]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        self._targets.append((owner, attribute, make))

    def apply(self) -> None:
        for owner, attribute, make in self._targets:
            # Look the attribute up in the owner's own namespace so that a
            # method inherited from a base class is restored by deletion.
            own = vars(owner).get(attribute, _MISSING)
            self._saved.append((owner, attribute, own))
            setattr(owner, attribute, make(getattr(owner, attribute)))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def __enter__(self) -> "Patches":
        self.apply()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


_MISSING = object()


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


#: Percentiles tried, highest first, for a latency's reported tail.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.8, 0.75)


def tail(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with >= 10 samples beyond it."""
    count = len(values)
    for fraction in TAIL_LADDER:
        if count * (1.0 - fraction) >= 10.0:
            return fraction * 100.0, percentile(values, fraction)
    return 50.0, percentile(values, 0.5)
