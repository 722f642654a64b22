"""The in-memory aggregator: the spans a process can report on.

:class:`InMemoryRecorder` is the enabled recorder everything else
composes with: it keeps every completed :class:`~repro.telemetry.SpanRecord`,
forwards each one to any attached sinks (JSONL trace files), and
renders the per-span-name statistics — count / total / p50 / p95 —
that ``python -m repro run --telemetry`` prints and campaign workers
embed in their shard rows.  Counters and gauges are not kept here;
they live in :mod:`repro.telemetry.metrics`.

The aggregation here is process-local but thread-safe: the span hook
serializes on one lock (covering both the span list and the sink
fan-out), so the serve thread pool can record spans concurrently
without torn lines or lost records.  Cross-process aggregation is the
campaign store's job (:mod:`repro.campaigns.report`).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Iterable, Sequence

from repro.telemetry.recorder import Recorder, SpanRecord


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 1]).

    The same estimator as ``numpy.percentile``'s default, implemented
    on plain floats so the telemetry layer stays dependency-light.

    Raises:
        ValueError: on an empty sequence or ``q`` outside [0, 1].
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


def summarize_spans(spans: Iterable[SpanRecord]) -> dict[str, dict]:
    """Per-span-name statistics: count, total and p50/p95 durations.

    Returns:
        ``{name: {"count", "total_s", "p50_s", "p95_s"}}``, names
        sorted by descending ``total_s`` (slowest first).
    """
    durations: dict[str, list[float]] = {}
    for record in spans:
        durations.setdefault(record.name, []).append(record.duration_s)
    stats = {
        name: {
            "count": len(values),
            "total_s": sum(values),
            "p50_s": percentile(values, 0.50),
            "p95_s": percentile(values, 0.95),
        }
        for name, values in durations.items()
    }
    return dict(sorted(stats.items(),
                       key=lambda item: -item[1]["total_s"]))


class InMemoryRecorder(Recorder):
    """The enabled recorder: aggregate in memory, forward to sinks.

    Args:
        sinks: objects with ``emit(event: dict)`` / ``close()`` (e.g.
            :class:`~repro.telemetry.JsonlSink`); every span is
            forwarded as it is recorded.
    """

    enabled = True

    def __init__(self, sinks: Iterable = ()) -> None:
        """Start with no spans and the given sinks."""
        super().__init__()
        self.spans: list[SpanRecord] = []
        self._sinks = list(sinks)
        # One lock covers the span append AND sink emission so a
        # span's append and its JSONL line stay in the same order
        # across threads (the serve pool records concurrently).
        self._hook_lock = threading.Lock()

    # -- recorder hooks --------------------------------------------------

    def _on_span(self, record: SpanRecord) -> None:
        """Keep the span and forward its trace event to every sink."""
        with self._hook_lock:
            self.spans.append(record)
            if self._sinks:
                event = record.to_event()
                for sink in self._sinks:
                    sink.emit(event)

    def close(self) -> None:
        """Close every attached sink (flushes JSONL trace files)."""
        with self._hook_lock:
            for sink in self._sinks:
                sink.close()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Count / total / p50 / p95 seconds per span name
        (:func:`summarize_spans` over everything recorded so far)."""
        return summarize_spans(self.spans)

    def render_summary(self) -> str:
        """The span summary as an aligned text block."""
        lines = ["telemetry summary"]
        stats = self.summary()
        if stats:
            lines.append(f"  {'span':<24} {'count':>7} {'total':>10} "
                         f"{'p50':>10} {'p95':>10}")
            for name, row in stats.items():
                lines.append(
                    f"  {name:<24} {row['count']:>7d} "
                    f"{row['total_s'] * 1e3:>8.1f}ms "
                    f"{row['p50_s'] * 1e3:>8.2f}ms "
                    f"{row['p95_s'] * 1e3:>8.2f}ms")
        else:
            lines.append("  (no spans recorded)")
        return "\n".join(lines)

    def write_jsonl(self, path: "str | Path") -> Path:
        """Dump every span recorded so far as a JSONL trace file.

        One JSON object per line, in completion order: the stream a
        live :class:`~repro.telemetry.JsonlSink` would have captured,
        for recorders that aggregated first.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.to_event(),
                                        sort_keys=True) + "\n")
        return target

    def to_perfetto(self) -> dict:
        """The recorded spans as a Chrome/Perfetto ``trace_event`` dict
        (:func:`repro.telemetry.perfetto.perfetto_json`)."""
        from repro.telemetry.perfetto import perfetto_json

        return perfetto_json(self.spans)
