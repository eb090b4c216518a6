"""Offline analysis of recorded JSONL traces: summaries and span trees.

``charles trace summarize`` answers "where did the time go" from a trace
file alone: per-span-name self/cumulative time (self = a span's duration
minus its children's, so the table sums to real wall-clock per layer rather
than multiply counting nested work), the slowest search rounds, and network
time per cache shard.  ``charles trace tree`` renders one trace as an
indented span tree for drilling into a single run.

Both read the sink format of :mod:`repro.obs.trace` — one JSON object per
line — and tolerate interleaved traces (a driver plus collected server
spans, or several engines appending to one file).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exceptions import CharlesError

__all__ = ["load_trace", "summarize_trace", "render_tree"]


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load and validate a JSONL trace file into a list of span records."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise CharlesError(f"cannot read trace file {path}: {error}") from error
    spans: list[dict[str, Any]] = []
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise CharlesError(
                f"trace file {path} line {line_number} is not valid JSON: {error}"
            ) from error
        if not isinstance(record, dict) or "span" not in record or "name" not in record:
            raise CharlesError(
                f"trace file {path} line {line_number} is not a span record"
            )
        spans.append(record)
    if not spans:
        raise CharlesError(f"trace file {path} contains no spans")
    return spans


def _children_durations(spans: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """Summed child durations per parent span id (for self-time)."""
    ids = {span["span"] for span in spans}
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span.get("parent")
        if parent and parent in ids:
            child_time[parent] += float(span.get("duration", 0.0))
    return child_time


def summarize_trace(spans: Sequence[Mapping[str, Any]], slowest: int = 5) -> str:
    """A top-down time breakdown of a trace file, as printable text."""
    child_time = _children_durations(spans)
    per_name: dict[str, list[float]] = {}
    for span in spans:
        duration = float(span.get("duration", 0.0))
        self_time = max(0.0, duration - child_time.get(span["span"], 0.0))
        bucket = per_name.setdefault(span["name"], [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += duration
        bucket[2] += self_time

    traces = {span.get("trace") for span in spans}
    processes = sorted({span.get("process", "engine") for span in spans})
    round_spans = [span for span in spans if span["name"] == "round"]

    lines = [
        f"trace summary: {len(spans)} spans, {len(traces)} trace(s), "
        f"processes: {', '.join(processes)}",
        f"round spans: {len(round_spans)}",
        "",
        f"{'span name':<24} {'count':>7} {'cumulative':>12} {'self':>12}",
    ]
    for name, (count, cumulative, self_time) in sorted(
        per_name.items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"{name:<24} {int(count):>7} {cumulative:>11.4f}s {self_time:>11.4f}s"
        )

    if round_spans:
        lines.append("")
        lines.append("slowest rounds:")
        ranked = sorted(round_spans, key=lambda s: -float(s.get("duration", 0.0)))
        for span in ranked[:slowest]:
            attrs = span.get("attributes", {})
            lines.append(
                f"  round {attrs.get('index', '?')} "
                f"({float(span.get('duration', 0.0)):.4f}s, "
                f"specs={attrs.get('specs', '?')}, trace {span.get('trace', '?')[:8]})"
            )

    network: dict[str, list[float]] = {}
    for span in spans:
        attrs = span.get("attributes", {})
        shard = attrs.get("url") if span.get("process") == "server" else None
        if shard:
            bucket = network.setdefault(str(shard), [0.0, 0.0])
            bucket[0] += float(span.get("duration", 0.0))
            bucket[1] += 1
    if network:
        lines.append("")
        lines.append("per-shard network time:")
        for shard, (seconds, count) in sorted(network.items(), key=lambda kv: -kv[1][0]):
            lines.append(f"  {shard:<28} {seconds:.4f}s over {int(count)} span(s)")

    return "\n".join(lines)


def _pick_trace(spans: Sequence[Mapping[str, Any]]) -> str:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.get("trace", "?")] += 1
    return max(counts.items(), key=lambda kv: kv[1])[0]


def render_tree(
    spans: Sequence[Mapping[str, Any]],
    trace_id: str | None = None,
    max_attributes: int = 4,
) -> str:
    """Render one trace as an indented span tree ordered by start time."""
    wanted = trace_id or _pick_trace(spans)
    selected = [span for span in spans if span.get("trace") == wanted]
    if not selected:
        raise CharlesError(f"trace id {wanted!r} not present in the file")
    ids = {span["span"] for span in selected}
    children: dict[str | None, list[Mapping[str, Any]]] = defaultdict(list)
    for span in selected:
        parent = span.get("parent")
        children[parent if parent in ids else None].append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: float(s.get("start", 0.0)))

    lines = [f"trace {wanted}"]

    def _walk(parent: str | None, depth: int) -> None:
        for span in children.get(parent, ()):  # noqa: B020 - read-only iteration
            attrs = span.get("attributes", {})
            shown = ", ".join(
                f"{key}={value}" for key, value in list(attrs.items())[:max_attributes]
            )
            marker = "" if span.get("outcome", "ok") == "ok" else f" !{span['outcome']}"
            process = span.get("process", "engine")
            lines.append(
                f"{'  ' * (depth + 1)}{span['name']} "
                f"[{process}] {float(span.get('duration', 0.0)) * 1000:.2f}ms"
                f"{marker}{(' {' + shown + '}') if shown else ''}"
            )
            _walk(span["span"], depth + 1)

    _walk(None, 0)
    return "\n".join(lines)
