"""Trace exporters: Chrome trace-event JSON and a plain-text span tree.

The Chrome format (the ``chrome://tracing`` / Perfetto "JSON Array
Format") wants one complete event (``"ph": "X"``) per span with
microsecond ``ts``/``dur``; we emit the object form
``{"traceEvents": [...]}`` so metadata fits alongside.  The exporter
works from the plain span dicts a :class:`~repro.obs.tracer.Tracer`
produces (and a run manifest persists) — no live tracer required.

:func:`validate_chrome_trace` is the schema check the test suite runs
over exported traces, mirroring what the tracing UI requires to load a
file at all.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Keys every complete trace event must carry, with their types.
_EVENT_SCHEMA = {
    "name": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
}


def chrome_trace_events(spans: list[dict], run_id: str = "") -> dict:
    """Spans → ``{"traceEvents": [...]}`` Chrome trace object.

    Timestamps are microseconds since the earliest span start, so the
    viewer opens at t=0 instead of the Unix epoch.
    """
    origin = min((s.get("start_wall", 0.0) for s in spans), default=0.0)
    events = []
    for span in spans:
        args = {k: v for k, v in span.get("attrs", {}).items()}
        args["span_id"] = span.get("span_id", "")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        if span.get("cpu_s") is not None:
            args["cpu_ms"] = round(span.get("cpu_s", 0.0) * 1000.0, 3)
        events.append(
            {
                "name": span.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": round((span.get("start_wall", 0.0) - origin) * 1e6, 1),
                "dur": round(span.get("wall_s", 0.0) * 1e6, 1),
                "pid": int(span.get("pid", 0)),
                "tid": int(span.get("tid", 0)),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id, "exporter": "repro.obs"},
    }


def write_chrome_trace(spans: list[dict], path: str | Path, run_id: str = "") -> Path:
    """Write the Chrome trace JSON for ``spans``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace_events(spans, run_id=run_id), indent=2) + "\n",
        encoding="utf-8",
    )
    return path


# repro: allow[reachability] oracle: the obs tests check every exported trace against it
def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema problems in a Chrome trace object (empty list = valid).

    Checks the shape ``chrome://tracing`` needs: a ``traceEvents`` list
    of complete events with string names, numeric non-negative ``ts`` /
    ``dur`` and integer ``pid`` / ``tid``.
    """
    errors: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be a list"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{where} is not an object")
            continue
        for key, expected in _EVENT_SCHEMA.items():
            if key not in event:
                errors.append(f"{where} missing key {key!r}")
            elif not isinstance(event[key], expected) or isinstance(event[key], bool):
                errors.append(
                    f"{where}.{key} has type {type(event[key]).__name__}"
                )
        if event.get("ph") not in ("X", "B", "E", "i", "M"):
            errors.append(f"{where}.ph is {event.get('ph')!r}, not a known phase")
        if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
            errors.append(f"{where}.ts is negative")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            errors.append(f"{where}.dur is negative")
    return errors


def render_span_tree(spans: list[dict]) -> str:
    """Indent-formatted span tree with per-span wall/CPU time.

    Spans whose parent is missing from the list (e.g. filtered out)
    render as roots.  Children sort by start time.
    """
    if not spans:
        return "(no spans recorded)"
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("start_wall", 0.0))

    name_width = max(
        (len(s.get("name", "?")) + 3 * _depth(s, by_id) for s in spans), default=20
    )
    name_width = max(name_width, 20)
    lines = [f"{'span':<{name_width}s} {'wall':>10s} {'cpu':>10s}  attrs"]

    def walk(span: dict, prefix: str, is_last: bool) -> None:
        connector = "" if prefix == "" and is_last is None else ("└─ " if is_last else "├─ ")
        label = prefix + connector + span.get("name", "?")
        attrs = span.get("attrs", {})
        attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(
            f"{label:<{name_width}s} {_fmt_s(span.get('wall_s', 0.0)):>10s} "
            f"{_fmt_s(span.get('cpu_s', 0.0)):>10s}  {attr_text}"
        )
        kids = children.get(span["span_id"], [])
        child_prefix = prefix + ("" if is_last is None else ("   " if is_last else "│  "))
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1)

    roots = children.get(None, [])
    for root in roots:
        walk(root, "", None)  # type: ignore[arg-type]
    return "\n".join(lines)


def _depth(span: dict, by_id: dict) -> int:
    depth = 0
    seen = set()
    parent = span.get("parent_id")
    while parent in by_id and parent not in seen:
        seen.add(parent)
        depth += 1
        parent = by_id[parent].get("parent_id")
    return depth


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"
