"""Persistence and reporting: canonical CSV, JSON, and deterministic SVG.

The CSV schema is fixed (column set and order are golden-tested) and the
serialization is fully deterministic: floats use repr (shortest
round-trip), aux maps are canonical JSON, and volatile keys such as wall
clock timings are stripped so identical configs reproduce identical
bytes across runs and thread counts.
"""

import csv
import json
import math
import os

from .errors import ValidationError

__all__ = [
    "CSV_COLUMNS",
    "VOLATILE_AUX_KEYS",
    "records_to_csv",
    "read_records",
    "summary_to_csv",
    "emit_report",
]

CSV_COLUMNS = ("p", "n", "ratio", "replicate", "task", "value", "aux")
VOLATILE_AUX_KEYS = ("wall_ms",)

SUMMARY_COLUMNS = ("p", "n", "task", "count", "median", "mean", "std", "min", "max")


def _canonical_aux(aux: dict) -> str:
    clean = {k: v for k, v in aux.items() if k not in VOLATILE_AUX_KEYS}
    return json.dumps(clean, sort_keys=True, separators=(",", ":"))


def records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.p,
                    rec.n,
                    repr(float(rec.ratio)),
                    rec.replicate,
                    rec.task,
                    repr(float(rec.value)),
                    _canonical_aux(rec.aux),
                ]
            )


def read_records(path):
    """Parse a records CSV back into RunRecord objects."""
    from .harness import RunRecord  # local import to avoid a cycle

    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(CSV_COLUMNS):
                raise ValidationError(f"{path}: unexpected records header {header}")
            for row in reader:
                try:
                    p, n, ratio, replicate, task, value, aux = row
                    record = RunRecord(
                        p=int(p),
                        n=int(n),
                        ratio=float(ratio),
                        replicate=int(replicate),
                        task=task,
                        value=float(value),
                        aux=json.loads(aux),
                    )
                    if not isinstance(record.aux, dict):
                        raise ValueError(f"aux {aux!r} is not a JSON object")
                except ValueError as exc:
                    raise ValidationError(f"{path}, line {reader.line_num}: malformed record: {exc}") from exc
                out.append(record)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: records file is not text: {exc}") from exc
    return out


def summary_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.p,
                    row.n,
                    row.task,
                    row.count,
                    repr(row.median),
                    repr(row.mean),
                    repr(row.std),
                    repr(row.minimum),
                    repr(row.maximum),
                ]
            )


# ---------------------------------------------------------------------------
# SVG: self-contained 800x600 documents with deterministic bytes.

_W, _H = 800, 600
_MARGIN = 70


def _scale(vals, lo_px, hi_px):
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmin -= 0.5
        vmax += 0.5
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _svg_scatter(points, medians, title: str) -> str:
    """Scatter of (ratio, value) with a median polyline, fixed viewBox."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_px, xmin, xmax = _scale(xs, _MARGIN, _W - _MARGIN)
    y_px, ymin, ymax = _scale(ys, _H - _MARGIN, _MARGIN)  # y grows upward
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="30" text-anchor="middle" font-size="18">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 25}" text-anchor="middle" font-size="12">{xmin:.4g}</text>',
        f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 25}" text-anchor="middle" font-size="12">{xmax:.4g}</text>',
        f'<text x="{_MARGIN - 10}" y="{_H - _MARGIN}" text-anchor="end" font-size="12">{ymin:.4g}</text>',
        f'<text x="{_MARGIN - 10}" y="{_MARGIN + 5}" text-anchor="end" font-size="12">{ymax:.4g}</text>',
        f'<text x="{_W // 2}" y="{_H - 15}" text-anchor="middle" font-size="14">p/n</text>',
    ]
    if len(medians) >= 2:
        coords = " ".join(f"{x_px(x):.2f},{y_px(y):.2f}" for x, y in medians)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
    for x, y in points:
        parts.append(f'<circle cx="{x_px(x):.2f}" cy="{y_px(y):.2f}" r="3" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(records, fmt: str, out_dir) -> list:
    """Write records in the requested format; returns the written paths."""
    from .harness import summarize  # local import to avoid a cycle

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "csv":
        rec_path = os.path.join(out_dir, "report_records.csv")
        records_to_csv(records, rec_path)
        paths.append(rec_path)
        if records:
            sum_path = os.path.join(out_dir, "report_summary.csv")
            summary_to_csv(summarize(records), sum_path)
            paths.append(sum_path)
        return paths
    if fmt == "json":
        payload = {
            "records": [
                {
                    "p": r.p,
                    "n": r.n,
                    "ratio": r.ratio,
                    "replicate": r.replicate,
                    "task": r.task,
                    "value": None if not math.isfinite(r.value) else r.value,
                    "aux": {k: v for k, v in r.aux.items() if k not in VOLATILE_AUX_KEYS},
                }
                for r in records
            ],
        }
        if records:
            payload["summary"] = [
                {
                    "p": s.p,
                    "n": s.n,
                    "task": s.task,
                    "count": s.count,
                    "median": s.median,
                    "mean": s.mean,
                    "std": s.std,
                    "min": s.minimum,
                    "max": s.maximum,
                }
                for s in summarize(records)
            ]
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return [path]
    if fmt == "svg":
        by_task = {}
        for rec in records:
            if rec.failed or not math.isfinite(rec.value):
                continue
            by_task.setdefault(rec.task, []).append(rec)
        for task in sorted(by_task):
            recs = by_task[task]
            points = sorted((r.ratio, r.value) for r in recs)
            med = {}
            for r in recs:
                med.setdefault(r.ratio, []).append(r.value)
            medians = sorted(
                (ratio, sorted(vals)[(len(vals) - 1) // 2]) for ratio, vals in med.items()
            )
            path = os.path.join(out_dir, f"report_{task}.svg")
            with open(path, "w") as fh:
                fh.write(_svg_scatter(points, medians, task))
            paths.append(path)
        return paths
    raise ValidationError(f"unknown report format {fmt!r} (want csv, json, or svg)")
