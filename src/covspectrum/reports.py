"""Sweep records: the ``RunRecord`` type, its CSV and JSON forms and the statistics over records.

The CSV schema is fixed (column set and order are golden-tested) and the
serialization is fully deterministic: floats use repr (shortest
round-trip) and aux maps are canonical JSON.  A record is written as it
is held, so reading a records file back gives the records that wrote it.
Every per-group statistic reads its groups from one helper, ``_grouped``,
save the edge block's dense fields, which pair each dense record's
lambda_max(B) with its shift.  ``emit_report`` writes only the ``_BLOCKS``
table: a block is a function of (records, law) to rows of one flat frozen
dataclass, law the sweep's ``DistributionSpec`` or None when it is not
known, and a block with no rows writes nothing.  There are two:
``summary``, per (p, n, task), and ``edge``, per (p, n) of the lambda_max
records; a new per-(p, n) diagnostic of those records is an ``edge``
column, not a new block.
All JSON the package writes goes through one strict encoder, ``json_text``,
which writes a non-finite number as ``null``.
"""

import csv
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ValidationError

__all__ = [
    "CSV_COLUMNS",
    "RunRecord",
    "SummaryRow",
    "RateFit",
    "EdgeRow",
    "records_to_csv",
    "read_records",
    "summarize",
    "fit_rate",
    "edge_report",
    "emit_report",
    "json_text",
]

CSV_COLUMNS = ("p", "n", "ratio", "replicate", "task", "value", "aux")

TAIL_EPS = 0.3
WILSON_Z = 1.96  # two-sided 95% normal quantile


@dataclass
class RunRecord:
    """One measurement row; (p, n, replicate, task) is unique per sweep."""

    p: int
    n: int
    replicate: int
    task: str
    value: float
    aux: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.p / self.n

    @property
    def failed(self) -> bool:
        return "error" in self.aux

    def sort_key(self):
        return (self.p, self.n, self.replicate, self.task)


def _null_non_finite(obj):
    if isinstance(obj, dict):
        return {key: _null_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(obj, **layout) -> str:
    """Key-sorted strict JSON of obj; a non-finite float at any depth is written as null."""
    return json.dumps(_null_non_finite(obj), sort_keys=True, allow_nan=False, **layout)


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
                    json_text(rec.aux, separators=(",", ":")),
                ]
            )


def _reject_constant(name):
    raise ValueError(f"aux holds the non-finite value {name}")


def read_records(path):
    """Parse a records CSV back into RunRecord objects.

    ``value`` may be ``nan`` (error rows carry it); aux must be strict JSON
    (a ``NaN`` or ``Infinity`` there is malformed) and ratio must be p / n.
    """
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
                        replicate=int(replicate),
                        task=task,
                        value=float(value),
                        aux=json.loads(aux, parse_constant=_reject_constant),
                    )
                    if not isinstance(record.aux, dict):
                        raise ValueError(f"aux {aux!r} is not a JSON object")
                    if record.p < 1 or record.n < 1 or record.replicate < 0:
                        raise ValueError("p and n must be >= 1 and replicate >= 0")
                    if float(ratio) != record.ratio:
                        raise ValueError(f"ratio {ratio} is not p / n")
                except ValueError as exc:
                    raise ValidationError(f"{path}, line {reader.line_num}: malformed record: {exc}") from exc
                out.append(record)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: records file is not text: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Statistics over records.


@dataclass(frozen=True)
class SummaryRow:
    """Order statistics of one (p, n, task); the field names are the CSV header."""

    p: int
    n: int
    task: str
    count: int
    median: float
    mean: float
    std: float
    min: float
    max: float


def _lower_median(sorted_values):
    return sorted_values[(len(sorted_values) - 1) // 2]


def _grouped(records, key, value=lambda rec: rec.value) -> dict:
    """key(rec) -> sorted finite value(rec) over the records that did not fail, in key order."""
    groups = {}
    for rec in records:
        if not rec.failed and math.isfinite(v := value(rec)):
            groups.setdefault(key(rec), []).append(v)
    return {k: sorted(groups[k]) for k in sorted(groups)}


@np.errstate(over="ignore", invalid="ignore")
def _mean_std(values) -> tuple:
    """(mean, sample std) of sorted finite values, std 0.0 for one value;
    each finite whenever its true value fits a double."""
    # scaled by a power of two to a largest magnitude in [1, 2), exact
    # but for subnormals, so neither the sum nor the squares can overflow
    scale = math.ldexp(0.5, math.frexp(max(-values[0], values[-1]))[1])
    arr = np.asarray(values) / scale
    return float(arr.mean() * scale), float(arr.std(ddof=1) * scale) if len(values) > 1 else 0.0


def summarize(records, law=None) -> list:
    """Per-(p, n, task) order statistics; error rows are excluded, and law is not read.

    The median is the lower median for even counts, so it is always an
    observed value.  No records, or none that succeeded, give no rows.
    """
    rows = []
    for (p, n, task), values in _grouped(records, lambda rec: (rec.p, rec.n, rec.task)).items():
        mean, std = _mean_std(values)
        rows.append(
            SummaryRow(
                p=p,
                n=n,
                task=task,
                count=len(values),
                median=float(_lower_median(values)),
                mean=mean,
                std=std,
                min=float(values[0]),
                max=float(values[-1]),
            )
        )
    return rows


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(median error) against log(p/n)."""

    slope: float
    intercept: float
    r2: float
    points: tuple


def fit_rate(records) -> RateFit | None:
    """Fit the covariance-error rate to summarize's cov_rate medians; None
    with fewer than 3 distinct p/n ratios."""
    rows = [row for row in summarize(records) if row.task == "cov_rate"]
    if len({row.p / row.n for row in rows}) < 3:
        return None
    for row in rows:
        if row.median <= 0:
            raise ValidationError(
                f"cov_rate median at p={row.p}, n={row.n} is {row.median!r}; the rate fit needs it > 0"
            )
    points = sorted((math.log(row.p / row.n), math.log(row.median)) for row in rows)
    x = np.array([a for a, _ in points])
    y = np.array([b for _, b in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2, points=tuple(points))


def _wilson(successes: int, total: int):
    z = WILSON_Z
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _lambda_max_b(rec) -> float:
    value = rec.aux["lambda_max_b"]  # null (json_text's non-finite) and a number past the doubles read as inf
    if value is not None and type(value) not in (int, float):
        raise ValidationError(f"lambda_max_b {value!r} at (p, n, replicate, task) = {rec.sort_key()} is not a number")
    return float(value) if value is not None and abs(value) <= sys.float_info.max else math.inf


@dataclass(frozen=True)
class EdgeRow:
    p: int
    n: int
    count: int
    median: float
    edge: float
    median_minus_edge: float
    median_minus_one: float
    dense: int
    exceed: int
    frequency: float | None
    wilson_low: float | None
    wilson_high: float | None
    mean_shift: float | None
    std_error: float | None
    implied_fourth_moment: float | None
    predicted_shift: float | None
    z: float | None


def _dense_fields(pairs, p: int, fourth: float) -> tuple:
    """EdgeRow's fields from ``dense`` on, from one shape's (lambda_max(B), lambda_max(A) - lambda_max(B)) pairs."""
    if not pairs:
        return (0, 0) + (None,) * 8
    total = len(pairs)
    exceed = sum(1 for b, _ in pairs if b > 1.0 + TAIL_EPS)
    mean, std = _mean_std(sorted(shift for _, shift in pairs))
    std_error = std / math.sqrt(total)
    predicted = (fourth - 1.0) / (2 * p) if math.isfinite(fourth) else None
    z = (mean - predicted) / std_error if predicted is not None and std_error > 0 else None
    return (total, exceed, exceed / total, *_wilson(exceed, total), mean, std_error, 1.0 + 2 * p * mean, predicted, z)


def edge_report(records, law=None) -> list:
    """The ``edge`` block: one row per (p, n) of the lambda_max records, by decreasing p/n.

    ``count`` and the lower ``median`` of lambda_max(A), against 1 and the
    edge 1 + sqrt(p/n)/2, cover both methods' records that did not fail.
    The fields from ``dense`` on cover those whose value and lambda_max_b
    are both finite: the frequency of {lambda_max(B) > 1 + TAIL_EPS} with
    Wilson bounds, which should not grow down the rows, and the mean shift
    lambda_max(A) - lambda_max(B), its standard error and the E X^4 =
    1 + 2p * mean it implies by the heuristic shift (E X^4 - 1)/(2p).
    ``predicted_shift`` is that heuristic at law.moment(4) and ``z`` is
    (mean_shift - predicted_shift) / std_error; each is None without a law
    or a finite E X^4, and z when the standard error is 0.
    """
    fourth = law.moment(4) if law is not None else math.inf  # no law predicts nothing, as an infinite E X^4 does
    lambda_max = [rec for rec in records if rec.task == "lambda_max"]
    pairs = {}
    for rec in lambda_max:
        if not rec.failed and "lambda_max_b" in rec.aux:
            b = _lambda_max_b(rec)
            if math.isfinite(b) and math.isfinite(rec.value):
                pairs.setdefault((rec.p, rec.n), []).append((b, rec.value - b))
    rows = []
    for (p, n), values in _grouped(lambda_max, lambda rec: (rec.p, rec.n)).items():
        median = _lower_median(values)
        edge = 1.0 + math.sqrt(p / n) / 2
        dense = _dense_fields(pairs.get((p, n)), p, fourth)
        rows.append(EdgeRow(p, n, len(values), median, edge, median - edge, median - 1.0, *dense))
    rows.sort(key=lambda r: -r.p / r.n)
    return rows


_BLOCKS = {
    "edge": edge_report,
    "summary": summarize,
}


def emit_report(records, fmt: str, out_dir, law=None) -> list:
    """Write the blocks with rows, as report_<name>.csv or keys of report.json; returns the paths.

    law is the sweep's ``DistributionSpec``, or None when it is not known.
    """
    # every block is derived before out_dir is made, so a record a block rejects writes nothing
    blocks = {name: rows for name, derive in _BLOCKS.items() if (rows := derive(records, law))}
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        paths = []
        for name, rows in blocks.items():
            paths.append(os.path.join(out_dir, f"report_{name}.csv"))
            with open(paths[-1], "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(f.name for f in fields(rows[0]))
                writer.writerows(astuple(row) for row in rows)
        return paths
    if fmt == "json":
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            fh.write(json_text({name: [vars(row) for row in rows] for name, rows in blocks.items()}, indent=2) + "\n")
        return [path]
    raise ValidationError(f"unknown report format {fmt!r} (want csv or json)")
