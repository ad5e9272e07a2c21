"""Probability fusion, binary confusion metrics and fold aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

METHOD_ORDER = ("TL", "PRT+TL", "All")
METRIC_ORDER = ("sen", "spe", "f1", "acc")

_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricValues:
    """sen/spe/acc in percent, f1 as a fraction; degenerate marks 0/0 cases."""

    sen: float
    spe: float
    f1: float
    acc: float
    degenerate: bool = False


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    ratio: int
    method: str
    values: MetricValues


@dataclass(frozen=True)
class AggregateCell:
    mean: float
    std: float


@dataclass
class MetricsReport:
    per_fold: list[FoldMetrics]
    aggregated: dict[tuple[int, str, str], AggregateCell]  # (ratio, method, metric)


def validate_probability_rows(values, name: str = "probabilities") -> np.ndarray:
    """A non-empty [n, C] batch whose every row is a probability vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.size < 1:
        raise ValidationError(f"{name} must be a non-empty [rows, classes] matrix")
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        raise ValidationError(f"{name} row {bad[0]} contains non-finite values")
    bad = np.flatnonzero((v.min(axis=1) < -_ENTRY_TOL) | (v.max(axis=1) > 1.0 + _ENTRY_TOL))
    if bad.size:
        raise ValidationError(f"{name} row {bad[0]} has entries outside [0, 1]")
    sums = v.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > _SUM_TOL)
    if bad.size:
        raise ValidationError(f"{name} row {bad[0]} must sum to 1, got {sums[bad[0]]!r}")
    return v


def fuse_predict(rho, q) -> tuple[np.ndarray, np.ndarray]:  # (labels [n], fused [n, C])
    """Each row's argmax of the row-wise mean of two [n, C] batches of
    probability rows, lowest index on ties, and that mean itself."""
    rho = validate_probability_rows(rho, "rho")
    q = validate_probability_rows(q, "q")
    if rho.shape != q.shape:
        raise ValidationError(f"shape mismatch: {rho.shape} vs {q.shape}")
    fused = (rho + q) / 2.0
    return fused.argmax(axis=1), fused


def compute_metrics(predictions, truth, positive_class: int) -> MetricValues:
    """Sensitivity, specificity, F1 and accuracy of a prediction vector.

    Ratios with a zero denominator come back as 0 with the degenerate flag set,
    which keeps fold aggregation total-order safe when a fold predicts a single
    class exclusively.
    """
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValidationError("predictions and truth must be equal-length vectors")
    if pred.size < 1:
        raise ValidationError("predictions and truth are empty")
    # one tally of 2 * (truth is positive) + (prediction is positive)
    cells = 2 * (true == positive_class) + (pred == positive_class)
    tn, fp, fn, tp = np.bincount(cells, minlength=4).tolist()
    degenerate = False

    def ratio(num: int, den: int) -> float:
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    tpr = ratio(tp, tp + fn)
    spe_fraction = ratio(tn, tn + fp)
    ppv = ratio(tp, tp + fp)
    if ppv + tpr > 0:
        f1 = 2.0 * ppv * tpr / (ppv + tpr)
    else:
        degenerate = True
        f1 = 0.0
    acc = (tp + tn) / pred.size * 100.0
    return MetricValues(tpr * 100.0, spe_fraction * 100.0, f1, acc, degenerate)


def aggregate_folds(rows: list[FoldMetrics]) -> MetricsReport:
    """Mean and sample standard deviation per (ratio, method, metric) over folds."""
    if not rows:
        raise ValidationError("no per-fold rows to aggregate")
    groups: dict[tuple[int, str], list[FoldMetrics]] = {}
    for row in rows:
        groups.setdefault((row.ratio, row.method), []).append(row)
    aggregated: dict[tuple[int, str, str], AggregateCell] = {}
    for ratio, method in sorted(groups, key=lambda k: (k[0], METHOD_ORDER.index(k[1]))):
        members = groups[(ratio, method)]
        for metric in METRIC_ORDER:
            values = np.array([getattr(row.values, metric) for row in members])
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            aggregated[(ratio, method, metric)] = AggregateCell(float(values.mean()), std)
    ordered_rows = sorted(rows, key=lambda r: (r.ratio, METHOD_ORDER.index(r.method), r.fold))
    return MetricsReport(ordered_rows, aggregated)


def render_report_csv(report: MetricsReport) -> str:
    lines = ["ratio,method,metric,mean,std"]
    for (ratio, method, metric), cell in report.aggregated.items():
        lines.append(f"{ratio},{method},{metric},{cell.mean!r},{cell.std!r}")
    return "\n".join(lines) + "\n"


def render_folds_csv(report: MetricsReport) -> str:
    lines = ["ratio,method,fold,sen,spe,f1,acc"]
    for row in report.per_fold:
        v = row.values
        lines.append(f"{row.ratio},{row.method},{row.fold},{v.sen!r},{v.spe!r},{v.f1!r},{v.acc!r}")
    return "\n".join(lines) + "\n"


def _cell_text(report: MetricsReport, ratio: int, method: str, metric: str, decimals: int) -> str:
    cell = report.aggregated[ratio, method, metric]
    return f"{cell.mean:.{decimals}f}±{cell.std:.{decimals}f}"


def render_report_text(report: MetricsReport) -> str:
    """Aligned tables: SEN/SPE/F1 with methods across columns, then accuracy."""
    ratios = sorted({key[0] for key in report.aggregated})
    methods = sorted({key[1] for key in report.aggregated}, key=METHOD_ORDER.index)
    width = 13
    out = []

    header_one = "%".ljust(5) + "".join(m.ljust(3 * width) for m in methods)
    header_two = " " * 5 + "".join(
        "".join(name.ljust(width) for name in ("SEN", "SPE", "F1")) for _ in methods
    )
    out.extend(["Five-fold results (mean±std over folds)", "", header_one, header_two])
    for ratio in ratios:
        row = str(ratio).ljust(5)
        for method in methods:
            row += _cell_text(report, ratio, method, "sen", 1).ljust(width)
            row += _cell_text(report, ratio, method, "spe", 1).ljust(width)
            row += _cell_text(report, ratio, method, "f1", 2).ljust(width)
        out.append(row.rstrip())

    out.extend(["", "Accuracy (mean±std over folds)", "", "%".ljust(5) + "".join(m.ljust(width) for m in methods)])
    for ratio in ratios:
        row = str(ratio).ljust(5)
        for method in methods:
            row += _cell_text(report, ratio, method, "acc", 1).ljust(width)
        out.append(row.rstrip())
    return "\n".join(out) + "\n"
