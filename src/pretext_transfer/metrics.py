"""Probability fusion, binary confusion metrics and fold aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

METHOD_ORDER = ("TL", "PRT+TL", "All")
METRIC_ORDER = ("sen", "spe", "f1", "acc")

_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricValues:
    """sen/spe/acc in percent, ppv/f1 as fractions; degenerate marks 0/0 cases."""

    sen: float
    spe: float
    ppv: float
    f1: float
    acc: float
    degenerate: bool = False


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    ratio: int
    method: str
    sen: float
    spe: float
    f1: float
    acc: float


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
        raise ShapeError(f"{name} must be a non-empty [rows, classes] matrix")
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


def fuse_predict(rho, q) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise mean of two [n, C] batches of probability rows, and each row's
    argmax, lowest index on ties."""
    rho = validate_probability_rows(rho, "rho")
    q = validate_probability_rows(q, "q")
    if rho.shape != q.shape:
        raise ShapeError(f"shape mismatch: {rho.shape} vs {q.shape}")
    fused = (rho + q) / 2.0
    return fused.argmax(axis=1), fused


def confusion_counts(predictions, truth, positive_class: int) -> ConfusionCounts:
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ShapeError("predictions and truth must be equal-length vectors")
    pred_pos = pred == positive_class
    true_pos = true == positive_class
    return ConfusionCounts(
        tp=int(np.sum(pred_pos & true_pos)),
        tn=int(np.sum(~pred_pos & ~true_pos)),
        fp=int(np.sum(pred_pos & ~true_pos)),
        fn=int(np.sum(~pred_pos & true_pos)),
    )


def compute_metrics(counts: ConfusionCounts) -> MetricValues:
    """Sensitivity, specificity, precision, F1 and accuracy from a 2x2 tally.

    Ratios with a zero denominator come back as 0 with the degenerate flag set,
    which keeps fold aggregation total-order safe when a fold predicts a single
    class exclusively.
    """
    if counts.total < 1:
        raise ValidationError("confusion counts are empty")
    degenerate = False

    def ratio(num: int, den: int) -> float:
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    tpr = ratio(counts.tp, counts.tp + counts.fn)
    spe_fraction = ratio(counts.tn, counts.tn + counts.fp)
    ppv = ratio(counts.tp, counts.tp + counts.fp)
    if ppv + tpr > 0:
        f1 = 2.0 * ppv * tpr / (ppv + tpr)
    else:
        degenerate = True
        f1 = 0.0
    acc = (counts.tp + counts.tn) / counts.total * 100.0
    return MetricValues(tpr * 100.0, spe_fraction * 100.0, ppv, f1, acc, degenerate)


def _method_rank(method: str) -> tuple[int, str]:
    if method in METHOD_ORDER:
        return (METHOD_ORDER.index(method), "")
    return (len(METHOD_ORDER), method)


def aggregate_folds(rows: list[FoldMetrics]) -> MetricsReport:
    """Mean and sample standard deviation per (ratio, method, metric) over folds."""
    if not rows:
        raise ValidationError("no per-fold rows to aggregate")
    groups: dict[tuple[int, str], list[FoldMetrics]] = {}
    for row in rows:
        groups.setdefault((row.ratio, row.method), []).append(row)
    aggregated: dict[tuple[int, str, str], AggregateCell] = {}
    for ratio, method in sorted(groups, key=lambda k: (k[0], _method_rank(k[1]))):
        members = groups[(ratio, method)]
        for metric in METRIC_ORDER:
            values = np.array([getattr(row, metric) for row in members])
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            aggregated[(ratio, method, metric)] = AggregateCell(float(values.mean()), std)
    ordered_rows = sorted(rows, key=lambda r: (r.ratio, _method_rank(r.method), r.fold))
    return MetricsReport(ordered_rows, aggregated)


def render_report_csv(report: MetricsReport) -> str:
    lines = ["ratio,method,metric,mean,std"]
    for (ratio, method, metric), cell in report.aggregated.items():
        lines.append(f"{ratio},{method},{metric},{cell.mean!r},{cell.std!r}")
    return "\n".join(lines) + "\n"


def render_folds_csv(report: MetricsReport) -> str:
    lines = ["ratio,method,fold,sen,spe,f1,acc"]
    for row in report.per_fold:
        lines.append(
            f"{row.ratio},{row.method},{row.fold},{row.sen!r},{row.spe!r},{row.f1!r},{row.acc!r}"
        )
    return "\n".join(lines) + "\n"


def _cell_text(report: MetricsReport, ratio: int, method: str, metric: str, decimals: int) -> str:
    cell = report.aggregated.get((ratio, method, metric))
    if cell is None:
        return "-"
    return f"{cell.mean:.{decimals}f}±{cell.std:.{decimals}f}"


def render_report_text(report: MetricsReport) -> str:
    """Aligned tables: SEN/SPE/F1 with methods across columns, then accuracy."""
    ratios = sorted({key[0] for key in report.aggregated})
    methods = sorted({key[1] for key in report.aggregated}, key=_method_rank)
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
