import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretext_transfer.errors import ShapeError, ValidationError
from pretext_transfer.metrics import (
    AggregateCell,
    ConfusionCounts,
    FoldMetrics,
    aggregate_folds,
    compute_metrics,
    confusion_counts,
    fuse_predict,
    render_folds_csv,
    render_report_csv,
    render_report_text,
    validate_probability_rows,
)


def oracle_metrics(tp, tn, fp, fn):
    """Independent re-implementation of the metric formulas in plain Python."""
    sen = tp / (tp + fn) * 100.0 if tp + fn else 0.0
    spe = tn / (tn + fp) * 100.0 if tn + fp else 0.0
    ppv = tp / (tp + fp) if tp + fp else 0.0
    tpr = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * ppv * tpr / (ppv + tpr) if ppv + tpr else 0.0
    acc = (tp + tn) / (tp + tn + fp + fn) * 100.0
    return sen, spe, ppv, f1, acc


def oracle_fuse(rho_row, q_row):
    """Fusion of one row in plain Python: coordinate means, first maximum wins."""
    fused = [(a + b) / 2.0 for a, b in zip(rho_row, q_row)]
    return fused.index(max(fused)), fused


class TestFusePredict:
    def test_identical_vectors(self):
        labels, fused = fuse_predict([[0.7, 0.3], [0.1, 0.9]], [[0.7, 0.3], [0.1, 0.9]])
        assert labels.tolist() == [0, 1]
        assert np.allclose(fused, [[0.7, 0.3], [0.1, 0.9]])

    def test_hand_computed_mean(self):
        labels, fused = fuse_predict([[0.7, 0.3], [0.6, 0.4]], [[0.2, 0.8], [0.6, 0.4]])
        assert np.allclose(fused, [[0.45, 0.55], [0.6, 0.4]], atol=1e-12)
        assert labels.tolist() == [1, 0]

    def test_tie_breaks_to_lowest_index(self):
        labels, fused = fuse_predict([[0.5, 0.5]], [[0.5, 0.5]])
        assert labels.tolist() == [0]
        assert fused.sum() == pytest.approx(1.0, abs=1e-9)
        labels, _ = fuse_predict([[0.2, 0.4, 0.4]], [[0.2, 0.4, 0.4]])
        assert labels.tolist() == [1]

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        rho = rng.dirichlet(np.ones(4), size=25)
        q = rng.dirichlet(np.ones(4), size=25)
        labels_a, fused_a = fuse_predict(rho, q)
        labels_b, fused_b = fuse_predict(q, rho)
        assert np.array_equal(labels_a, labels_b)
        assert np.array_equal(fused_a, fused_b)

    def test_argmax_dominance(self):
        rng = np.random.default_rng(1)
        rho = rng.dirichlet(np.ones(3), size=50)
        q = rng.dirichlet(np.ones(3), size=50)
        labels, _ = fuse_predict(rho, q)
        agree = rho.argmax(axis=1) == q.argmax(axis=1)
        assert agree.any()
        assert np.array_equal(labels[agree], rho.argmax(axis=1)[agree])

    def test_matches_row_by_row_oracle(self):
        rng = np.random.default_rng(2)
        rho = rng.dirichlet(np.ones(3), size=40)
        q = rng.dirichlet(np.ones(3), size=40)
        rho[:5] = q[:5][:, ::-1]  # exact ties between two classes
        labels, fused = fuse_predict(rho, q)
        for i in range(40):
            label, row = oracle_fuse(rho[i].tolist(), q[i].tolist())
            assert labels[i] == label
            assert fused[i].tolist() == row

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_predict([[0.5, 0.5]], [[0.3, 0.3, 0.4]])
        with pytest.raises(ShapeError):
            fuse_predict([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5]])
        with pytest.raises(ShapeError):
            fuse_predict([0.5, 0.5], [0.5, 0.5])

    def test_rejects_non_probability_vectors(self):
        with pytest.raises(ValidationError):
            fuse_predict([[0.9, 0.3]], [[0.5, 0.5]])
        with pytest.raises(ValidationError):
            validate_probability_rows([[1.2, -0.2]])
        with pytest.raises(ShapeError):
            validate_probability_rows(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad_row, message", [
        ([np.nan, 0.5], "non-finite"),
        ([np.inf, 0.0], "non-finite"),
        ([1.5, -0.5], "outside"),
        ([0.7, 0.7], "sum to 1"),
    ])
    @pytest.mark.parametrize("operand", ["rho", "q"])
    def test_one_bad_row_in_a_batch_is_rejected(self, bad_row, message, operand):
        rows = np.full((6, 2), 0.5)
        rows[4] = bad_row
        good = np.full((6, 2), 0.5)
        args = (rows, good) if operand == "rho" else (good, rows)
        with pytest.raises(ValidationError, match=f"{operand} row 4 .*{message}"):
            fuse_predict(*args)


class TestConfusionCounts:
    def test_perfect_predictor(self):
        truth = np.array([1, 1, 1, 0, 0])
        counts = confusion_counts(truth, truth, positive_class=1)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 2, 0, 0)

    def test_complemented_predictions(self):
        truth = np.array([1, 1, 1, 0, 0])
        counts = confusion_counts(1 - truth, truth, positive_class=1)
        assert (counts.tp, counts.tn) == (0, 0)
        assert counts.fp == 2 and counts.fn == 3

    def test_matches_element_loop_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 2, size=100)
        truth = rng.integers(0, 2, size=100)
        counts = confusion_counts(pred, truth, positive_class=1)
        tp = tn = fp = fn = 0
        for p, t in zip(pred, truth):
            if p == 1 and t == 1:
                tp += 1
            elif p == 0 and t == 0:
                tn += 1
            elif p == 1 and t == 0:
                fp += 1
            else:
                fn += 1
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
        assert counts.total == 100

    def test_positive_class_mapping(self):
        pred = np.array([0, 0, 1])
        truth = np.array([0, 1, 1])
        counts = confusion_counts(pred, truth, positive_class=0)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_counts(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 1)


class TestComputeMetrics:
    def test_perfect_counts(self):
        values = compute_metrics(ConfusionCounts(tp=3, tn=2, fp=0, fn=0))
        assert values.sen == 100.0 and values.spe == 100.0
        assert values.f1 == 1.0 and values.acc == 100.0
        assert not values.degenerate

    def test_table_shaped_worked_example(self):
        values = compute_metrics(ConfusionCounts(tp=62, fn=38, tn=81, fp=19))
        assert values.sen == pytest.approx(62.0, abs=1e-12)
        assert values.spe == pytest.approx(81.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
    )
    def test_matches_formula_oracle(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        values = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        sen, spe, ppv, f1, acc = oracle_metrics(tp, tn, fp, fn)
        assert math.isclose(values.sen, sen, abs_tol=1e-12)
        assert math.isclose(values.spe, spe, abs_tol=1e-12)
        assert math.isclose(values.ppv, ppv, abs_tol=1e-12)
        assert math.isclose(values.f1, f1, abs_tol=1e-12)
        assert math.isclose(values.acc, acc, abs_tol=1e-12)
        assert 0.0 <= values.sen <= 100.0
        assert 0.0 <= values.spe <= 100.0
        assert 0.0 <= values.acc <= 100.0
        assert 0.0 <= values.f1 <= 1.0

    def test_zero_denominator_flags(self):
        values = compute_metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=0))
        assert values.sen == 0.0 and values.degenerate
        assert values.spe == 100.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(ConfusionCounts(0, 0, 0, 0))


def rows_for(values, ratio=50, method="TL"):
    return [
        FoldMetrics(fold=i, ratio=ratio, method=method, sen=v, spe=v, f1=v / 100, acc=v)
        for i, v in enumerate(values)
    ]


class TestAggregateFolds:
    def test_single_fold_std_zero(self):
        report = aggregate_folds(rows_for([80.0][:1]))
        cell = report.aggregated[(50, "TL", "acc")]
        assert cell == AggregateCell(80.0, 0.0)

    def test_hand_computed_sample_std(self):
        report = aggregate_folds(rows_for([60.0, 70.0, 80.0]))
        cell = report.aggregated[(50, "TL", "acc")]
        assert cell.mean == pytest.approx(70.0)
        assert cell.std == pytest.approx(10.0)

    def test_identical_rows_have_zero_std(self):
        report = aggregate_folds(rows_for([64.0, 64.0, 64.0, 64.0]))
        cell = report.aggregated[(50, "TL", "sen")]
        assert cell == AggregateCell(64.0, 0.0)

    def test_groups_are_independent(self):
        rows = rows_for([60.0, 70.0]) + rows_for([90.0, 92.0], ratio=10, method="All")
        report = aggregate_folds(rows)
        assert report.aggregated[(50, "TL", "acc")].mean == pytest.approx(65.0)
        assert report.aggregated[(10, "All", "acc")].mean == pytest.approx(91.0)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_folds([])


class TestRendering:
    def sample_report(self):
        rows = []
        for method, base in (("TL", 60.0), ("PRT+TL", 65.0), ("All", 70.0)):
            for ratio in (10, 100):
                rows.extend(rows_for([base, base + 4], ratio=ratio, method=method))
        return aggregate_folds(rows)

    def test_csv_schema_and_order(self):
        report = self.sample_report()
        lines = render_report_csv(report).splitlines()
        assert lines[0] == "ratio,method,metric,mean,std"
        assert lines[1].startswith("10,TL,sen,")
        # TL before PRT+TL before All, metric order sen/spe/f1/acc
        assert [line.split(",")[1] for line in lines[1:13:4]] == ["TL", "PRT+TL", "All"]
        assert [line.split(",")[2] for line in lines[1:5]] == ["sen", "spe", "f1", "acc"]

    def test_folds_csv_lists_every_row(self):
        report = self.sample_report()
        lines = render_folds_csv(report).splitlines()
        assert lines[0] == "ratio,method,fold,sen,spe,f1,acc"
        assert len(lines) == 1 + len(report.per_fold)

    def test_text_table_mentions_methods_and_ratios(self):
        text = render_report_text(self.sample_report())
        for token in ("TL", "PRT+TL", "All", "SEN", "SPE", "F1", "Accuracy"):
            assert token in text
        assert "10" in text and "100" in text
        assert "±" in text
