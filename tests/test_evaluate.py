"""Measurement layer: AUC against a brute-force oracle, SEM, accuracy, reports."""

import numpy as np
import pytest
from scipy.stats import rankdata

from dropoutlab.errors import BadValueError, EmptyListError, SingleClassError
from dropoutlab.evaluate import (
    EvalReport,
    EvalRow,
    _midranks,
    aggregate,
    auc_values,
    emit_report,
    raw_accuracy,
    sem,
)


def pair_count_auc(scores, labels):
    """Quadratic oracle: fraction of positive-negative pairs ranked correctly.

    Counts each (positive, negative) pair once, crediting 1 when the positive
    outscores the negative and 1/2 on a tie. Independent of the fast path on
    purpose: no ranks, no sorting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("oracle needs both classes")
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_instance(rng, max_n=200):
    """Random scored instance with both classes present and heavy ties."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
        if labels.min() == 0 and labels.max() == 1:
            break
    if rng.random() < 0.5:
        # coarse grid of score values forces tie handling to matter
        scores = rng.integers(0, max(2, n // 8), size=n).astype(float)
    else:
        scores = rng.normal(size=n)
    return scores, labels


class TestAucExamples:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_values(scores, labels) == 1.0

    def test_all_scores_equal_is_coin_flip(self):
        assert auc_values(np.full(10, 0.3), np.array([1, 0] * 5)) == 0.5

    def test_interleaved_hand_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([1, 0, 1, 0])
        assert auc_values(scores, labels) == pytest.approx(0.75, abs=1e-15)
        assert pair_count_auc(scores, labels) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            auc_values(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(SingleClassError):
            auc_values(np.array([0.1, 0.2]), np.array([0, 0]))


class TestAucAgainstOracle:
    def test_midranks_match_scipy_average_ranks(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            scores = rng.integers(0, int(rng.integers(1, 20)), size=n) * 0.25
            assert np.array_equal(_midranks(scores), rankdata(scores, method="average"))
        assert _midranks(np.zeros(0)).shape == (0,)
        assert _midranks(np.array([3.5])).tolist() == [1.0]

    def test_non_finite_scores_rejected(self):
        with pytest.raises(BadValueError):
            auc_values(np.array([0.2, np.nan, 0.7]), np.array([0, 1, 1]))

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(200):
            scores, labels = random_instance(rng)
            worst = max(worst, abs(auc_values(scores, labels) - pair_count_auc(scores, labels)))
        assert worst <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores, labels = random_instance(rng, max_n=60)
            base = auc_values(scores, labels)
            # strictly increasing maps: affine, exp, odd-power plus scale
            for f in (lambda s: 3.0 * s + 11.0, np.exp, lambda s: s**3 + 0.25 * s):
                assert auc_values(f(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_flip_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores, labels = random_instance(rng, max_n=60)
            assert auc_values(scores, labels) + auc_values(-scores, labels) == 1.0

    def test_prevalence_invariance_under_negative_duplication(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            scores, labels = random_instance(rng, max_n=50)
            base = auc_values(scores, labels)
            neg = labels == 0
            scores2 = np.concatenate([scores, scores[neg], scores[neg]])
            labels2 = np.concatenate([labels, labels[neg], labels[neg]])
            assert auc_values(scores2, labels2) == pytest.approx(base, abs=1e-12)


class TestSem:
    def test_singleton_is_zero(self):
        assert sem([0.5]) == 0.0

    def test_two_point_hand_value(self):
        # sample std of [0, 1] is sqrt(1/2); divide by sqrt(2)
        assert sem([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_constant_list(self):
        assert sem([0.7, 0.7, 0.7]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyListError):
            sem([])


class TestRawAccuracy:
    def test_perfect(self):
        assert raw_accuracy(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_all_zero_predictor_scores_base_rate(self):
        labels = np.array([1] + [0] * 9)
        assert raw_accuracy(np.zeros(10), labels) == pytest.approx(0.9)

    def test_threshold_zero_predicts_all_positive(self):
        labels = np.array([1, 1, 0, 0, 0])
        scores = np.array([0.2, 0.9, 0.4, 0.1, 0.3])
        assert raw_accuracy(scores, labels, threshold=0.0) == pytest.approx(0.4)


def _report_fixture():
    rows = [
        EvalRow("post_hoc", "B1x", -1, 0.9, 100, 20),
        EvalRow("post_hoc", "A1x", -1, 0.8, 50, 10),
        EvalRow("post_hoc", "A1x", 0, 0.95, 50, 10),
        EvalRow("baseline2", "A1x", 0, 0.7, 50, 10),
    ]
    return EvalReport.from_rows(rows, skipped=(("post_hoc", "B1x", 0, "single class"),))


class TestReport:
    def test_aggregate_means_and_sem(self):
        report = _report_fixture()
        agg = {(a.paradigm, a.week): a for a in report.aggregates}
        a = agg[("post_hoc", -1)]
        assert a.mean_auc == pytest.approx(0.85, abs=1e-15)
        assert a.sem == pytest.approx(sem([0.9, 0.8]), abs=1e-15)
        assert a.n_courses == 2
        assert agg[("post_hoc", 0)].n_courses == 1
        assert agg[("post_hoc", 0)].sem == 0.0

    def test_rows_sorted_deterministically(self):
        report = _report_fixture()
        keys = [(r.paradigm, r.course_id, r.week) for r in report.rows]
        assert keys == sorted(keys)

    def test_emit_and_reemit_byte_identical(self, tmp_path):
        report = _report_fixture()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        paths1 = emit_report(report, d1)
        paths2 = emit_report(report, d2)
        for k in paths1:
            assert paths1[k].read_bytes() == paths2[k].read_bytes()

    def test_row_csv_matches_aggregate_csv(self, tmp_path):
        import csv

        report = _report_fixture()
        paths = emit_report(report, tmp_path)
        with open(paths["rows"], newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["paradigm"] for r in rows] == [r.paradigm for r in report.rows]
        by_key = {}
        for r in rows:
            by_key.setdefault((r["paradigm"], int(r["week"])), []).append(float(r["auc"]))
        with open(paths["aggregate"], newline="") as f:
            for a in csv.DictReader(f):
                vals = by_key[(a["paradigm"], int(a["week"]))]
                assert float(a["mean_auc"]) == pytest.approx(np.mean(vals), abs=1e-12)
                assert float(a["sem"]) == pytest.approx(sem(vals), abs=1e-12)
                assert int(a["n_courses"]) == len(vals)

    def test_empty_report_header_only(self, tmp_path):
        paths = emit_report(EvalReport.from_rows([]), tmp_path)
        assert paths["rows"].read_bytes() == b"paradigm,course_id,week,auc,n_students,n_positives\r\n"
        assert paths["skipped"].read_bytes() == b"paradigm,course_id,week,reason\r\n"
        assert paths["aggregate"].read_bytes() == b"paradigm,week,mean_auc,sem,n_courses\r\n"

    def test_summary_counts_skips_of_every_reason(self, tmp_path):
        skipped = (("post_hoc", "B1x", 0, "single class"),
                   ("same_field", "HCCx", -1,
                    "no other Humanities course to train same_field for 'HCCx'"))
        report = EvalReport.from_rows(_report_fixture().rows, skipped=skipped)
        text = emit_report(report, tmp_path)["summary"].read_text()
        assert "skipped cells: 2\n" in text
        assert "single-class cells" not in text
        assert "  skipped same_field HCCx w-1: no other Humanities" in text

    def test_repeated_cell_rejected(self):
        rows = _report_fixture().rows
        with pytest.raises(BadValueError, match=r"\('post_hoc', 'A1x', -1\)"):
            EvalReport.from_rows(rows + rows[1:2])
        with pytest.raises(BadValueError, match=r"\('post_hoc', 'A1x', 0\)"):  # scored and skipped
            EvalReport.from_rows(rows, skipped=(("post_hoc", "A1x", 0, "single class"),))
        skipped = (("post_hoc", "B1x", 0, "single class"),) * 2
        with pytest.raises(BadValueError, match=r"\('post_hoc', 'B1x', 0\)"):
            EvalReport.from_rows(rows, skipped=skipped)

    def test_row_invariants_enforced(self):
        with pytest.raises(BadValueError):
            EvalRow("post_hoc", "A1x", 0, 1.5, 10, 2)
        with pytest.raises(BadValueError):
            EvalRow("post_hoc", "A1x", 0, 0.5, 10, 11)
