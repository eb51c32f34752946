import pytest

from soundskew.metrics import (
    ConfusionMatrix,
    MetricsError,
    accuracy,
    fp_rate_skew_adjusted,
    pool,
)
from tests.conftest import GIVEN_NAMES_CM, NAMES_CM


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5)) == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricsError):
            accuracy(ConfusionMatrix(0, 0, 0, 0))


class TestFpRateSkewAdjusted:
    def test_given_name_matrix_reproduces_published_76pct(self):
        value = fp_rate_skew_adjusted(GIVEN_NAMES_CM)
        fpr = 12623 / 22162
        fnr = 6461 / 35379
        assert value == pytest.approx(fpr / (fpr + fnr))
        assert value == pytest.approx(0.757, abs=5e-4)

    def test_symmetric_balanced_matrix_is_half(self):
        cm = ConfusionMatrix(tp=30, fn=20, fp=20, tn=30)
        assert fp_rate_skew_adjusted(cm) == 0.5

    def test_balanced_classes_reduce_to_error_share(self):
        cm = ConfusionMatrix(tp=35, fn=15, fp=25, tn=25)
        assert fp_rate_skew_adjusted(cm) == pytest.approx(25 / 40)

    def test_invariant_under_sample_duplication(self):
        cm = ConfusionMatrix(tp=10, fn=7, fp=4, tn=21)
        doubled = ConfusionMatrix(tp=20, fn=14, fp=8, tn=42)
        assert fp_rate_skew_adjusted(cm) \
            == pytest.approx(fp_rate_skew_adjusted(doubled))

    def test_zero_errors_undefined(self):
        assert fp_rate_skew_adjusted(
            ConfusionMatrix(tp=5, fp=0, fn=0, tn=5)) is None

    def test_missing_class_rejected(self):
        with pytest.raises(MetricsError):
            fp_rate_skew_adjusted(ConfusionMatrix(tp=0, fp=3, fn=0, tn=7))

    def test_bounds(self):
        for cm in (NAMES_CM, GIVEN_NAMES_CM,
                   ConfusionMatrix(tp=1, fp=9, fn=1, tn=1)):
            assert 0.0 <= fp_rate_skew_adjusted(cm) <= 1.0
            assert 0.0 <= accuracy(cm) <= 1.0


class TestPool:
    def test_single_matrix_identity(self):
        assert pool([NAMES_CM]) == NAMES_CM

    def test_all_zero(self):
        zero = ConfusionMatrix(0, 0, 0, 0)
        assert pool([zero, zero, zero]) == zero

    def test_pooled_accuracy_is_total_correct_share(self):
        folds = [ConfusionMatrix(tp=10, fp=3, fn=2, tn=9),
                 ConfusionMatrix(tp=8, fp=5, fn=4, tn=7),
                 ConfusionMatrix(tp=11, fp=2, fn=3, tn=8)]
        pooled = pool(folds)
        total_correct = sum(m.tp + m.tn for m in folds)
        total = sum(m.total for m in folds)
        assert accuracy(pooled) == pytest.approx(total_correct / total)

    def test_negative_counts_rejected(self):
        with pytest.raises(MetricsError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)
