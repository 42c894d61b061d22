from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import accuracy, cohen_kappa, confusion_matrix, decompose, make_bank, repeated_holdout
from fingerbci.evaluation import RunReport


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], 3)
        expected = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 0]])
        assert np.array_equal(cm, expected)
        assert cm.sum() == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


class TestAccuracy:
    def test_diagonal_is_one(self):
        assert accuracy(np.diag([3, 4, 5])) == 1.0

    def test_hand_computed(self):
        assert accuracy(np.array([[3, 1], [1, 3]])) == 0.75

    def test_all_off_diagonal_is_zero(self):
        assert accuracy(np.array([[0, 2], [3, 0]])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2)))


class TestCohenKappa:
    def test_perfect_four_class(self):
        assert cohen_kappa(np.diag([10, 10, 10, 10])) == 1.0

    def test_uniform_is_zero(self):
        assert cohen_kappa(np.array([[25, 25], [25, 25]])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed(self):
        assert cohen_kappa(np.array([[40, 10], [20, 30]])) == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_marginals_convention(self):
        assert cohen_kappa(np.array([[5, 0], [0, 0]])) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_kappa_is_one_iff_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        cm = rng.integers(0, 10, (3, 3))
        if cm.sum() == 0:
            cm[0, 0] = 1
        diagonal = np.trace(cm) == cm.sum()
        if cohen_kappa(cm) == 1.0:
            assert diagonal
        if diagonal and cohen_kappa(cm) != 0.0:
            assert cohen_kappa(cm) == 1.0


class TestRunReport:
    def test_single_repetition_degenerates(self):
        report = RunReport(accuracies=[0.8], kappas=[0.5], confusions=[np.eye(2, dtype=int)])
        assert report.mean == report.max == 0.8
        assert report.sd == 0.0

    def test_max_at_least_mean_and_sd_sample(self):
        report = RunReport(accuracies=[0.5, 0.7, 0.9], kappas=[0.0, 0.2, 0.4], confusions=[])
        assert report.max >= report.mean
        assert report.sd == pytest.approx(np.std([0.5, 0.7, 0.9], ddof=1))

    def test_summary_fields(self):
        report = RunReport(accuracies=[1.0], kappas=[1.0], confusions=[np.eye(2, dtype=int)])
        summary = report.summary()
        for key in ("accuracies", "accuracy_mean", "accuracy_sd", "accuracy_max", "kappas", "kappa_mean", "confusions"):
            assert key in summary


@pytest.fixture()
def four_class(mini_four_class, fast_config):
    return decompose(mini_four_class, fast_config.bank())


class TestRepeatedHoldout:
    def test_binary_pair_runs_and_is_deterministic(self, four_class, fast_config):
        first = repeated_holdout(four_class, replace(fast_config, repetitions=2, seed=3), pair=(0, 1))
        second = repeated_holdout(four_class, replace(fast_config, repetitions=2, seed=3), pair=(0, 1))
        assert first.accuracies == second.accuracies
        assert first.kappas == second.kappas
        assert all(cm.shape == (2, 2) for cm in first.confusions)
        assert all(cm.sum() == 4 for cm in first.confusions)  # 2 test trials per class

    def test_multiclass_shapes(self, four_class, fast_config):
        report = repeated_holdout(four_class, replace(fast_config, repetitions=1, seed=5))
        assert len(report.accuracies) == len(report.kappas) == 1
        assert report.confusions[0].shape == (4, 4)
        assert report.confusions[0].sum() == 8  # 2 test trials x 4 classes
        assert report.max >= report.mean

    def test_separable_pair_scores_high(self, four_class, fast_config):
        report = repeated_holdout(four_class, replace(fast_config, repetitions=2, seed=7), pair=(0, 2))
        assert report.mean >= 0.75

    def test_decomposition_from_another_bank_rejected(self, mini_four_class, fast_config):
        decomp = decompose(mini_four_class, make_bank(8.0, 14.0, 2.0, taps=31))
        with pytest.raises(ValueError, match="filter bank"):
            repeated_holdout(decomp, replace(fast_config, repetitions=1, seed=1))

    def test_invalid_repetitions(self, four_class, fast_config):
        with pytest.raises(ValueError):
            repeated_holdout(four_class, replace(fast_config, repetitions=0, seed=1))
