import functools
import itertools
import json
import operator
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import (
    Dataset,
    FilterBank,
    PipelineConfig,
    Trial,
    decompose,
    ecoc,
    exhaustive_code,
    fit_ecoc,
    load_dataset,
    load_model,
    make_bank,
    predict_ecoc,
    save_dataset,
    save_model,
)
from fingerbci.csp import fit_csp_stack
from fingerbci.ecoc import (
    PAIR_CODE,
    ColumnModel,
    check_code,
    EcocModel,
    decode,
    predict_trials,
    resolve_feature_grid,
)
from fingerbci.extratrees import EtForest, EtNode, EtParams, fit as et_fit, predict as et_predict

import extratrees_reference as reference


def hamming(a, b) -> int:
    """Independent oracle: number of differing positions of two equal-length bit vectors."""
    return sum(1 for x, y in zip(a, b, strict=True) if x != y)


def brute_force_nearest(rows: np.ndarray, word) -> int:
    """Independent oracle: linear scan with lowest-index tie-break."""
    best_index, best_distance = None, None
    for i, row in enumerate(rows):
        distance = hamming(row, word)
        if best_distance is None or distance < best_distance:
            best_index, best_distance = i, distance
    return best_index


class TestExhaustiveCode:
    def test_four_class_rows(self):
        code = exhaustive_code(4)
        expected = np.array(
            [
                [1, 1, 1, 1, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 1],
                [0, 0, 1, 1, 0, 0, 1],
                [0, 1, 0, 1, 0, 1, 0],
            ]
        )
        assert np.array_equal(code, expected)

    def test_three_class_rows(self):
        code = exhaustive_code(3)
        assert np.array_equal(code, [[1, 1, 1], [0, 0, 1], [0, 1, 0]])

    def test_codeword_length(self):
        for p in range(3, 9):
            assert exhaustive_code(p).shape[1] == 2 ** (p - 1) - 1

    def test_minimum_distance_four_class(self):
        code = exhaustive_code(4)
        distances = [
            hamming(code[i], code[j]) for i in range(4) for j in range(i + 1, 4)
        ]
        assert min(distances) == 4

    def test_invariants_hold_for_all_supported_sizes(self):
        for p in range(3, 9):
            code = exhaustive_code(p)
            check_code(code)
            assert code.shape[1] == 2 ** (p - 1) - 1
            assert (code[0] == 1).all()
            distances = [hamming(code[i], code[j]) for i in range(p) for j in range(i + 1, p)]
            assert min(distances) == 2 ** (p - 2)

    @pytest.mark.parametrize(
        "bits, message",
        [
            ([[0, 1], [2, 0]], "0 or 1"),
            ([[0, 1], [0, 1], [1, 0]], "distinct"),
            ([[1, 0], [1, 1]], "constant"),
            ([[0, 0], [1, 1]], "identical"),
            ([[0, 1], [1, 0]], "complementary"),
        ],
    )
    def test_generic_check_rejects(self, bits, message):
        with pytest.raises(ValueError, match=message):
            check_code(np.array(bits))

    def test_out_of_range_rejected(self):
        for p in (2, 9):
            with pytest.raises(ValueError):
                exhaustive_code(p)

    def test_printed_table_variant_fails_validation(self):
        # A class-2 row of 0001111 creates a constant column and breaks the
        # distance structure; the run-length construction is the valid one.
        bits = exhaustive_code(4).copy()
        bits[1] = [0, 0, 0, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            check_code(bits)


class TestHamming:
    """The distance oracle the code and decode tests below rely on."""

    def test_identical_is_zero(self):
        word = np.array([1, 0, 1, 1])
        assert hamming(word, word) == 0

    def test_reference_rows(self):
        assert hamming(np.array([1] * 7), np.array([0, 0, 0, 0, 1, 1, 1])) == 4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20), st.data())
    def test_symmetry(self, a, data):
        b = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        assert hamming(np.array(a), np.array(b)) == hamming(np.array(b), np.array(a))


class TestDecode:
    def test_exact_row_decodes_to_class(self):
        code = exhaustive_code(4)
        for c in range(4):
            assert decode(code, code[c]) == c

    def test_one_bit_from_class_one(self):
        code = exhaustive_code(4)
        word = np.array([1, 1, 1, 1, 1, 1, 0])
        distances = [hamming(word, code[c]) for c in range(4)]
        assert distances == [1, 5, 5, 3]
        assert decode(code, word) == 0

    def test_brute_forced_tie_case(self):
        # Distances to the four rows are (4, 4, 2, 2): tie between the last
        # two classes, resolved to the lower index.
        code = exhaustive_code(4)
        word = np.array([0, 0, 1, 1, 0, 1, 0])
        distances = [hamming(word, code[c]) for c in range(4)]
        assert distances == [4, 4, 2, 2]
        assert decode(code, word) == 2
        assert decode(code, word) == brute_force_nearest(code, word)

    def test_all_words_match_brute_force_p3(self):
        code = exhaustive_code(3)
        for word in itertools.product((0, 1), repeat=3):
            assert decode(code, np.array(word)) == brute_force_nearest(code, word)

    def test_single_bit_correction_p4(self):
        code = exhaustive_code(4)
        for c in range(4):
            for j in range(7):
                word = code[c].copy()
                word[j] ^= 1
                assert decode(code, word) == c

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode(exhaustive_code(3), np.array([1, 0]))

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_batch_equals_rows_and_brute_force(self, p):
        code = exhaustive_code(p)
        words = np.array(list(itertools.product((0, 1), repeat=code.shape[1])))
        rows = decode(code, words)
        assert rows.shape == (len(words),)
        assert rows.tolist() == [decode(code, word) for word in words]
        assert rows.tolist() == [brute_force_nearest(code, word) for word in words]
        # Any leading shape decodes the same words.
        assert np.array_equal(decode(code, words.reshape(2, -1, code.shape[1])), rows.reshape(2, -1))

    def test_empty_batch_decodes_to_no_rows(self):
        assert decode(exhaustive_code(4), np.zeros((0, 7), dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("shape", [(), (5, 6), (5, 8), (2, 3, 1), (7, 0)])
    def test_batch_wrong_last_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="7 columns"):
            decode(exhaustive_code(4), np.zeros(shape, dtype=np.int64))


class TestFeatureGrid:
    def test_default_grid(self):
        assert resolve_feature_grid(None, 9) == [1, 3, 9]
        assert resolve_feature_grid(None, 1) == [1]

    def test_explicit_grid_clamped(self):
        assert resolve_feature_grid([0, 4, 99], 8) == [1, 4, 8]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolve_feature_grid([], 4)


# Three bands and tiny forests, sized for unit tests.
SMALL = PipelineConfig(
    band_start=8.0, band_stop=14.0, band_width=2.0, fir_taps=63, csp_pairs=1, cv_folds=2,
    et_max_features=[1], et_min_samples_split=[2], et_n_estimators=[10],
)


@pytest.fixture(scope="module")
def mini_decomp(request):
    dataset = request.getfixturevalue("mini_four_class")
    return dataset, decompose(dataset, SMALL.bank())


def fit_small_ecoc(decomp, seed=3):
    return fit_ecoc(decomp, exhaustive_code(4), replace(SMALL, seed=seed))


class TestFitEcoc:
    def test_seven_columns_with_bands(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        assert len(model.columns) == 7
        for column in model.columns:
            assert column.selected_bands
            assert column.filters.shape == (len(column.selected_bands), 2 * SMALL.csp_pairs, len(dataset.channel_names))

    def test_column_keeps_first_and_last_csp_rows(self, mini_decomp):
        # One pair of four channels: rows 0 and 3 of each band's CSP, fitted
        # on the same class means as the column.
        _, decomp = mini_decomp
        m = SMALL.csp_pairs
        model = fit_small_ecoc(decomp)
        for j, column in enumerate(model.columns):
            y = model.code[decomp.labels, j]
            covs = decomp.csp_covariances[column.selected_bands]
            full, _ = fit_csp_stack(covs[:, y == 0].mean(axis=1), covs[:, y == 1].mean(axis=1), m)
            assert column.filters.dtype == np.float64
            assert np.array_equal(column.filters[:, :m], full[:, :m])
            assert np.array_equal(column.filters[:, m:], full[:, -m:])

    def test_degenerate_code_rejected(self, mini_decomp):
        _, decomp = mini_decomp
        bits = exhaustive_code(4).copy()
        bits[1] = [0, 0, 0, 1, 1, 1, 1]  # printed-table variant: column 4 all ones
        with pytest.raises(ValueError, match="one side"):
            fit_ecoc(decomp, bits, SMALL)

    def test_small_pool_refused_before_any_fit(self, mini_decomp, monkeypatch):
        # Column 6 of the 4-class code puts class 3 (middle) alone on side 0.
        _, decomp = mini_decomp
        keep = np.flatnonzero(decomp.labels != 3).tolist() + np.flatnonzero(decomp.labels == 3)[:2].tolist()
        fitted = []
        monkeypatch.setattr(ecoc, "fit_column", lambda *args: fitted.append(args))
        with pytest.raises(ValueError, match=r"code column 6 has 2 trials on side 0 \(classes middle\), fewer than cv_folds 3"):
            fit_ecoc(decomp.subset(keep), exhaustive_code(4), replace(SMALL, cv_folds=3))
        assert fitted == []

    def test_deterministic(self, mini_decomp):
        dataset, decomp = mini_decomp
        first = fit_small_ecoc(decomp, seed=9)
        second = fit_small_ecoc(decomp, seed=9)
        predictions_first = predict_trials(first, dataset.trials[:6])
        predictions_second = predict_trials(second, dataset.trials[:6])
        assert np.array_equal(predictions_first, predictions_second)
        assert [c.selected_bands for c in first.columns] == [c.selected_bands for c in second.columns]

    def test_missing_class_rejected(self, mini_decomp):
        _, decomp = mini_decomp
        labels = decomp.labels.copy()
        labels[labels == 3] = 2
        with pytest.raises(ValueError, match="classes"):
            fit_small_ecoc(replace(decomp, labels=labels))

    def test_single_trial_prediction_matches_batch(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        batch = predict_trials(model, dataset.trials[:4])
        singles = [predict_ecoc(model, t) for t in dataset.trials[:4]]
        assert list(batch) == singles

    def test_channel_mismatch_rejected(self, mini_decomp):
        from fingerbci import Trial

        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        bad = Trial(label=0, samples=np.zeros((7, 512), dtype=np.float32), sample_rate=128.0)
        with pytest.raises(ValueError, match="channels"):
            predict_ecoc(model, bad)

    def test_montage_checked_when_given(self, mini_decomp):
        from fingerbci import Trial

        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        names = list(dataset.channel_names)
        reversed_trials = [Trial(t.label, t.samples[::-1], t.sample_rate) for t in dataset.trials[:3]]
        for call in (
            lambda: predict_trials(model, reversed_trials, channel_names=names[::-1]),
            lambda: predict_ecoc(model, reversed_trials[0], channel_names=names[::-1]),
        ):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(names[::-1]) in str(caught.value) and str(names) in str(caught.value)
        # The rate is read from the trials, whether names are given or not.
        faster = [Trial(t.label, t.samples, 2 * t.sample_rate) for t in dataset.trials[:3]]
        for given_names in (names, None):
            with pytest.raises(ValueError, match=f"{2 * dataset.sample_rate} Hz"):
                predict_trials(model, faster, channel_names=given_names)
        # The model's own montage, given or not, predicts the same.
        given = predict_trials(model, dataset.trials[:3], channel_names=names)
        assert np.array_equal(given, predict_trials(model, dataset.trials[:3]))
        assert predict_ecoc(model, dataset.trials[0], channel_names=names) == given[0]

    def test_taps_taken_from_decomposition(self, mini_decomp):
        # Prediction must filter with the bank the model was trained on.
        dataset, decomp = mini_decomp
        assert decomp.taps == 63
        assert fit_small_ecoc(decomp).taps == 63

    def test_mostly_correct_on_training_distribution(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        predictions = predict_trials(model, dataset.trials)
        assert np.mean(predictions == dataset.labels()) >= 0.8


    def test_unequal_lengths_batch_equals_single_trials(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        lengths = [256, 200, 256, 230, 200, 256, 230, 190]
        trials = [Trial(t.label, t.samples[:, :n], t.sample_rate) for t, n in zip(dataset.trials[::4], lengths)]
        assert list(predict_trials(model, trials)) == [predict_ecoc(model, t) for t in trials]
        batch = ecoc._trial_features(model, trials, None)
        for i, trial in enumerate(trials):
            assert np.array_equal(ecoc._trial_features(model, [trial], None)[0], batch[i])

    def test_all_zero_trial_named_with_its_band(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        zero = Trial(label=0, samples=np.zeros((4, 256)), sample_rate=128.0)
        first = model.bands[min(b for column in model.columns for b in column.selected_bands)]
        with pytest.raises(ValueError, match=re.escape(f"trial 0 is all zero in band {first}")):
            predict_ecoc(model, zero)
        with pytest.raises(ValueError, match=re.escape(f"trial 2 is all zero in band {first}")):
            predict_trials(model, dataset.trials[:2] + [zero])


def fit_small_pair(dataset, pair, seed):
    """The class-pair decoder that ``train --classes`` builds: PAIR_CODE on the pair view."""
    from fingerbci.trialstore import subset_classes

    pair_view = subset_classes(dataset, *pair)
    decomp = decompose(pair_view, SMALL.bank())
    model = fit_ecoc(decomp, PAIR_CODE, replace(SMALL, seed=seed))
    return pair_view, replace(model, classes=list(pair), class_names=list(dataset.class_names))


class TestPairModel:
    def test_fit_and_predict_pair(self, mini_decomp):
        dataset, _ = mini_decomp
        pair_view, model = fit_small_pair(dataset, (0, 2), seed=4)
        assert model.taps == 63
        assert len(model.columns) == 1
        predictions = predict_trials(model, pair_view.trials)
        assert set(np.unique(predictions)) <= {0, 2}
        truth = np.where(pair_view.labels() == 1, 2, 0)
        assert np.mean(predictions == truth) >= 0.9


def serving_model(rng, n_channels, taps, columns):
    """A model whose columns read ``columns``, ``(selected_bands, n_pairs)``
    each, through random kept filters; serving features never read forests."""
    bank = make_bank(8.0, 20.0, 2.0, taps=taps)
    return EcocModel(
        code=PAIR_CODE, classes=[0, 1], class_names=["a", "b"], channel_names=[f"ch{c}" for c in range(n_channels)],
        sample_rate=128.0, bands=bank.bands, taps=taps,
        columns=[ColumnModel(selected_bands=bands, filters=rng.standard_normal((len(bands), 2 * m, n_channels)),
                             forest=None) for bands, m in columns],
    )


class TestServingFeatures:
    """Serving features against the decomposition's, ``_column_features``
    over ``decompose`` of the same trials.  Both read the same band signal
    and differ only in rounding order; they must agree to 1e-9."""

    # Six channels, rows per band: band 0 two, band 2 2 + 4 + 2 = 8 from
    # three columns and band 1 six (both at least C), band 3 two, band 5
    # four.  Columns read blocks of 2, 4 and 6 rows.
    SHARED = [([0, 2], 1), ([2], 2), ([2, 3, 5], 1), ([1], 3), ([5], 1)]

    @pytest.mark.parametrize("taps, n_channels, columns", [
        (63, 6, SHARED),
        (101, 6, SHARED),
        (63, 3, [([4, 1], 1), ([4], 1)]),  # every band reads at least C rows
        (31, 8, [([0, 1, 2, 3, 4, 5], 2)]),  # every band reads fewer than C rows
    ])
    def test_equal_to_decomposition_features(self, taps, n_channels, columns):
        rng = np.random.default_rng(taps + n_channels)
        model = serving_model(rng, n_channels, taps, columns)
        trials = [Trial(label=i % 2, samples=rng.standard_normal((n_channels, n)), sample_rate=128.0)
                  for i, n in enumerate([400, 400, 330, 400, 330, 512])]
        dataset = Dataset(sample_rate=128.0, channel_names=model.channel_names, class_names=model.class_names,
                          trials=trials)
        decomp = decompose(dataset, FilterBank(bands=model.bands, taps=taps))
        served = ecoc._trial_features(model, trials, None)
        expected = np.hstack([ecoc._column_features(column.selected_bands, column.filters, decomp.feature_covariances)
                              for column in model.columns])
        assert served.shape == expected.shape
        np.testing.assert_allclose(served, expected, rtol=0, atol=1e-9)
        for i, trial in enumerate(trials):
            assert np.array_equal(ecoc._trial_features(model, [trial], None)[0], served[i])


@pytest.fixture(scope="module")
def plan_models(mini_decomp):
    """A trained model whose rows outnumber the channels times the bands
    they read, so its plans filter the channels, and a class-pair model
    with fewer rows, whose plans project the spectra."""
    dataset, decomp = mini_decomp
    channels = fit_small_ecoc(decomp)
    _, projecting = fit_small_pair(dataset, (0, 2), seed=4)
    assert not channels._plans(256).project and projecting._plans(256).project
    return {"channels": channels, "projecting": projecting}


class TestServingPlan:
    """Each trial length is served from the model's plan for it; the plan
    changes no output and no refusal."""

    @pytest.mark.parametrize("branch", ["channels", "projecting"])
    def test_single_trial_features_equal_batch_and_bands(self, plan_models, mini_decomp, branch):
        dataset, _ = mini_decomp
        model = replace(plan_models[branch])
        covariances = decompose(dataset, SMALL.bank()).feature_covariances
        batch = ecoc._trial_features(model, dataset.trials, None)
        for i, trial in enumerate(dataset.trials):
            assert np.array_equal(ecoc._trial_features(model, [trial], None)[0], batch[i])
        expected = np.hstack([ecoc._column_features(c.selected_bands, c.filters, covariances) for c in model.columns])
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-9)
        predicted = predict_trials(model, dataset.trials)
        assert np.array_equal(predicted, ecoc.predict_from_bands(model, covariances))
        assert [predict_ecoc(model, trial) for trial in dataset.trials] == list(predicted)

    @pytest.mark.parametrize("branch", ["channels", "projecting"])
    def test_two_lengths_build_two_plans(self, plan_models, mini_decomp, tmp_path, branch):
        dataset, _ = mini_decomp
        model = replace(plan_models[branch])
        save_model(model, tmp_path)
        trials = [Trial(t.label, t.samples[:, :n], t.sample_rate) for t, n in zip(dataset.trials, [256, 200] * 8)]
        served = [predict_ecoc(model, trial) for trial in trials]
        assert model._plans.cache_info().currsize == 2
        assert served == [predict_ecoc(load_model(tmp_path), trial) for trial in trials]
        assert np.array_equal(ecoc._trial_features(model, trials, None),
                              ecoc._trial_features(load_model(tmp_path), trials, None))

    def test_plans_kept_for_the_last_16_lengths(self, plan_models, mini_decomp):
        dataset, _ = mini_decomp
        model = replace(plan_models["projecting"])
        for n in range(256, 238, -1):
            predict_ecoc(model, Trial(0, dataset.trials[0].samples[:, :n], 128.0))
        assert model._plans.cache_info().currsize == model._plans.cache_info().maxsize == 16

    def test_replaced_model_builds_its_own_plan(self, plan_models, mini_decomp):
        # The pair model's fields over a model that has served: its plans project, the first one's do not.
        dataset, _ = mini_decomp
        first = replace(plan_models["channels"])
        predict_trials(first, dataset.trials)
        pair = plan_models["projecting"]
        second = replace(first, code=pair.code, classes=pair.classes, columns=pair.columns)
        assert second._plans is not first._plans
        assert second._plans(256).project and not first._plans(256).project
        fresh = replace(pair)
        assert np.array_equal(ecoc._trial_features(second, dataset.trials, None),
                              ecoc._trial_features(fresh, dataset.trials, None))
        assert np.array_equal(predict_trials(second, dataset.trials), predict_trials(fresh, dataset.trials))

    @pytest.mark.parametrize("branch", ["channels", "projecting"])
    def test_refusals_keep_their_messages(self, plan_models, mini_decomp, branch):
        dataset, _ = mini_decomp
        model = replace(plan_models[branch])
        names, good = list(dataset.channel_names), dataset.trials[0]
        first = model.bands[min(b for column in model.columns for b in column.selected_bands)]
        zero = Trial(label=0, samples=np.zeros((4, 256)), sample_rate=128.0)
        refusals = [
            ([Trial(0, good.samples[:, :189], 128.0)], None, "trial too short to filter: 189 samples <= 3 x 63 taps"),
            ([zero], None, f"trial 0 is all zero in band {first}"),
            ([good, zero], None, f"trial 1 is all zero in band {first}"),
            ([Trial(0, np.ones((7, 256)), 128.0)], None, "trial has 7 channels, model expects 4"),
            ([good], names[::-1], f"channels {names[::-1]} at 128.0 Hz do not match the model's channels {names} "
                                  "at 128.0 Hz (names, order and sample rate must agree)"),
            ([Trial(0, good.samples, 256.0)], None, f"channels {names} at 256.0 Hz do not match"),
        ]
        for trials, channel_names, message in refusals:
            with pytest.raises(ValueError, match=re.escape(message)):
                predict_trials(model, trials, channel_names=channel_names)
            if len(trials) == 1:
                with pytest.raises(ValueError, match=re.escape(message)):
                    predict_ecoc(model, trials[0], channel_names=channel_names)
        # The refusals leave the model serving as a fresh one does.
        assert np.array_equal(predict_trials(model, dataset.trials), predict_trials(replace(model), dataset.trials))


def voting_model(rng, dims, n_estimators):
    """An exhaustive-code model of ``len(dims)`` = 2^(p-1) - 1 columns whose
    column ``j`` forest reads ``dims[j]`` features; voting never reads filters."""
    columns = []
    for j, (dim, n) in enumerate(zip(dims, n_estimators)):
        features = rng.standard_normal((30, dim))
        labels = (features[:, 0] + rng.standard_normal(30) > 0).astype(np.int64)
        labels[:2] = [0, 1]
        forest = et_fit(features, labels, EtParams(max_features=dim, min_samples_split=2, n_estimators=n, seed=j))
        columns.append(ColumnModel(selected_bands=[], filters=np.empty((0, 2, 1)), forest=forest))
    n_classes = (len(dims) + 1).bit_length()
    return EcocModel(code=exhaustive_code(n_classes), classes=list(range(n_classes)), columns=columns,
                     class_names=[f"c{i}" for i in range(n_classes)], channel_names=["ch0"], sample_rate=128.0,
                     bands=[(8.0, 10.0)], taps=63)


def reference_classes(model, features):
    """Decode of each column's per-tree majority through the scalar walk."""
    ends = np.cumsum([column.forest.feature_dim for column in model.columns])
    bits = np.stack([reference.predict(column.forest, features[:, end - column.forest.feature_dim : end])
                     for column, end in zip(model.columns, ends)], axis=1)
    return np.asarray(model.classes)[decode(model.code, bits)]


class TestVote:
    """``_vote``'s one descent through every column's trees against the
    per-column, per-tree majority of the scalar walk."""

    def test_columns_of_different_dimensions(self):
        rng = np.random.default_rng(90)
        model = voting_model(rng, dims=(4, 1, 8, 2, 4, 3, 6), n_estimators=(3, 9, 4, 1, 6, 2, 5))
        # A tied column: one tree votes 1 everywhere and one 0 everywhere.
        tied = EtForest([EtNode(counts=(0, 2)), EtNode(counts=(2, 0))], EtParams(1, 2, 2), 3)
        model.columns[5] = ColumnModel(selected_bands=[], filters=np.empty((0, 2, 1)), forest=tied)
        features = rng.standard_normal((60, 28))
        expected = reference_classes(model, features)
        assert np.array_equal(ecoc._vote(model, features), expected)
        for i, row in enumerate(features):
            assert np.array_equal(ecoc._vote(model, row[np.newaxis]), expected[i : i + 1])

    def test_replaced_columns_vote_with_their_forests(self):
        rng = np.random.default_rng(91)
        first = voting_model(rng, dims=(2, 3, 1), n_estimators=(5, 5, 5))
        features = rng.standard_normal((40, 6))
        before = ecoc._vote(first, features)
        second = replace(first, columns=voting_model(rng, dims=(2, 3, 1), n_estimators=(7, 3, 1)).columns)
        assert np.array_equal(ecoc._vote(second, features), reference_classes(second, features))
        assert np.array_equal(ecoc._vote(first, features), before)
        assert np.array_equal(before, reference_classes(first, features))


class TestModelBundle:
    def test_round_trip_predictions_and_bytes(self, mini_decomp, tmp_path):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp)
        first_dir = tmp_path / "one"
        second_dir = tmp_path / "two"
        save_model(model, first_dir)
        loaded = load_model(first_dir)
        save_model(loaded, second_dir)
        assert (first_dir / "model.json").read_bytes() == (second_dir / "model.json").read_bytes()
        for column, read in zip(model.columns, loaded.columns):
            assert read.filters.dtype == np.float64 and np.array_equal(read.filters, column.filters)
        assert np.array_equal(predict_trials(model, dataset.trials), predict_trials(loaded, dataset.trials))
        singles = dataset.trials[:5]
        assert [predict_ecoc(loaded, t) for t in singles] == [predict_ecoc(model, t) for t in singles]

    def test_binary_round_trip(self, mini_decomp, tmp_path):
        dataset, _ = mini_decomp
        pair_view, model = fit_small_pair(dataset, (0, 1), seed=5)
        save_model(model, tmp_path / "bin")
        loaded = load_model(tmp_path / "bin")
        assert loaded.classes == [0, 1]
        assert np.array_equal(loaded.code, PAIR_CODE)
        probes = pair_view.trials[:4]
        assert np.array_equal(predict_trials(model, probes), predict_trials(loaded, probes))

    def test_failed_write_keeps_previous_bundle(self, mini_decomp, tmp_path, monkeypatch):
        dataset, decomp = mini_decomp
        save_model(fit_small_ecoc(decomp, seed=3), tmp_path)
        before = (tmp_path / "model.json").read_bytes()
        monkeypatch.setattr(ecoc, "_to_json", failing_to_json)
        with pytest.raises(OSError, match="no space"):
            save_model(fit_small_ecoc(decomp, seed=4), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert (tmp_path / "model.json").read_bytes() == before

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path)


def _depth(tree) -> int:
    deepest, stack = 0, [(tree, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if not node.is_leaf:
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return deepest


def failing_to_json(value):
    raise OSError("no space left on device")


def _band_out_of_range(data):
    data["columns"][0]["selected_bands"][0] = len(data["bands"])


def _filters(data):
    """Column 0's kept CSP filters: one block of 2m rows per selected band."""
    return data["columns"][0]["filters"]


def _edit_blocks(change):
    """Apply ``change`` to every band's block of kept filter rows in column 0."""
    return lambda data: _filters(data).__setitem__(slice(None), [change(block) for block in _filters(data)])


def _as_format_2(data):
    """The previous layout: a whole CSP per selected band, and ``n_pairs``."""
    for column in data["columns"]:
        column["csp_models"] = [
            {"band": data["bands"][b], "filters": block, "eigenvalues": [0.5] * len(block[0]), "n_pairs": 1}
            for b, block in zip(column["selected_bands"], column.pop("filters"))
        ]
    data.update(format_version=2, n_pairs=1)


class TextEdit:
    """A bundle edit made on the JSON text, for what parsed fields cannot express."""

    def __init__(self, change):
        self.change = change


def _feature_dim_off_by_one(data):
    data["columns"][0]["forest"]["feature_dim"] += 1


def _set_filter_entry(value):
    return lambda data: _filters(data)[0][0].__setitem__(0, value)


def _forest(data):
    return data["columns"][0]["forest"]


def _split_tree(data):
    """The first tree of column 0 with an internal node."""
    return next(t for t in _forest(data)["trees"] if max(t["attribute"]) >= 0)


def _set_tree(field, index, value):
    """Set entry ``index`` of a tree list (for ``attribute``, of the
    ``index``-th internal node)."""
    def edit(data):
        tree = _split_tree(data)
        if field == "attribute":
            index_of = [i for i, a in enumerate(tree["attribute"]) if a >= 0][index]
            tree["attribute"][index_of] = value
        else:
            tree[field][index] = value
    return edit


def _drop_last_leaf(data):
    tree = _split_tree(data)
    tree["attribute"].pop()
    del tree["counts"][-2:]


# Hand edits of a valid 4-class bundle, each with the field its error must name.
BUNDLE_EDITS = {
    "duplicate code row": (lambda d: d.update(code=[d["code"][0]] * 2 + d["code"][2:]), "'code'.*distinct"),
    "one class too few": (lambda d: d.update(classes=[0, 1, 2]), "'classes'"),
    "repeated class": (lambda d: d.update(classes=[0, 0, 2, 3]), "'classes'"),
    "class outside class_names": (lambda d: d.update(classes=[0, 1, 2, 4]), "'classes'"),
    "shortened class_names": (lambda d: d["class_names"].pop(), "'classes'"),
    "column missing": (lambda d: d["columns"].pop(), "'columns'"),
    "selected band out of range": (_band_out_of_range, "'selected_bands'"),
    "CSP model missing": (lambda d: _filters(d).pop(), "'filters'"),
    "CSP filters not C x C": (_edit_blocks(lambda block: [row[:-1] for row in block]), "'filters'"),
    "channel dropped": (lambda d: d["channel_names"].pop(), "'filters'"),
    "feature_dim off by one": (_feature_dim_off_by_one, "'feature_dim'"),
    "classes field missing": (lambda d: d.pop("classes"), "lacks field 'classes'"),
    "attribute beyond feature_dim": (_set_tree("attribute", 0, 999), "'attribute'"),
    "negative attribute": (_set_tree("attribute", 0, -2), "'attribute'"),
    "internal node made a leaf": (_set_tree("attribute", 0, -1), "'attribute'"),
    "fractional attribute": (_set_tree("attribute", 0, 1.5), "'attribute'"),
    "attribute not a number": (_set_tree("attribute", 0, "1"), "'attribute'"),
    "leaf dropped": (_drop_last_leaf, "'attribute'"),
    "cut not a number": (_set_tree("cut", 0, float("nan")), "'cut'"),
    "infinite cut": (_set_tree("cut", 0, float("inf")), "'cut'"),
    "cut missing": (lambda d: _split_tree(d)["cut"].pop(), "'cut'"),
    "tree lacks cut": (lambda d: _split_tree(d).pop("cut"), "lacks field 'cut'"),
    "leaf with three counts": (lambda d: _split_tree(d)["counts"].insert(0, 1), "'counts'"),
    "leaf with one count": (lambda d: _split_tree(d)["counts"].pop(0), "'counts'"),
    "negative count": (_set_tree("counts", 0, -1), "'counts'"),
    "fractional count": (_set_tree("counts", 0, 1.5), "'counts'"),
    "cut not numeric": (_set_tree("cut", 0, "x"), "'cut'"),
    "counts not a list": (lambda d: _split_tree(d).update(counts=3), "'counts'"),
    "format_version missing": (lambda d: d.pop("format_version"), "lacks field 'format_version'"),
    "format_version 1": (lambda d: d.update(format_version=1), "'format_version'"),
    "code row one entry short": (lambda d: d["code"][1].pop(), "'code'"),
    "CSP filters row one entry short": (lambda d: _filters(d)[0][1].pop(), "'filters'"),
    "band's filter block one row short": (lambda d: _filters(d)[0].pop(), "'filters'"),
    "odd number of kept filter rows": (_edit_blocks(lambda block: block[:-1]), "'filters'"),
    "no kept filter rows": (_edit_blocks(lambda block: []), "'filters'"),
    "kept filters beyond feature_dim": (_edit_blocks(lambda block: block + block), "'feature_dim'"),
    "filters not a list": (lambda d: d["columns"][0].update(filters=5), "'filters'"),
    "integer CSP filters": (_edit_blocks(lambda block: [[round(v) for v in row] for row in block]), "'filters'"),
    "infinite CSP filter entry": (_set_filter_entry(float("inf")), "'filters'"),
    "column lacks filters": (lambda d: d["columns"][0].pop("filters"), "lacks field 'filters'"),
    "trees not a list": (lambda d: _forest(d).update(trees=5), "'trees'"),
    "columns not a list": (lambda d: d.update(columns=5), "'columns'"),
    "band not a list": (lambda d: d["bands"].__setitem__(0, 5), "'bands'"),
    "even taps": (lambda d: d.update(taps=64), "'taps'"),
    "too few taps": (lambda d: d.update(taps=29), "'taps'"),
    "zero sample_rate": (lambda d: d.update(sample_rate=0.0), "'sample_rate'"),
    "negative sample_rate": (lambda d: d.update(sample_rate=-128.0), "'sample_rate'"),
    "infinite sample_rate": (lambda d: d.update(sample_rate=float("inf")), "'sample_rate'"),
    "reversed band": (lambda d: d["bands"].__setitem__(0, d["bands"][0][::-1]), "'bands'"),
    "band at zero": (lambda d: d["bands"].__setitem__(0, [0.0, d["bands"][0][1]]), "'bands'"),
    "band beyond Nyquist": (lambda d: d["bands"].__setitem__(-1, [60.0, d["sample_rate"]]), "'bands'"),
    "fractional taps": (lambda d: d.update(taps=63.9), "'taps'"),
    "fractional class": (lambda d: d["classes"].__setitem__(3, 3.7), "'classes'"),
    "fractional code entry": (lambda d: d["code"][1].__setitem__(0, 0.5), "'code'"),
    "fractional selected band": (lambda d: d["columns"][0]["selected_bands"].__setitem__(0, 0.5), "'selected_bands'"),
    "fractional n_estimators": (lambda d: _forest(d)["params"].update(n_estimators=9.5), "'n_estimators'"),
    "feature_dim a string": (lambda d: _forest(d).update(feature_dim=str(_forest(d)["feature_dim"])), "'feature_dim'"),
    "NaN CSP filter entry": (_set_filter_entry(float("nan")), "'filters'"),
    "CSP filter entry whose projections overflow": (_set_filter_entry(-1e308), "'filters'"),
    "integer cut beyond float64": (_set_tree("cut", 0, 10**400), "'cut'"),
    "integer sample_rate beyond float64": (lambda d: d.update(sample_rate=10**400), "'sample_rate'"),
    "CSP filter entry not a number": (_set_filter_entry("x"), "'filters'"),
    "empty forest": (lambda d: _forest(d).update(trees=[]), "'trees'"),
    "tree missing": (lambda d: _forest(d)["trees"].pop(), "'trees'"),
    "sample_rate not a number": (lambda d: d.update(sample_rate="x"), "'sample_rate'"),
    "classes not a list": (lambda d: d.update(classes="x"), "'classes'"),
    "channel name not a string": (lambda d: d["channel_names"].__setitem__(0, 5), "'channel_names'"),
    "format 2 bundle": (_as_format_2, "'format_version': 2 is not 3; retrain the model"),
    "code not a list of rows": (lambda d: d.update(code="x"), "'code'"),
    "forest not an object": (lambda d: d["columns"][0].update(forest=5), "'forest'"),
    "params not an object": (lambda d: _forest(d).update(params=5), "'params'"),
    "top level a list": (TextEdit(lambda text: f"[{text}]"), "model.json is not a JSON object"),
    "unparsable JSON": (TextEdit(lambda text: text[: len(text) // 2]), "model.json is not JSON text"),
    "not UTF-8 text": (TextEdit(lambda text: "\udcff" + text), "model.json is not JSON text"),
}


@pytest.fixture(scope="module")
def small_bundle(mini_decomp, tmp_path_factory):
    dataset, decomp = mini_decomp
    directory = tmp_path_factory.mktemp("bundle")
    save_model(fit_small_ecoc(decomp), directory)
    return (directory / "model.json").read_text()


class TestBundleChecks:
    def test_valid_bundle_loads(self, small_bundle, tmp_path):
        (tmp_path / "model.json").write_text(small_bundle)
        assert load_model(tmp_path).classes == [0, 1, 2, 3]

    def test_bundle_writes_number_lists_on_one_line(self, small_bundle):
        tree = json.loads(small_bundle)["columns"][0]["forest"]["trees"][0]
        assert f'"attribute": {json.dumps(tree["attribute"])}' in small_bundle

    def test_tree_deeper_than_recursion_limit_round_trips(self, tmp_path):
        # The deep chain of the extra-trees tests, beside a constant second
        # feature, deployed as a one-band class-pair model.
        features = np.hstack([(2.0 ** np.arange(-1000, 1000))[:, np.newaxis], np.zeros((2000, 1))])
        labels = np.zeros(len(features), dtype=np.int64)
        labels[0] = 1
        forest = et_fit(features, labels, EtParams(max_features=1, min_samples_split=2, n_estimators=1, seed=0))
        assert _depth(forest.trees[0]) > sys.getrecursionlimit()
        column = ColumnModel(selected_bands=[0], filters=np.eye(2)[np.newaxis], forest=forest)
        model = EcocModel(
            code=PAIR_CODE, classes=[0, 1], columns=[column], class_names=["rest", "thumb"],
            channel_names=["c3", "c4"], sample_rate=128.0, bands=[(8.0, 10.0)], taps=63,
        )
        save_model(model, tmp_path / "first")
        loaded = load_model(tmp_path / "first")
        save_model(loaded, tmp_path / "second")
        assert (tmp_path / "first" / "model.json").read_bytes() == (tmp_path / "second" / "model.json").read_bytes()
        assert np.array_equal(et_predict(loaded.columns[0].forest, features), et_predict(forest, features))

    def test_any_field_of_another_type_fails_with_value_error(self, small_bundle, tmp_path):
        # Every field along the first and last entry of each list, replaced
        # by each JSON type: load_model refuses it with a ValueError or loads.
        def paths(value, path=()):
            yield path
            keys = list(value) if type(value) is dict else [0, -1] if type(value) is list and value else []
            for key in keys:
                yield from paths(value[key], path + (key,))

        for path in list(paths(json.loads(small_bundle)))[1:]:
            for wrong in (5, 1.5, "x", None, [], {}):
                data = json.loads(small_bundle)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = wrong
                (tmp_path / "model.json").write_text(json.dumps(data))
                try:
                    load_model(tmp_path)
                except ValueError:
                    pass

    def test_integer_sample_rate_beyond_int64_loads(self, small_bundle, mini_decomp, tmp_path):
        # A rate numpy cannot hold as an integer is still a rate: the model loads and refuses other rates' trials.
        data = json.loads(small_bundle)
        data["sample_rate"] = 10**30
        (tmp_path / "model.json").write_text(json.dumps(data))
        model = load_model(tmp_path)
        with pytest.raises(ValueError, match=f"do not match the model's channels .* at {10**30} Hz"):
            predict_trials(model, mini_decomp[0].trials)

    @pytest.mark.parametrize("edit", list(BUNDLE_EDITS))
    def test_corrupt_bundle_rejected_at_load(self, small_bundle, tmp_path, edit):
        change, field = BUNDLE_EDITS[edit]
        if isinstance(change, TextEdit):
            (tmp_path / "model.json").write_text(change.change(small_bundle), errors="surrogateescape")
        else:
            data = json.loads(small_bundle)
            change(data)
            (tmp_path / "model.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            load_model(tmp_path)


# One parsed JSON value or list entry is replaced by one of these, or deleted.
DELETE = object()
MUTANTS = [DELETE, None, True, False, 0, -1, 1.5, 10**30, 10**400, -1e308, float("nan"), float("inf"), "", "x", [], {},
           [[0.5]], {"a": 1}]


def json_paths(value, path=()):
    """The path of every value below ``value`` in parsed JSON."""
    keys = list(value) if type(value) is dict else range(len(value)) if type(value) is list else []
    for key in keys:
        yield path + (key,)
        yield from json_paths(value[key], path + (key,))


def mutated(text: str, data) -> str:
    """``text`` with one JSON value, drawn from hypothesis ``data``, replaced or deleted."""
    parsed = json.loads(text)
    path = data.draw(st.sampled_from(list(json_paths(parsed))), label="path")
    value = data.draw(st.sampled_from(MUTANTS), label="value")
    parent = functools.reduce(operator.getitem, path[:-1], parsed)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(parsed)


@pytest.fixture(scope="module")
def saved_dataset(mini_decomp, small_bundle, tmp_path_factory):
    """The files of the test dataset, the model its bundle holds, and a directory to write mutants into."""
    directory = tmp_path_factory.mktemp("dataset")
    save_dataset(mini_decomp[0], directory)
    (directory / "model.json").write_text(small_bundle)
    files = {name: (directory / name).read_bytes() for name in ("manifest.json", "trials.bin")}
    return files, load_model(directory), tmp_path_factory.mktemp("mutant")


class TestMutatedInputs:
    """Random single mutations of a deployed-style bundle, of a dataset
    manifest and of ``trials.bin``: each is refused at load with a
    ``ValueError`` that names what it refuses, or loads and predicts.  A
    loaded model may refuse trials it does not fit (another sample rate or
    montage) with today's message, but never fails otherwise."""

    @staticmethod
    def serves(model, dataset):
        try:
            predicted = predict_trials(model, dataset.trials, channel_names=dataset.channel_names)
        except ValueError as exc:
            assert "do not match the model's channels" in str(exc), exc
        else:
            assert set(predicted.tolist()) <= set(model.classes)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_bundle_refused_by_field_or_served(self, small_bundle, saved_dataset, mini_decomp, data):
        directory = saved_dataset[2]
        (directory / "model.json").write_text(mutated(small_bundle, data))
        try:
            model = load_model(directory)
        except ValueError as exc:
            assert re.search(r"field '\w+'", str(exc)), exc
        else:
            self.serves(model, mini_decomp[0])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_refused_or_served(self, saved_dataset, data):
        files, model, directory = saved_dataset
        (directory / "manifest.json").write_text(mutated(files["manifest.json"].decode(), data))
        (directory / "trials.bin").write_bytes(files["trials.bin"])
        try:
            dataset = load_dataset(directory)
        except ValueError as exc:
            assert re.search(r"field '\w+'|trial|dataset", str(exc)), exc
        else:
            self.serves(model, dataset)

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(1, 512), extra=st.binary(min_size=1, max_size=64))
    def test_truncated_or_extended_trials_refused(self, saved_dataset, cut, extra):
        files, _, directory = saved_dataset
        (directory / "manifest.json").write_bytes(files["manifest.json"])
        for changed in (files["trials.bin"][:-cut], files["trials.bin"] + extra):
            (directory / "trials.bin").write_bytes(changed)
            with pytest.raises(ValueError, match="trials.bin"):
                load_dataset(directory)
