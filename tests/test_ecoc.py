import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import failing_json_dump
from fingerbci import decompose, exhaustive_code, fit_ecoc, load_model, make_bank, predict_ecoc, save_model
from fingerbci.ecoc import (
    PAIR_CODE,
    CodeMatrix,
    decode,
    hamming,
    predict_trials,
    resolve_feature_grid,
)


def brute_force_nearest(rows: np.ndarray, word) -> int:
    """Independent oracle: linear scan with lowest-index tie-break."""
    best_index, best_distance = None, None
    for i, row in enumerate(rows):
        distance = sum(1 for a, b in zip(row, word) if a != b)
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
        assert np.array_equal(code.bits, expected)

    def test_three_class_rows(self):
        code = exhaustive_code(3)
        assert np.array_equal(code.bits, [[1, 1, 1], [0, 0, 1], [0, 1, 0]])

    def test_codeword_length(self):
        for p in range(3, 9):
            assert exhaustive_code(p).n_columns == 2 ** (p - 1) - 1

    def test_minimum_distance_four_class(self):
        code = exhaustive_code(4)
        distances = [
            hamming(code.bits[i], code.bits[j]) for i in range(4) for j in range(i + 1, 4)
        ]
        assert min(distances) == 4

    def test_invariants_hold_for_all_supported_sizes(self):
        for p in range(3, 9):
            code = exhaustive_code(p)
            code.validate()
            assert code.n_columns == 2 ** (p - 1) - 1
            assert (code.bits[0] == 1).all()
            distances = [hamming(code.bits[i], code.bits[j]) for i in range(p) for j in range(i + 1, p)]
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
            CodeMatrix(bits=bits).validate()

    def test_out_of_range_rejected(self):
        for p in (2, 9):
            with pytest.raises(ValueError):
                exhaustive_code(p)

    def test_printed_table_variant_fails_validation(self):
        # A class-2 row of 0001111 creates a constant column and breaks the
        # distance structure; the run-length construction is the valid one.
        bits = exhaustive_code(4).bits.copy()
        bits[1] = [0, 0, 0, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            CodeMatrix(bits=bits).validate()


class TestHamming:
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming(np.array([1, 0]), np.array([1, 0, 1]))


class TestDecode:
    def test_exact_row_decodes_to_class(self):
        code = exhaustive_code(4)
        for c in range(4):
            assert decode(code, code.bits[c]) == c

    def test_one_bit_from_class_one(self):
        code = exhaustive_code(4)
        word = np.array([1, 1, 1, 1, 1, 1, 0])
        distances = [hamming(word, code.bits[c]) for c in range(4)]
        assert distances == [1, 5, 5, 3]
        assert decode(code, word) == 0

    def test_brute_forced_tie_case(self):
        # Distances to the four rows are (4, 4, 2, 2): tie between the last
        # two classes, resolved to the lower index.
        code = exhaustive_code(4)
        word = np.array([0, 0, 1, 1, 0, 1, 0])
        distances = [hamming(word, code.bits[c]) for c in range(4)]
        assert distances == [4, 4, 2, 2]
        assert decode(code, word) == 2
        assert decode(code, word) == brute_force_nearest(code.bits, word)

    def test_all_words_match_brute_force_p3(self):
        code = exhaustive_code(3)
        for word in itertools.product((0, 1), repeat=3):
            assert decode(code, np.array(word)) == brute_force_nearest(code.bits, word)

    def test_single_bit_correction_p4(self):
        code = exhaustive_code(4)
        for c in range(4):
            for j in range(7):
                word = code.bits[c].copy()
                word[j] ^= 1
                assert decode(code, word) == c

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode(exhaustive_code(3), np.array([1, 0]))


class TestFeatureGrid:
    def test_default_grid(self):
        assert resolve_feature_grid(None, 9) == [1, 3, 9]
        assert resolve_feature_grid(None, 1) == [1]

    def test_explicit_grid_clamped(self):
        assert resolve_feature_grid([0, 4, 99], 8) == [1, 4, 8]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolve_feature_grid([], 4)


@pytest.fixture(scope="module")
def mini_decomp(request):
    dataset = request.getfixturevalue("mini_four_class")
    bank = make_bank(8.0, 14.0, 2.0, taps=63)
    return dataset, decompose(dataset, bank)


def fit_small_ecoc(decomp, labels, seed=3):
    return fit_ecoc(
        decomp,
        labels,
        exhaustive_code(4),
        n_pairs=1,
        folds=2,
        max_features_grid=[1],
        min_samples_split_grid=[2],
        n_estimators_grid=[10],
        seed=seed,
    )


class TestFitEcoc:
    def test_seven_columns_with_bands(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
        assert len(model.columns) == 7
        for column in model.columns:
            assert column.selected_bands
            assert len(column.csp_models) == len(column.selected_bands)

    def test_degenerate_code_rejected(self, mini_decomp):
        dataset, decomp = mini_decomp
        bits = exhaustive_code(4).bits.copy()
        bits[1] = [0, 0, 0, 1, 1, 1, 1]  # printed-table variant: column 4 all ones
        with pytest.raises(ValueError, match="one side"):
            fit_ecoc(decomp, dataset.labels(), CodeMatrix(bits=bits), n_pairs=1, folds=2,
                     max_features_grid=[1], min_samples_split_grid=[2], n_estimators_grid=[10])

    def test_deterministic(self, mini_decomp):
        dataset, decomp = mini_decomp
        first = fit_small_ecoc(decomp, dataset.labels(), seed=9)
        second = fit_small_ecoc(decomp, dataset.labels(), seed=9)
        predictions_first = predict_trials(first, dataset.trials[:6])
        predictions_second = predict_trials(second, dataset.trials[:6])
        assert np.array_equal(predictions_first, predictions_second)
        assert [c.selected_bands for c in first.columns] == [c.selected_bands for c in second.columns]

    def test_missing_class_rejected(self, mini_decomp):
        dataset, decomp = mini_decomp
        labels = dataset.labels()
        labels[labels == 3] = 2
        with pytest.raises(ValueError, match="classes"):
            fit_small_ecoc(decomp, labels)

    def test_single_trial_prediction_matches_batch(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
        batch = predict_trials(model, dataset.trials[:4])
        singles = [predict_ecoc(model, t) for t in dataset.trials[:4]]
        assert list(batch) == singles

    def test_channel_mismatch_rejected(self, mini_decomp):
        from fingerbci import Trial

        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
        bad = Trial(label=0, samples=np.zeros((7, 512), dtype=np.float32), sample_rate=128.0)
        with pytest.raises(ValueError, match="channels"):
            predict_ecoc(model, bad)

    def test_montage_checked_when_given(self, mini_decomp):
        from fingerbci import Trial

        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
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
        assert fit_small_ecoc(decomp, dataset.labels()).taps == 63

    def test_mostly_correct_on_training_distribution(self, mini_decomp):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
        predictions = predict_trials(model, dataset.trials)
        assert np.mean(predictions == dataset.labels()) >= 0.8


def fit_small_pair(dataset, pair, seed):
    """The class-pair decoder that ``train --classes`` builds: PAIR_CODE on the pair view."""
    from fingerbci.trialstore import subset_classes

    pair_view = subset_classes(dataset, *pair)
    decomp = decompose(pair_view, make_bank(8.0, 14.0, 2.0, taps=63))
    model = fit_ecoc(
        decomp, pair_view.labels(), PAIR_CODE,
        n_pairs=1, folds=2, max_features_grid=[1], min_samples_split_grid=[2],
        n_estimators_grid=[10], seed=seed,
    )
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


class TestModelBundle:
    def test_round_trip_predictions_and_bytes(self, mini_decomp, tmp_path):
        dataset, decomp = mini_decomp
        model = fit_small_ecoc(decomp, dataset.labels())
        first_dir = tmp_path / "one"
        second_dir = tmp_path / "two"
        save_model(model, first_dir)
        loaded = load_model(first_dir)
        save_model(loaded, second_dir)
        assert (first_dir / "model.json").read_bytes() == (second_dir / "model.json").read_bytes()
        probes = dataset.trials[:5]
        assert np.array_equal(predict_trials(model, probes), predict_trials(loaded, probes))

    def test_binary_round_trip(self, mini_decomp, tmp_path):
        dataset, _ = mini_decomp
        pair_view, model = fit_small_pair(dataset, (0, 1), seed=5)
        save_model(model, tmp_path / "bin")
        loaded = load_model(tmp_path / "bin")
        assert loaded.classes == [0, 1]
        assert np.array_equal(loaded.code.bits, PAIR_CODE.bits)
        probes = pair_view.trials[:4]
        assert np.array_equal(predict_trials(model, probes), predict_trials(loaded, probes))

    def test_failed_write_keeps_previous_bundle(self, mini_decomp, tmp_path, monkeypatch):
        dataset, decomp = mini_decomp
        save_model(fit_small_ecoc(decomp, dataset.labels(), seed=3), tmp_path)
        before = (tmp_path / "model.json").read_bytes()
        monkeypatch.setattr(json, "dump", failing_json_dump)
        with pytest.raises(OSError, match="no space"):
            save_model(fit_small_ecoc(decomp, dataset.labels(), seed=4), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert (tmp_path / "model.json").read_bytes() == before

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path)


def _band_out_of_range(data):
    data["columns"][0]["selected_bands"][0] = len(data["bands"])


def _filters_not_square(data):
    csp = data["columns"][0]["csp_models"][0]
    csp["filters"] = csp["filters"][:-1]


def _feature_dim_off_by_one(data):
    data["columns"][0]["forest"]["feature_dim"] += 1


def _first_node(data, leaf):
    """First internal node (or leaf) of column 0's forest, in pre-order."""
    stack = list(reversed(data["columns"][0]["forest"]["trees"]))
    while stack:
        node = stack.pop()
        if ("counts" in node) == leaf:
            return node
        if "counts" not in node:
            stack += [node["right"], node["left"]]
    raise AssertionError("no such node")


def _set_node(leaf, **fields):
    return lambda data: _first_node(data, leaf).update(fields)


# Hand edits of a valid 4-class bundle, each with the field its error must name.
BUNDLE_EDITS = {
    "duplicate code row": (lambda d: d.update(code=[d["code"][0]] * 2 + d["code"][2:]), "'code'.*distinct"),
    "one class too few": (lambda d: d.update(classes=[0, 1, 2]), "'classes'"),
    "repeated class": (lambda d: d.update(classes=[0, 0, 2, 3]), "'classes'"),
    "class outside class_names": (lambda d: d.update(classes=[0, 1, 2, 4]), "'classes'"),
    "shortened class_names": (lambda d: d["class_names"].pop(), "'classes'"),
    "column missing": (lambda d: d["columns"].pop(), "'columns'"),
    "selected band out of range": (_band_out_of_range, "'selected_bands'"),
    "CSP model missing": (lambda d: d["columns"][0]["csp_models"].pop(), "'csp_models'"),
    "CSP filters not C x C": (_filters_not_square, "'filters'"),
    "channel dropped": (lambda d: d["channel_names"].pop(), "'filters'"),
    "feature_dim off by one": (_feature_dim_off_by_one, "'feature_dim'"),
    "classes field missing": (lambda d: d.pop("classes"), "lacks field 'classes'"),
    "attribute beyond feature_dim": (_set_node(False, attribute=999), "'attribute'"),
    "negative attribute": (_set_node(False, attribute=-1), "'attribute'"),
    "fractional attribute": (_set_node(False, attribute=1.5), "'attribute'"),
    "attribute not a number": (_set_node(False, attribute="1"), "'attribute'"),
    "cut not a number": (_set_node(False, cut=float("nan")), "'cut'"),
    "infinite cut": (_set_node(False, cut=float("inf")), "'cut'"),
    "leaf with three counts": (_set_node(True, counts=[1, 2, 3]), "'counts'"),
    "leaf with one count": (_set_node(True, counts=[4]), "'counts'"),
    "negative count": (_set_node(True, counts=[-1, 3]), "'counts'"),
    "fractional count": (_set_node(True, counts=[1.5, 3]), "'counts'"),
    "cut not numeric": (_set_node(False, cut="x"), "'cut'"),
    "counts not a list": (_set_node(True, counts=3), "'counts'"),
    "even taps": (lambda d: d.update(taps=64), "'taps'"),
    "too few taps": (lambda d: d.update(taps=29), "'taps'"),
    "zero sample_rate": (lambda d: d.update(sample_rate=0.0), "'sample_rate'"),
    "negative sample_rate": (lambda d: d.update(sample_rate=-128.0), "'sample_rate'"),
    "infinite sample_rate": (lambda d: d.update(sample_rate=float("inf")), "'sample_rate'"),
    "reversed band": (lambda d: d["bands"].__setitem__(0, d["bands"][0][::-1]), "'bands'"),
    "band at zero": (lambda d: d["bands"].__setitem__(0, [0.0, d["bands"][0][1]]), "'bands'"),
    "band beyond Nyquist": (lambda d: d["bands"].__setitem__(-1, [60.0, d["sample_rate"]]), "'bands'"),
}


@pytest.fixture(scope="module")
def small_bundle(mini_decomp, tmp_path_factory):
    dataset, decomp = mini_decomp
    directory = tmp_path_factory.mktemp("bundle")
    save_model(fit_small_ecoc(decomp, dataset.labels()), directory)
    return (directory / "model.json").read_text()


class TestBundleChecks:
    def test_valid_bundle_loads(self, small_bundle, tmp_path):
        (tmp_path / "model.json").write_text(small_bundle)
        assert load_model(tmp_path).classes == [0, 1, 2, 3]

    @pytest.mark.parametrize("edit", list(BUNDLE_EDITS))
    def test_corrupt_bundle_rejected_at_load(self, small_bundle, tmp_path, edit):
        change, field = BUNDLE_EDITS[edit]
        data = json.loads(small_bundle)
        change(data)
        (tmp_path / "model.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            load_model(tmp_path)
