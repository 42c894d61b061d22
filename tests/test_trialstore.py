import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import Dataset, Trial, load_dataset, save_dataset, stratified_split, subset_classes

from conftest import failing_json_dump, random_dataset


def make_trial(values, label=0, rate=100.0):
    return Trial(label=label, samples=np.array(values, dtype=np.float32), sample_rate=rate)


def two_class_dataset():
    trials = [
        make_trial([[1.0, 2.0], [3.0, 4.0]], label=0),
        make_trial([[5.0, 6.0], [7.0, 8.0]], label=1),
    ]
    return Dataset(sample_rate=100.0, channel_names=["a", "b"], class_names=["x", "y"], trials=trials)


class TestTrialValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_trial([[np.nan, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_trial(np.zeros((0, 4)))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            make_trial([[1.0]], label=-1)

    def test_float_label_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"'label': 0\.7 is not an integer"):
            make_trial([[1.0]], label=0.7)

    def test_bool_label_rejected_by_name(self):
        for label in (True, np.bool_(False)):
            with pytest.raises(ValueError, match="'label': .* is not an integer"):
                make_trial([[1.0]], label=label)

    def test_numpy_integer_labels_save_and_load(self, tmp_path):
        trials = [make_trial([[1.0, 2.0]], label=np.int64(c)) for c in range(2)]
        dataset = Dataset(sample_rate=100.0, channel_names=["a"], class_names=["x", "y"], trials=trials)
        save_dataset(dataset, tmp_path)
        assert load_dataset(tmp_path).labels().tolist() == [0, 1]

    def test_samples_stored_float32(self):
        trial = make_trial([[1.0, 2.0]])
        assert trial.samples.dtype == np.float32


class TestDatasetValidation:
    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            Dataset(sample_rate=100.0, channel_names=["a"], class_names=["x"], trials=[])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(
                sample_rate=100.0,
                channel_names=["a"],
                class_names=["x"],
                trials=[make_trial([[1.0, 2.0]], label=1)],
            )

    def test_class_without_trials(self):
        with pytest.raises(ValueError, match="has no trials"):
            Dataset(
                sample_rate=100.0,
                channel_names=["a"],
                class_names=["x", "y"],
                trials=[make_trial([[1.0, 2.0]], label=0)],
            )

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            Dataset(
                sample_rate=100.0,
                channel_names=["a", "b"],
                class_names=["x"],
                trials=[make_trial([[1.0, 2.0]], label=0)],
            )


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        dataset = two_class_dataset()
        save_dataset(dataset, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.sample_rate == dataset.sample_rate
        assert loaded.channel_names == dataset.channel_names
        assert loaded.class_names == dataset.class_names
        assert len(loaded.trials) == len(dataset.trials)
        for a, b in zip(loaded.trials, dataset.trials):
            assert a.label == b.label
            assert np.array_equal(a.samples, b.samples)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), channels=st.integers(1, 3), samples=st.integers(2, 9))
    def test_round_trip_property(self, tmp_path_factory, seed, channels, samples):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, n_channels=channels, n_samples=samples)
        target = tmp_path_factory.mktemp("rt")
        save_dataset(dataset, target)
        loaded = load_dataset(target)
        for a, b in zip(loaded.trials, dataset.trials):
            assert a.samples.tobytes() == b.samples.tobytes()

    def test_second_save_byte_identical(self, tmp_path):
        dataset = two_class_dataset()
        save_dataset(dataset, tmp_path / "one")
        loaded = load_dataset(tmp_path / "one")
        save_dataset(loaded, tmp_path / "two")
        for name in ("manifest.json", "trials.bin"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestAtomicWrite:
    def test_failed_write_keeps_previous_dataset(self, tmp_path, monkeypatch):
        save_dataset(two_class_dataset(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        changed = two_class_dataset()
        changed.trials[0].samples[:] = 9.0
        monkeypatch.setattr(json, "dump", failing_json_dump)
        with pytest.raises(OSError, match="no space"):
            save_dataset(changed, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        assert load_dataset(tmp_path).trials[0].samples[0, 0] == 1.0


class TestFormat:
    def test_hand_authored_fixture_decodes_exactly(self, tmp_path):
        # 1 trial, 2 channels, 4 samples; bytes packed by hand per the format.
        values = [1.5, -2.0, 3.25, 0.5, 0.0, 1.0, -1.0, 2.0]
        (tmp_path / "trials.bin").write_bytes(struct.pack("<8f", *values))
        manifest = {
            "sample_rate": 250.0,
            "channel_names": ["c0", "c1"],
            "class_names": ["only"],
            "trials": [{"label": 0, "n_samples": 4, "offset_bytes": 0}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_dataset(tmp_path)
        expected = np.array([[1.5, -2.0, 3.25, 0.5], [0.0, 1.0, -1.0, 2.0]], dtype=np.float32)
        assert np.array_equal(loaded.trials[0].samples, expected)

    def test_manifest_offsets_are_packed(self, tmp_path):
        dataset = two_class_dataset()  # 2 channels x 2 samples = 16 bytes per trial
        save_dataset(dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        offsets = [t["offset_bytes"] for t in manifest["trials"]]
        assert offsets == [0, 16]

    def test_truncated_binary_rejected(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(0), trials_per_class=2)
        save_dataset(dataset, tmp_path)
        raw = (tmp_path / "trials.bin").read_bytes()
        (tmp_path / "trials.bin").write_bytes(raw[: len(raw) * 3 // 4])
        with pytest.raises(ValueError, match="past end"):
            load_dataset(tmp_path)

    def test_trailing_garbage_rejected(self, tmp_path):
        dataset = two_class_dataset()
        save_dataset(dataset, tmp_path)
        with open(tmp_path / "trials.bin", "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="accounts for"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("change, message", [(-1, "past end"), (1, "accounts for")])
    def test_binary_one_byte_off_rejected(self, tmp_path, change, message):
        save_dataset(two_class_dataset(), tmp_path)
        raw = (tmp_path / "trials.bin").read_bytes()
        (tmp_path / "trials.bin").write_bytes(raw[:-1] if change < 0 else raw + b"\x00")
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path)

    def test_trials_are_views_of_one_buffer(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(3), trials_per_class=3)
        save_dataset(dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        buffer = loaded.trials[0].samples.base
        assert buffer is not None and all(trial.samples.base is buffer for trial in loaded.trials)
        assert buffer.nbytes == (tmp_path / "trials.bin").stat().st_size
        for a, b in zip(loaded.trials, dataset.trials):
            assert a.samples.dtype == np.float32 and a.samples.flags.c_contiguous
            assert a.samples.tobytes() == b.samples.tobytes()

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)
        (tmp_path / "manifest.json").write_text("{}")
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        (tmp_path / "trials.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="corrupt manifest"):
            load_dataset(tmp_path)

    def test_non_finite_payload_rejected(self, tmp_path):
        (tmp_path / "trials.bin").write_bytes(struct.pack("<2f", float("inf"), 0.0))
        manifest = {
            "sample_rate": 250.0,
            "channel_names": ["c0"],
            "class_names": ["only"],
            "trials": [{"label": 0, "n_samples": 2, "offset_bytes": 0}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(tmp_path)



def _set(path, value):
    """An edit that puts ``value`` at ``path`` of the manifest."""
    def change(manifest):
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return change


def _drop(path):
    """An edit that deletes ``path`` of the manifest."""
    def change(manifest):
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    return change


# Each edit of a saved two-class manifest and the field its error must name.
MANIFEST_EDITS = {
    "fractional label": (_set(("trials", 0, "label"), 0.7), "'label' of trial 0"),
    "boolean label": (_set(("trials", 1, "label"), True), "'label' of trial 1"),
    "fractional n_samples": (_set(("trials", 0, "n_samples"), 1.5), "'n_samples' of trial 0"),
    "negative n_samples": (_set(("trials", 1, "n_samples"), -1), "'n_samples' of trial 1"),
    "string offset": (_set(("trials", 1, "offset_bytes"), "16"), "'offset_bytes' of trial 1"),
    "missing label": (_drop(("trials", 0, "label")), "'label' of trial 0"),
    "null n_samples": (_set(("trials", 0, "n_samples"), None), "'n_samples' of trial 0"),
    "record not an object": (_set(("trials", 1), [0, 2, 16]), "'trials'"),
    "trials not a list": (_set(("trials",), {"label": 0}), "'trials'"),
    "channel_names a string": (_set(("channel_names",), "ab"), "'channel_names'"),
    "channel name a number": (_set(("channel_names", 0), 3), "'channel_names'"),
    "class_names a string": (_set(("class_names",), "xy"), "'class_names'"),
    "repeated channel name": (_set(("channel_names", 1), "a"), "field 'channel_names': ['a', 'a'] repeats a name"),
    "repeated class name": (_set(("class_names", 0), "y"), "field 'class_names': ['y', 'y'] repeats a name"),
    "string sample_rate": (_set(("sample_rate",), "100"), "'sample_rate'"),
    "zero sample_rate": (_set(("sample_rate",), 0), "'sample_rate'"),
    "infinite sample_rate": (_set(("sample_rate",), float("inf")), "'sample_rate'"),
    "integer sample_rate beyond float64": (_set(("sample_rate",), 10**400), "'sample_rate'"),
    "missing sample_rate": (_drop(("sample_rate",)), "'sample_rate'"),
    "missing trials": (_drop(("trials",)), "'trials'"),
}


class TestManifestChecks:
    """``load_dataset`` checks manifest values as read and names the field it refuses."""

    @pytest.fixture
    def saved(self, tmp_path):
        save_dataset(two_class_dataset(), tmp_path)
        return json.loads((tmp_path / "manifest.json").read_text())

    @pytest.mark.parametrize("edit", list(MANIFEST_EDITS))
    def test_malformed_field_refused_by_name(self, saved, tmp_path, edit):
        change, field = MANIFEST_EDITS[edit]
        change(saved)
        (tmp_path / "manifest.json").write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=re.escape(field)):
            load_dataset(tmp_path)

    def test_list_field_refusal_names_its_first_bad_entry(self, saved, tmp_path):
        # A long trials list is not repeated in the message: entry 1 of 402 is named by index and type.
        saved["trials"] = (saved["trials"] * 402)[:402]
        saved["trials"][1] = 5
        (tmp_path / "manifest.json").write_text(json.dumps(saved))
        message = "field 'trials': entry 1 is of type int; need a list of objects"
        with pytest.raises(ValueError, match=message) as caught:
            load_dataset(tmp_path)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", 10**400), ("sample_rate", "1" * 5000), ("channel_names", "c" * 5000),
        ("trials", {"x": "y" * 5000}),
    ])
    def test_refusal_names_its_field_briefly(self, saved, tmp_path, field, value):
        saved[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=f"manifest field '{field}'") as caught:
            load_dataset(tmp_path)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("label", [-(10**400), np.array(1), np.array("x" * 5000)], ids=["long int", "0-d", "long 0-d"])
    def test_label_refusal_is_brief(self, label):
        with pytest.raises(ValueError, match="trial field 'label'") as caught:
            Trial(label=label, samples=np.zeros((1, 4)), sample_rate=100.0)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize("text", [b"[]", b'{"sample_rate": \xff}'], ids=["list", "not UTF-8"])
    def test_manifest_text_refused_as_corrupt(self, tmp_path, text):
        save_dataset(two_class_dataset(), tmp_path)
        (tmp_path / "manifest.json").write_bytes(text)
        with pytest.raises(ValueError, match="corrupt manifest"):
            load_dataset(tmp_path)

    def test_any_field_of_another_type_fails_with_value_error(self, saved, tmp_path):
        # Every field along the first and last entry of each list, replaced
        # by each JSON type or deleted: load_dataset refuses it with a
        # ValueError or loads.
        def paths(value, path=()):
            yield path
            keys = list(value) if type(value) is dict else [0, -1] if type(value) is list and value else []
            for key in keys:
                yield from paths(value[key], path + (key,))

        for path in list(paths(saved))[1:]:
            for change in [_set(path, wrong) for wrong in (5, 1.5, -1, True, "x", None, [], {})] + [_drop(path)]:
                manifest = json.loads(json.dumps(saved))
                change(manifest)
                (tmp_path / "manifest.json").write_text(json.dumps(manifest))
                try:
                    load_dataset(tmp_path)
                except ValueError:
                    pass


# A parsed manifest value is replaced by one of these, or deleted; "a" and "x" repeat a channel and a class name.
DELETE = object()
MUTANTS = [DELETE, None, True, False, 0, 1, -1, 1.5, 10**30, 10**400, -1e308, float("nan"), float("inf"), "", "a", "x",
           [], {}, [[0.5]], {"a": 1}]


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """The manifest text of a saved two-class dataset, and its directory."""
    directory = tmp_path_factory.mktemp("dataset")
    save_dataset(two_class_dataset(), directory)
    return (directory / "manifest.json").read_text(), directory


class TestMutatedManifests:
    """Random single mutations of a manifest value: ``load_dataset`` refuses
    each with a ``ValueError`` (or ``FileNotFoundError``), or loads a dataset
    whose channel and class names are distinct."""

    @staticmethod
    def paths(value, path=()):
        keys = list(value) if type(value) is dict else range(len(value)) if type(value) is list else []
        for key in keys:
            yield path + (key,)
            yield from TestMutatedManifests.paths(value[key], path + (key,))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_refused_or_loaded(self, saved_files, data):
        text, directory = saved_files
        manifest = json.loads(text)
        path = data.draw(st.sampled_from(list(self.paths(manifest))), label="path")
        value = data.draw(st.sampled_from(MUTANTS), label="value")
        (_drop(path) if value is DELETE else _set(path, value))(manifest)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        try:
            dataset = load_dataset(directory)
        except (ValueError, FileNotFoundError):
            return
        for names in (dataset.channel_names, dataset.class_names):
            assert len(set(names)) == len(names), names


class TestStratifiedSplit:
    def test_exact_counts_10_per_class(self):
        dataset = random_dataset(np.random.default_rng(1), n_classes=4, trials_per_class=10)
        for seed in (0, 1, 2):
            _, test = stratified_split(dataset.labels(), 0.2, seed)
            labels = dataset.labels()
            for c in range(4):
                assert sum(1 for i in test if labels[i] == c) == 2

    def test_five_per_class_fraction_point_two(self):
        dataset = random_dataset(np.random.default_rng(2), n_classes=4, trials_per_class=5)
        _, test = stratified_split(dataset.labels(), 0.2, seed=3)
        labels = dataset.labels()
        for c in range(4):
            assert sum(1 for i in test if labels[i] == c) == 1

    def test_deterministic(self):
        dataset = random_dataset(np.random.default_rng(3), trials_per_class=10)
        first = stratified_split(dataset.labels(), 0.2, seed=11)
        second = stratified_split(dataset.labels(), 0.2, seed=11)
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        trials_per_class=st.integers(3, 12),
        fraction=st.floats(0.15, 0.6),
    )
    def test_partition_property(self, seed, trials_per_class, fraction):
        dataset = random_dataset(np.random.default_rng(0), n_classes=3, trials_per_class=trials_per_class)
        train, test = stratified_split(dataset.labels(), fraction, seed)
        assert not set(train) & set(test)
        assert sorted(train + test) == list(range(len(dataset.trials)))
        labels = dataset.labels()
        for c in range(3):
            n_test = sum(1 for i in test if labels[i] == c)
            expected = max(1, int(np.floor(trials_per_class * fraction + 0.5)))
            assert n_test == expected

    def test_too_few_trials(self):
        dataset = random_dataset(np.random.default_rng(4), trials_per_class=1, n_classes=2)
        with pytest.raises(ValueError, match="at least 2 trials"):
            stratified_split(dataset.labels(), 0.2, seed=0)

    def test_no_training_trial_left(self):
        dataset = random_dataset(np.random.default_rng(5), trials_per_class=2)
        with pytest.raises(ValueError, match="no training trial"):
            stratified_split(dataset.labels(), 0.9, seed=0)

    def test_splits_the_classes_present(self):
        # Labels need not run from 0: each label present is split on its own.
        labels = np.array([3, 5, 3, 5, 3, 5, 3, 5])
        train, test = stratified_split(labels, 0.5, seed=2)
        assert sorted(train + test) == list(range(8))
        assert sorted(labels[test].tolist()) == [3, 3, 5, 5]
        assert all(type(i) is int for i in train + test)

    def test_invalid_fraction(self):
        dataset = random_dataset(np.random.default_rng(6))
        for fraction in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                stratified_split(dataset.labels(), fraction, seed=0)


class TestSubsets:
    def test_subset_classes_relabels(self):
        dataset = random_dataset(np.random.default_rng(8), n_classes=3, trials_per_class=2)
        pair = subset_classes(dataset, 2, 0)
        assert pair.class_names == ["class_2", "class_0"]
        assert sorted(np.unique(pair.labels())) == [0, 1]
        assert len(pair.trials) == 4

    def test_subset_classes_same_class_rejected(self):
        dataset = random_dataset(np.random.default_rng(9))
        with pytest.raises(ValueError):
            subset_classes(dataset, 1, 1)
