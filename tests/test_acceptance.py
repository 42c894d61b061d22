"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
Expected values are either frozen hand computations or recomputed here by
independent oracles (brute-force searches, DTFT evaluation, eigensolvers on
empirical covariances) rather than by the code paths under test.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fingerbci import (
    Dataset,
    SynthConfig,
    Trial,
    decompose,
    default_bank,
    design_bandpass,
    exhaustive_code,
    generate,
    load_dataset,
    load_model,
    repeated_holdout,
    save_dataset,
    save_model,
    score_bands,
    select_bands,
)
from fingerbci.bandselect import BandScore
from fingerbci.config import PipelineConfig
from fingerbci.ecoc import decode, fit_ecoc, hamming
from fingerbci.extratrees import EtParams, fit as et_fit, predict as et_predict
from fingerbci.rng import child_seed, stream
from fingerbci.dsp import make_bank

from timeseries_reference import class_covariance, fit_csp


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {description}")
        raise
    print(f"\n[criterion {number}] PASS - {description}")


def brute_force_nearest(rows, word):
    """Independent decode oracle: linear scan, lowest index wins ties."""
    best_index, best_distance = None, None
    for i, row in enumerate(rows):
        distance = sum(1 for a, b in zip(row, word) if a != b)
        if best_distance is None or distance < best_distance:
            best_index, best_distance = i, distance
    return best_index


def oracle_config(master_seed):
    """Criterion 6/7 dataset: 4 classes, one 9-11 Hz source each, SNR 4x."""
    return SynthConfig(
        n_classes=4,
        trials_per_class=40,
        n_channels=8,
        sample_rate=512.0,
        trial_duration=3.0,
        class_sources=[[(9.0, 11.0, 4.0)] for _ in range(4)],
        mixing_seed=child_seed(master_seed, 0),
        noise_variance=1.0,
        noise_seed=child_seed(master_seed, 1),
        class_names=["rest", "thumb", "index", "middle"],
    )


@pytest.fixture(scope="module")
def oracle_dataset():
    return generate(oracle_config(0))


def test_criterion_1_decode_matches_brute_force():
    start = time.perf_counter()
    with criterion(1, "decode agrees with brute-force nearest row for every codeword (p=3, 4)"):
        for p in (3, 4):
            code = exhaustive_code(p)
            for bits in itertools.product((0, 1), repeat=code.n_columns):
                word = np.array(bits)
                assert decode(code, word) == brute_force_nearest(code.bits, word), (
                    f"p={p}, codeword {bits}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_code_properties():
    start = time.perf_counter()
    with criterion(
        2,
        "exhaustive-code structure (p=3, 4, 5); every corruption of up to "
        "t = (d-1)//2 bits corrected (p=4, 5); every 1-bit corruption detected (p=3)",
    ):
        for p in (3, 4, 5):
            code = exhaustive_code(p)
            q = code.n_columns
            assert q == 2 ** (p - 1) - 1
            distances = [
                hamming(code.bits[i], code.bits[j]) for i in range(p) for j in range(i + 1, p)
            ]
            assert min(distances) == 2 ** (p - 2)
            columns = [tuple(code.bits[:, j]) for j in range(q)]
            for j, column in enumerate(columns):
                assert len(set(column)) == 2, f"p={p}: column {j} constant"
            for i in range(q):
                for j in range(i + 1, q):
                    assert columns[i] != columns[j], f"p={p}: duplicate columns {i},{j}"
                    assert columns[i] != tuple(1 - b for b in columns[j]), (
                        f"p={p}: complementary columns {i},{j}"
                    )
            # A code of minimum distance d corrects t = (d-1)//2 bit errors:
            # 0 for p=3 (d=2), 1 for p=4 (d=4), 3 for p=5 (d=8). With t=0 a
            # single error can only be detected: for p=3 the word 101 is one
            # flip from row 0 (111) and from row 1 (001) alike.
            t = (min(distances) - 1) // 2
            for c in range(p):
                for j in range(q):
                    corrupted = code.bits[c].copy()
                    corrupted[j] ^= 1
                    if t >= 1:
                        decoded = decode(code, corrupted)
                        assert decoded == c, (
                            f"p={p}: flipping bit {j} of row {c} decodes to {decoded}"
                        )
                    else:
                        row_distances = [hamming(row, corrupted) for row in code.bits]
                        assert 0 not in row_distances, (
                            f"p={p}: flipping bit {j} of row {c} gives the codeword of "
                            f"row {row_distances.index(0)}"
                        )
                        assert row_distances[c] == 1 == min(row_distances), (
                            f"p={p}: flipping bit {j} of row {c} lies at distances "
                            f"{row_distances} from the rows"
                        )
                for n_flips in range(2, t + 1):
                    for flipped in itertools.combinations(range(q), n_flips):
                        corrupted = code.bits[c].copy()
                        corrupted[list(flipped)] ^= 1
                        decoded = decode(code, corrupted)
                        assert decoded == c, (
                            f"p={p}: flipping bits {flipped} of row {c} decodes to {decoded}"
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_csp_diagonalization():
    with criterion(3, "CSP diagonalizes planted-source covariances; 2x2 closed form exact"):
        config = SynthConfig(
            n_classes=2,
            trials_per_class=40,
            n_channels=8,
            sample_rate=512.0,
            trial_duration=2.0,
            class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]],
            mixing_seed=0,
            noise_variance=1.0,
            noise_seed=13,
            mixing_vectors=[[[1, 0, 0, 0, 0, 0, 0, 0]], [[0, 1, 0, 0, 0, 0, 0, 0]]],
        )
        dataset = generate(config)
        class_a = [t for t in dataset.trials if t.label == 0]
        class_b = [t for t in dataset.trials if t.label == 1]
        model = fit_csp(class_a, class_b, n_pairs=2)
        cov_a = class_covariance(class_a)
        cov_b = class_covariance(class_b)
        identity_residual = model.filters @ (cov_a + cov_b) @ model.filters.T - np.eye(8)
        assert np.linalg.norm(identity_residual) <= 1e-6
        rotated = model.filters @ cov_a @ model.filters.T
        off_diagonal = rotated - np.diag(np.diag(rotated))
        assert np.linalg.norm(off_diagonal) <= 1e-6

        # 2x2 closed form: variance ratios 2:1 and 1:2 on exact float values.
        two_a = [Trial(label=0, samples=np.array([[1.0, 1, 1, 1], [1, -1, 0, 0]]), sample_rate=100.0)]
        two_b = [Trial(label=1, samples=np.array([[1.0, -1, 0, 0], [1, 1, 1, 1]]), sample_rate=100.0)]
        closed = fit_csp(two_a, two_b, n_pairs=1)
        assert abs(closed.eigenvalues[0] - 2 / 3) < 1e-9
        assert abs(closed.eigenvalues[1] - 1 / 3) < 1e-9


def test_criterion_4_extra_trees_properties():
    with criterion(4, "extra trees: zero resubstitution, no bootstrap, seeded determinism"):
        rng = np.random.default_rng(214)
        params = EtParams(max_features=2, min_samples_split=2, n_estimators=10, seed=3)
        for _ in range(100):
            features = rng.standard_normal((50, 5))
            labels = rng.integers(0, 2, 50)
            labels[:2] = [0, 1]
            forest = et_fit(features, labels, params)
            assert np.array_equal(et_predict(forest, features), labels)

            def total(node):
                if node.is_leaf:
                    return node.counts[0] + node.counts[1]
                return total(node.left) + total(node.right)

            for tree in forest.trees:
                assert total(tree) == 50  # every tree saw every sample

        features = rng.standard_normal((60, 5))
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        probes = rng.standard_normal((200, 5))
        first = et_predict(et_fit(features, labels, params), probes)
        second = et_predict(et_fit(features, labels, params), probes)
        assert first.tobytes() == second.tobytes()


def test_criterion_5_threshold_rule():
    with criterion(5, "band threshold max - sample std; selection never empty"):
        scores = [BandScore(band=(float(i), float(i) + 2), score=v) for i, v in enumerate([0.8, 0.7, 0.6])]
        result = select_bands(scores)
        assert abs(result.threshold - 0.7) < 1e-12  # std of (0.8, 0.7, 0.6) is exactly 0.1
        assert result.selected == [0, 1]

        equal = [BandScore(band=(float(i), float(i) + 2), score=0.5) for i in range(5)]
        assert select_bands(equal).selected == [0, 1, 2, 3, 4]

        rng = np.random.default_rng(5150)
        for _ in range(1000):
            n = int(rng.integers(1, 18))
            values = rng.random(n)
            random_scores = [BandScore(band=(float(i), float(i) + 2), score=float(v)) for i, v in enumerate(values)]
            selection = select_bands(random_scores)
            assert selection.selected
            assert int(np.argmax(values)) in selection.selected


def test_criterion_6_band_selection_oracle():
    start = time.perf_counter()
    with criterion(6, "planted 9-11 Hz source tops the 17-band scores for >= 9 of 10 seeds"):
        bank = default_bank(512.0)
        band_index = bank.bands.index((9.0, 11.0))
        hits = 0
        for master_seed in range(10):
            dataset = generate(oracle_config(master_seed))
            decomp = decompose(dataset, bank)
            scores = score_bands(
                decomp, 0, 1, n_pairs=2, folds=5, seed=child_seed(master_seed, 2)
            )
            values = [s.score for s in scores]
            selection = select_bands(scores)
            if values[band_index] == max(values) and band_index in selection.selected:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 9, f"planted band won only {hits}/10 seeds"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_7_end_to_end_multiclass(oracle_dataset):
    start = time.perf_counter()
    with criterion(7, "repeated holdout: oracle kappa >= 0.6, label-shuffled kappa near 0"):
        config = PipelineConfig(
            et_max_features=[2],
            et_min_samples_split=[2],
            et_n_estimators=[50],
            repetitions=10,
            seed=1234,
        )
        report = repeated_holdout(oracle_dataset, config)
        mean_kappa = report.kappa_mean
        assert mean_kappa >= 0.6, f"oracle mean kappa {mean_kappa:.3f}"

        labels = oracle_dataset.labels()
        order = stream(4321).permutation(len(labels))
        shuffled = Dataset(
            sample_rate=oracle_dataset.sample_rate,
            channel_names=oracle_dataset.channel_names,
            class_names=oracle_dataset.class_names,
            trials=[
                Trial(label=int(labels[order[i]]), samples=t.samples, sample_rate=t.sample_rate)
                for i, t in enumerate(oracle_dataset.trials)
            ],
        )
        shuffled_report = repeated_holdout(shuffled, config)
        shuffled_kappa = shuffled_report.kappa_mean
        assert -0.15 <= shuffled_kappa <= 0.15, f"shuffled mean kappa {shuffled_kappa:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        print(
            f"\n  oracle kappa {mean_kappa:.3f}, shuffled kappa {shuffled_kappa:.3f} "
            f"(subject-study reference values, recordings unavailable: best "
            f"multiclass kappa 0.36; rest-vs-finger mean 0.74, pairwise mean 0.60)"
        )


def test_criterion_8_fir_contract():
    with criterion(8, "(9,11) Hz design at 512 Hz / 257 taps meets the gain contract"):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        h = fir.coefficients
        n = np.arange(len(h))

        def gain(freq):
            return abs(np.sum(h * np.exp(-2j * np.pi * freq * n / 512.0)))

        assert abs(gain(10.0) - 1.0) <= 0.05
        assert gain(0.0) <= 0.01
        assert gain(30.0) <= 0.01
        assert np.array_equal(h, h[::-1])


def test_criterion_9_round_trips(tmp_path, mini_four_class):
    with criterion(9, "dataset and model bundle: save -> load -> save is byte-identical"):
        first = tmp_path / "ds_one"
        second = tmp_path / "ds_two"
        save_dataset(mini_four_class, first)
        save_dataset(load_dataset(first), second)
        for name in ("manifest.json", "trials.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

        bank = make_bank(8.0, 14.0, 2.0, taps=63)
        decomp = decompose(mini_four_class, bank)
        model = fit_ecoc(
            decomp, mini_four_class.labels(), exhaustive_code(4),
            n_pairs=1, folds=2, max_features_grid=[1], min_samples_split_grid=[2],
            n_estimators_grid=[10], seed=6,
        )
        model_one = tmp_path / "model_one"
        model_two = tmp_path / "model_two"
        save_model(model, model_one)
        save_model(load_model(model_one), model_two)
        assert (model_one / "model.json").read_bytes() == (model_two / "model.json").read_bytes()
