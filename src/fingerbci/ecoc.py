"""Exhaustive-code ECOC multiclass decoding over per-column band pipelines.

Each column of the code matrix defines a binary problem: classes whose bit
is 1 form the positive pool, the rest the negative pool.  A column model
selects its own frequency bands, fits one CSP per selected band, and trains
an extra-trees forest on the concatenated log-variance features.  A trial's
predicted bits across columns form a codeword, decoded to the class whose
row is nearest in Hamming distance (ties to the lowest class index).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandselect import score_bands_for_labels, select_bands
from .csp import CspModel, fit_csp_from_covariances, log_variance_features
from .dsp import BandDecomposition, band_covariances
from .extratrees import EtForest, EtNode, EtParams, fit as et_fit, predict as et_predict, tune as et_tune
from .rng import child_seed
from .trialstore import Trial

MODEL_NAME = "model.json"

# Centred covariance stacks by band index: a decomposition's
# (n_bands, n_trials, C, C) array, or only the bands a model reads.
BandStacks = Mapping[int, np.ndarray] | np.ndarray

DEFAULT_MIN_SPLIT_GRID = [2, 5, 10]
DEFAULT_TREE_GRID = [50, 100, 200]


@dataclass
class CodeMatrix:
    """p x q binary matrix; rows are class codewords, columns binary tasks."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.int64)
        if self.bits.ndim != 2:
            raise ValueError("code matrix must be 2-D")

    @property
    def n_classes(self) -> int:
        return self.bits.shape[0]

    @property
    def n_columns(self) -> int:
        return self.bits.shape[1]

    def validate(self) -> None:
        """Check all exhaustive-code structural invariants."""
        p, q = self.bits.shape
        if not np.isin(self.bits, (0, 1)).all():
            raise ValueError("code matrix entries must be 0 or 1")
        if q != 2 ** (p - 1) - 1:
            raise ValueError(f"expected {2 ** (p - 1) - 1} columns for {p} classes, got {q}")
        if not (self.bits[0] == 1).all():
            raise ValueError("first row must be all ones")
        rows = {tuple(r) for r in self.bits}
        if len(rows) != p:
            raise ValueError("rows must be pairwise distinct")
        min_distance = min(
            int(np.sum(self.bits[i] != self.bits[j])) for i in range(p) for j in range(i + 1, p)
        )
        if min_distance != 2 ** (p - 2):
            raise ValueError(f"minimum row distance {min_distance}, expected {2 ** (p - 2)}")
        columns = self.bits.T
        for j in range(q):
            if len(np.unique(columns[j])) == 1:
                raise ValueError(f"column {j} is constant")
        for i in range(q):
            for j in range(i + 1, q):
                if (columns[i] == columns[j]).all():
                    raise ValueError(f"columns {i} and {j} are identical")
                if (columns[i] == 1 - columns[j]).all():
                    raise ValueError(f"columns {i} and {j} are complementary")


def exhaustive_code(n_classes: int) -> CodeMatrix:
    """Exhaustive code: row 0 all ones, row i alternating runs of
    ``2^(p-1-i)`` zeros then ones, truncated to ``2^(p-1) - 1`` bits."""
    if not 3 <= n_classes <= 8:
        raise ValueError(f"exhaustive codes supported for 3..8 classes, got {n_classes}")
    q = 2 ** (n_classes - 1) - 1
    bits = np.ones((n_classes, q), dtype=np.int64)
    j = np.arange(q)
    for r in range(1, n_classes):
        run = 2 ** (n_classes - 1 - r)
        bits[r] = (j // run) % 2
    return CodeMatrix(bits=bits)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing positions between two equal-length bit vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.sum(a != b))


def decode(code: CodeMatrix, codeword: np.ndarray) -> int:
    """Class whose row is nearest to the codeword; ties -> lowest index."""
    codeword = np.asarray(codeword)
    if codeword.shape != (code.n_columns,):
        raise ValueError(f"codeword length {codeword.shape} != {code.n_columns} columns")
    distances = np.sum(code.bits != codeword[np.newaxis, :], axis=1)
    return int(np.argmin(distances))


def _column_features(
    selected_bands: list[int],
    csp_models: list[CspModel],
    covariances: BandStacks,
    indices: list[int] | None = None,
) -> np.ndarray:
    blocks = []
    for band_index, csp in zip(selected_bands, csp_models):
        stack = covariances[band_index]
        if indices is not None:
            stack = stack[indices]
        blocks.append(log_variance_features(stack, csp))
    return np.hstack(blocks)


@dataclass
class ColumnModel:
    """One trained binary task: its bands, per-band CSPs, and forest."""

    selected_bands: list[int]
    csp_models: list[CspModel]
    forest: EtForest

    def features(self, covariances: BandStacks, indices: list[int] | None = None) -> np.ndarray:
        """Concatenated per-band CSP features for the given trials.

        ``covariances[b]`` is the ``(n_trials, C, C)`` stack of centred
        covariances in band ``b`` of the model's band list; only this
        column's selected bands are read.
        """
        return _column_features(self.selected_bands, self.csp_models, covariances, indices)

    def predict_bits(self, covariances: BandStacks, indices: list[int] | None = None) -> np.ndarray:
        return et_predict(self.forest, self.features(covariances, indices))


def resolve_feature_grid(grid: list[int] | None, feature_dim: int) -> list[int]:
    """Attributes-per-split grid: default {1, ceil(sqrt(d)), d}, clamped to [1, d]."""
    if grid is None:
        values = {1, int(np.ceil(np.sqrt(feature_dim))), feature_dim}
    else:
        if not grid:
            raise ValueError("max_features grid must be non-empty")
        values = {min(max(1, int(g)), feature_dim) for g in grid}
    return sorted(values)


def fit_column(
    decomp: BandDecomposition,
    binary_labels: np.ndarray,
    n_pairs: int = 2,
    folds: int = 5,
    max_features_grid: list[int] | None = None,
    min_samples_split_grid: list[int] | None = None,
    n_estimators_grid: list[int] | None = None,
    seed: int = 0,
    shrinkage: float = 1e-3,
) -> ColumnModel:
    """Band selection -> per-band CSP -> tuned extra-trees for one binary task."""
    y = np.asarray(binary_labels, dtype=np.int64)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0 or n_pos == len(y):
        raise ValueError("binary task is degenerate: one side has no trials")

    scores = score_bands_for_labels(decomp, y, n_pairs, folds, seed=child_seed(seed, 0), shrinkage=shrinkage)
    selection = select_bands(scores)

    csp_models = []
    for band_index in selection.selected:
        covs = decomp.csp_covariances[band_index]
        csp_models.append(
            fit_csp_from_covariances(
                covs[y == 0].mean(axis=0), covs[y == 1].mean(axis=0), n_pairs, decomp.bands[band_index]
            )
        )
    features = _column_features(list(selection.selected), csp_models, decomp.feature_covariances)

    params = et_tune(
        features,
        y,
        resolve_feature_grid(max_features_grid, features.shape[1]),
        min_samples_split_grid or DEFAULT_MIN_SPLIT_GRID,
        n_estimators_grid or DEFAULT_TREE_GRID,
        folds=folds,
        seed=child_seed(seed, 1),
    )
    forest = et_fit(features, y, EtParams(
        params.max_features, params.min_samples_split, params.n_estimators, seed=child_seed(seed, 2)
    ))
    return ColumnModel(selected_bands=list(selection.selected), csp_models=csp_models, forest=forest)


@dataclass
class EcocModel:
    """Trained multiclass decoder: code matrix plus one model per column."""

    code: CodeMatrix
    columns: list[ColumnModel]
    class_names: list[str]
    channel_names: list[str]
    sample_rate: float
    bands: list[tuple[float, float]]
    taps: int
    n_pairs: int

    def needed_bands(self) -> list[int]:
        return sorted({b for column in self.columns for b in column.selected_bands})


@dataclass
class BinaryModel:
    """One column-style pipeline for a fixed class pair."""

    pair: tuple[int, int]
    column: ColumnModel
    class_names: list[str]
    channel_names: list[str]
    sample_rate: float
    bands: list[tuple[float, float]]
    taps: int
    n_pairs: int

    def needed_bands(self) -> list[int]:
        return sorted(set(self.column.selected_bands))


def fit_ecoc(
    decomp: BandDecomposition,
    labels: np.ndarray,
    code: CodeMatrix,
    n_pairs: int = 2,
    folds: int = 5,
    max_features_grid: list[int] | None = None,
    min_samples_split_grid: list[int] | None = None,
    n_estimators_grid: list[int] | None = None,
    seed: int = 0,
    shrinkage: float = 1e-3,
) -> EcocModel:
    """Train one column model per code-matrix column.

    For column ``j`` the trials of classes with bit 1 form the positive
    pool and the rest the negative pool; band selection, CSP fitting and
    forest tuning all run on that relabeled problem.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != decomp.n_trials:
        raise ValueError("labels length must match the decomposition")
    present = set(np.unique(labels))
    if present != set(range(code.n_classes)):
        raise ValueError(f"expected all {code.n_classes} classes present, got labels {sorted(present)}")
    if code.n_classes != decomp.n_classes:
        raise ValueError("code matrix size does not match dataset classes")

    columns = []
    for j in range(code.n_columns):
        positive = set(np.flatnonzero(code.bits[:, j] == 1))
        y = np.isin(labels, list(positive)).astype(np.int64)
        if y.all() or not y.any():
            raise ValueError(f"code column {j} puts every class on one side (degenerate code matrix)")
        columns.append(
            fit_column(
                decomp, y, n_pairs, folds,
                max_features_grid, min_samples_split_grid, n_estimators_grid,
                seed=child_seed(seed, j), shrinkage=shrinkage,
            )
        )
    return EcocModel(
        code=code,
        columns=columns,
        class_names=list(decomp.class_names),
        channel_names=list(decomp.channel_names),
        sample_rate=decomp.sample_rate,
        bands=list(decomp.bands),
        taps=decomp.taps,
        n_pairs=n_pairs,
    )


def fit_binary(
    decomp: BandDecomposition,
    binary_labels: np.ndarray,
    pair: tuple[int, int],
    class_names: list[str],
    n_pairs: int = 2,
    folds: int = 5,
    max_features_grid: list[int] | None = None,
    min_samples_split_grid: list[int] | None = None,
    n_estimators_grid: list[int] | None = None,
    seed: int = 0,
    shrinkage: float = 1e-3,
) -> BinaryModel:
    """Train a standalone pair classifier (labels: 0 -> pair[0], 1 -> pair[1])."""
    column = fit_column(
        decomp, binary_labels, n_pairs, folds,
        max_features_grid, min_samples_split_grid, n_estimators_grid,
        seed=seed, shrinkage=shrinkage,
    )
    return BinaryModel(
        pair=pair,
        column=column,
        class_names=list(class_names),
        channel_names=list(decomp.channel_names),
        sample_rate=decomp.sample_rate,
        bands=list(decomp.bands),
        taps=decomp.taps,
        n_pairs=n_pairs,
    )


def _needed_covariances(model: EcocModel | BinaryModel, trials: list[Trial]) -> dict[int, np.ndarray]:
    # Runs the training filter bank over the bands the model reads, no others.
    for trial in trials:
        if trial.n_channels != len(model.channel_names):
            raise ValueError(f"trial has {trial.n_channels} channels, model expects {len(model.channel_names)}")
    needed = model.needed_bands()
    _, feature_covariances, _ = band_covariances(
        trials, model.sample_rate, [model.bands[b] for b in needed], model.taps
    )
    return dict(zip(needed, feature_covariances))


def predict_from_bands(
    model: EcocModel,
    covariances: BandStacks,
    indices: list[int] | None = None,
) -> np.ndarray:
    """Decode classes from centred band covariances aligned with the model's bands."""
    bits = np.stack([column.predict_bits(covariances, indices) for column in model.columns], axis=1)
    return np.array([decode(model.code, word) for word in bits], dtype=np.int64)


def predict_trials(model: EcocModel, trials: list[Trial]) -> np.ndarray:
    """Filter raw trials into the model's bands and decode each one."""
    return predict_from_bands(model, _needed_covariances(model, trials))


def predict_ecoc(model: EcocModel, trial: Trial) -> int:
    """Predicted class index for a single raw trial."""
    return int(predict_trials(model, [trial])[0])


def predict_binary_from_bands(
    model: BinaryModel,
    covariances: BandStacks,
    indices: list[int] | None = None,
) -> np.ndarray:
    bits = model.column.predict_bits(covariances, indices)
    return np.where(bits == 1, model.pair[1], model.pair[0]).astype(np.int64)


def predict_binary_trials(model: BinaryModel, trials: list[Trial]) -> np.ndarray:
    """Predicted class indices (in the full class list) for raw trials."""
    return predict_binary_from_bands(model, _needed_covariances(model, trials))


# --- model bundle serialization -------------------------------------------


def _csp_to_json(model: CspModel) -> dict:
    return {
        "band": list(model.band) if model.band is not None else None,
        "filters": model.filters.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "n_pairs": model.n_pairs,
    }


def _csp_from_json(data: dict) -> CspModel:
    return CspModel(
        filters=np.array(data["filters"], dtype=np.float64),
        eigenvalues=np.array(data["eigenvalues"], dtype=np.float64),
        n_pairs=int(data["n_pairs"]),
        band=tuple(data["band"]) if data["band"] is not None else None,
    )


def _node_to_json(node: EtNode) -> dict:
    if node.is_leaf:
        return {"counts": list(node.counts)}
    return {
        "attribute": node.attribute,
        "cut": node.cut,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _node_from_json(data: dict) -> EtNode:
    if "counts" in data:
        return EtNode(counts=tuple(data["counts"]))
    return EtNode(
        attribute=int(data["attribute"]),
        cut=float(data["cut"]),
        left=_node_from_json(data["left"]),
        right=_node_from_json(data["right"]),
    )


def _forest_to_json(forest: EtForest) -> dict:
    return {
        "params": {
            "max_features": forest.params.max_features,
            "min_samples_split": forest.params.min_samples_split,
            "n_estimators": forest.params.n_estimators,
            "seed": forest.params.seed,
        },
        "feature_dim": forest.feature_dim,
        "trees": [_node_to_json(t) for t in forest.trees],
    }


def _forest_from_json(data: dict) -> EtForest:
    p = data["params"]
    return EtForest(
        trees=[_node_from_json(t) for t in data["trees"]],
        params=EtParams(
            max_features=int(p["max_features"]),
            min_samples_split=int(p["min_samples_split"]),
            n_estimators=int(p["n_estimators"]),
            seed=int(p["seed"]),
        ),
        feature_dim=int(data["feature_dim"]),
    )


def _column_to_json(column: ColumnModel) -> dict:
    return {
        "selected_bands": list(column.selected_bands),
        "csp_models": [_csp_to_json(c) for c in column.csp_models],
        "forest": _forest_to_json(column.forest),
    }


def _column_from_json(data: dict) -> ColumnModel:
    return ColumnModel(
        selected_bands=[int(b) for b in data["selected_bands"]],
        csp_models=[_csp_from_json(c) for c in data["csp_models"]],
        forest=_forest_from_json(data["forest"]),
    )


def save_model(model: EcocModel | BinaryModel, path: str | Path) -> None:
    """Write a model bundle directory (``model.json``)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "class_names": list(model.class_names),
        "channel_names": list(model.channel_names),
        "sample_rate": model.sample_rate,
        "bands": [list(b) for b in model.bands],
        "taps": model.taps,
        "n_pairs": model.n_pairs,
    }
    if isinstance(model, EcocModel):
        payload["mode"] = "multiclass"
        payload["code"] = model.code.bits.tolist()
        payload["columns"] = [_column_to_json(c) for c in model.columns]
    else:
        payload["mode"] = "binary"
        payload["pair"] = list(model.pair)
        payload["columns"] = [_column_to_json(model.column)]
    with open(directory / MODEL_NAME, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> EcocModel | BinaryModel:
    """Read a model bundle written by :func:`save_model`."""
    bundle = Path(path) / MODEL_NAME
    if not bundle.is_file():
        raise FileNotFoundError(f"missing {bundle}")
    with open(bundle, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    common = dict(
        class_names=[str(c) for c in data["class_names"]],
        channel_names=[str(c) for c in data["channel_names"]],
        sample_rate=float(data["sample_rate"]),
        bands=[tuple(b) for b in data["bands"]],
        taps=int(data["taps"]),
        n_pairs=int(data["n_pairs"]),
    )
    columns = [_column_from_json(c) for c in data["columns"]]
    if data["mode"] == "multiclass":
        return EcocModel(code=CodeMatrix(bits=np.array(data["code"])), columns=columns, **common)
    if data["mode"] == "binary":
        return BinaryModel(pair=tuple(int(c) for c in data["pair"]), column=columns[0], **common)
    raise ValueError(f"unknown model mode {data['mode']!r}")
