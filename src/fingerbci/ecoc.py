"""Exhaustive-code ECOC multiclass decoding over per-column band pipelines.

Each column of the code matrix defines a binary problem: classes whose bit
is 1 form the positive pool, the rest the negative pool.  A column model
selects its own frequency bands, fits one CSP per selected band, and trains
an extra-trees forest on the concatenated log-variance features.  A trial's
predicted bits across columns form a codeword, decoded to the class whose
row is nearest in Hamming distance (ties to the lowest row), and the row
maps to a dataset class.  A class-pair decoder is the one-column code
:data:`PAIR_CODE` with its two rows mapped to the pair's classes.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bandselect import score_bands_for_labels, select_bands
from .csp import CspModel, fit_csp_stack, log_variance_features
from .dsp import BandDecomposition, BankError, band_covariances, check_bank
from .extratrees import EtForest, EtNode, EtParams, fit as et_fit, predict as et_predict, tune as et_tune
from .rng import child_seed
from .trialstore import Trial, replacing

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
        """Check that nearest-row decoding is well defined: 0/1 entries,
        pairwise distinct rows, and no constant, duplicate or complementary
        column."""
        p, q = self.bits.shape
        if not np.isin(self.bits, (0, 1)).all():
            raise ValueError("code matrix entries must be 0 or 1")
        if len({tuple(r) for r in self.bits}) != p:
            raise ValueError("rows must be pairwise distinct")
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


# The code of a class-pair decoder: one column, whose bit is the row index.
PAIR_CODE = CodeMatrix(bits=[[0], [1]])


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

    covs = decomp.csp_covariances[selection.selected]
    filters, eigenvalues = fit_csp_stack(covs[:, y == 0].mean(axis=1), covs[:, y == 1].mean(axis=1), n_pairs)
    csp_models = [
        CspModel(filters=f, eigenvalues=e, n_pairs=n_pairs, band=decomp.bands[b])
        for f, e, b in zip(filters, eigenvalues, selection.selected)
    ]
    features = _column_features(selection.selected, csp_models, decomp.feature_covariances)

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
    """Trained decoder: code matrix, one model per column, and ``classes``,
    the dataset class index of each code row: ``range(p)`` for the exhaustive
    code, ``[a, b]`` for :data:`PAIR_CODE` fitted on the view of pair (a, b)."""

    code: CodeMatrix
    classes: list[int]
    columns: list[ColumnModel]
    class_names: list[str]
    channel_names: list[str]
    sample_rate: float
    bands: list[tuple[float, float]]
    taps: int
    n_pairs: int

    def needed_bands(self) -> list[int]:
        return sorted({b for column in self.columns for b in column.selected_bands})


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
    forest tuning all run on that relabeled problem.  Code row ``i`` stands
    for label ``i`` of the decomposition.
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
        classes=list(range(code.n_classes)),
        columns=columns,
        class_names=list(decomp.class_names),
        channel_names=list(decomp.channel_names),
        sample_rate=decomp.sample_rate,
        bands=list(decomp.bands),
        taps=decomp.taps,
        n_pairs=n_pairs,
    )


def _needed_covariances(
    model: EcocModel, trials: list[Trial], channel_names: list[str] | None
) -> dict[int, np.ndarray]:
    # Runs the training filter bank over the bands the model reads, no others.
    names = model.channel_names if channel_names is None else list(channel_names)
    rate = next((t.sample_rate for t in trials if t.sample_rate != model.sample_rate), model.sample_rate)
    if names != model.channel_names or rate != model.sample_rate:
        raise ValueError(
            f"channels {names} at {rate} Hz do not match the model's channels {model.channel_names} "
            f"at {model.sample_rate} Hz (names, order and sample rate must agree)"
        )
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
    """Decode class indices from centred band covariances aligned with the model's bands."""
    bits = np.stack([column.predict_bits(covariances, indices) for column in model.columns], axis=1)
    rows = [decode(model.code, word) for word in bits]
    return np.asarray(model.classes, dtype=np.int64)[rows]


def predict_trials(
    model: EcocModel,
    trials: list[Trial],
    *,
    channel_names: list[str] | None = None,
) -> np.ndarray:
    """Filter raw trials into the model's bands and decode each one.

    ``channel_names``, when given, names the trials' channel rows; it must
    equal the model's in names and order. Every trial's sample rate must
    equal the model's.
    """
    return predict_from_bands(model, _needed_covariances(model, trials, channel_names))


def predict_ecoc(
    model: EcocModel,
    trial: Trial,
    *,
    channel_names: list[str] | None = None,
) -> int:
    """Predicted class index for a single raw trial (see :func:`predict_trials`)."""
    return int(predict_trials(model, [trial], channel_names=channel_names)[0])


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
    # Values are kept as read; load_model's checks name any that is malformed.
    if "counts" in data:
        counts = data["counts"]
        return EtNode(counts=tuple(counts) if type(counts) is list else counts)
    return EtNode(
        attribute=data["attribute"],
        cut=data["cut"],
        left=_node_from_json(data["left"]),
        right=_node_from_json(data["right"]),
    )


def _forest_to_json(forest: EtForest) -> dict:
    return {
        "params": asdict(forest.params),
        "feature_dim": forest.feature_dim,
        "trees": [_node_to_json(t) for t in forest.trees],
    }


def _forest_from_json(data: dict) -> EtForest:
    return EtForest(
        trees=[_node_from_json(t) for t in data["trees"]],
        params=EtParams(**{f.name: int(data["params"][f.name]) for f in fields(EtParams)}),
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


def save_model(model: EcocModel, path: str | Path) -> None:
    """Write a model bundle directory (``model.json``)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "code": model.code.bits.tolist(),
        "classes": list(model.classes),
        "columns": [_column_to_json(c) for c in model.columns],
        "class_names": list(model.class_names),
        "channel_names": list(model.channel_names),
        "sample_rate": model.sample_rate,
        "bands": [list(b) for b in model.bands],
        "taps": model.taps,
        "n_pairs": model.n_pairs,
    }
    with replacing(directory / MODEL_NAME, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ValueError(f"model bundle field {name!r}: {message}")


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _check_model(model: EcocModel) -> None:
    """Raise ``ValueError`` naming the first field that cannot serve predictions."""
    try:
        model.code.validate()
    except ValueError as exc:
        raise ValueError(f"model bundle field 'code': {exc}") from None
    for band in model.bands:
        _require(len(band) == 2 and all(_is_number(f) for f in band), "bands", f"{list(band)} is not a (low, high) pair")
    try:
        check_bank(model.bands, model.sample_rate, model.taps)
    except BankError as exc:
        raise ValueError(f"model bundle field {exc.field!r}: {exc}") from None
    code, classes = model.code, list(model.classes)
    _require(code.n_classes == len(classes), "classes", f"{len(classes)} entries for {code.n_classes} code rows")
    _require(
        len(set(classes)) == len(classes) and all(0 <= c < len(model.class_names) for c in classes),
        "classes", f"{classes} are not distinct indices into {len(model.class_names)} class_names",
    )
    _require(code.n_columns == len(model.columns), "columns", f"{len(model.columns)} for {code.n_columns} code columns")
    n_channels = len(model.channel_names)
    for j, column in enumerate(model.columns):
        bands = column.selected_bands
        _require(all(0 <= b < len(model.bands) for b in bands), "selected_bands",
                 f"column {j} selects {bands} of {len(model.bands)} bands")
        _require(len(column.csp_models) == len(bands), "csp_models",
                 f"column {j} has {len(column.csp_models)} for {len(bands)} selected bands")
        for csp in column.csp_models:
            _require(csp.filters.shape == (n_channels, n_channels), "filters",
                     f"column {j} has a {csp.filters.shape} CSP filter matrix for {n_channels} channels")
        expected_dim = 2 * model.n_pairs * len(bands)
        _require(column.forest.feature_dim == expected_dim, "feature_dim",
                 f"column {j} reads {column.forest.feature_dim} features, its bands give {expected_dim}")
        stack = list(column.forest.trees)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                counts = node.counts
                _require(type(counts) is tuple and len(counts) == 2 and all(type(c) is int and c >= 0 for c in counts),
                         "counts", f"column {j} has a leaf with counts {counts}, not two non-negative integers")
            else:
                _require(type(node.attribute) is int and 0 <= node.attribute < expected_dim, "attribute",
                         f"column {j} has a node reading attribute {node.attribute} of {expected_dim}")
                _require(_is_number(node.cut) and np.isfinite(node.cut), "cut",
                         f"column {j} has a node with cut {node.cut!r}")
                stack += [node.left, node.right]


def load_model(path: str | Path) -> EcocModel:
    """Read and check a model bundle written by :func:`save_model`."""
    bundle = Path(path) / MODEL_NAME
    if not bundle.is_file():
        raise FileNotFoundError(f"missing {bundle}")
    with open(bundle, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        model = EcocModel(
            code=CodeMatrix(bits=np.array(data["code"])),
            classes=[int(c) for c in data["classes"]],
            columns=[_column_from_json(c) for c in data["columns"]],
            class_names=[str(c) for c in data["class_names"]],
            channel_names=[str(c) for c in data["channel_names"]],
            sample_rate=float(data["sample_rate"]),
            bands=[tuple(b) for b in data["bands"]],
            taps=int(data["taps"]),
            n_pairs=int(data["n_pairs"]),
        )
    except KeyError as exc:
        raise ValueError(f"model bundle {bundle} lacks field {exc}") from None
    _check_model(model)
    return model
