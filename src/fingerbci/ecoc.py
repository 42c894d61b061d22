"""Exhaustive-code ECOC multiclass decoding over per-column band pipelines.

Each column of the code matrix defines a binary problem: classes whose bit
is 1 form the positive pool, the rest the negative pool.  A column model
selects its own frequency bands, keeps the first and last ``n_pairs`` CSP
filters of each, and trains an extra-trees forest on the concatenated
log-variance features.  A trial's predicted bits across columns form a
codeword, decoded to the class whose row is nearest in Hamming distance
(ties to the lowest row), and the row maps to a dataset class.  A
class-pair decoder is the one-column code :data:`PAIR_CODE` with its two
rows mapped to the pair's classes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bandselect import score_bands_for_labels, select_bands
from .config import PipelineConfig
from .csp import class_covariances, fit_csp_stack, kept_filters, log_ratios
from .dsp import BandDecomposition, BankError, check_bank, row_variances
from .extratrees import EtForest, EtParams, NodeTable, fit as et_fit, majority, node_table, tree_sizes, tune as et_tune
from .rng import child_seed
from .trialstore import Trial, describe, is_finite_number, is_list_of, replacing

MODEL_NAME = "model.json"
# Bundle layout 5: each column's kept CSP filters as one 3-D list, its forest as the three level-order lists.
FORMAT_VERSION = 5


def check_code(bits: np.ndarray) -> None:
    """Check that nearest-row decoding of a ``(p, q)`` code is well defined:
    integer 0/1 entries, pairwise distinct rows, and no constant, duplicate
    or complementary column."""
    p, q = bits.shape
    if bits.dtype.kind not in "iu" or not np.isin(bits, (0, 1)).all():
        raise ValueError("code matrix entries must be integers 0 or 1")
    if len({tuple(r) for r in bits}) != p:
        raise ValueError("rows must be pairwise distinct")
    columns = bits.T
    for j in range(q):
        if len(np.unique(columns[j])) == 1:
            raise ValueError(f"column {j} is constant")
    for i in range(q):
        for j in range(i + 1, q):
            if (columns[i] == columns[j]).all():
                raise ValueError(f"columns {i} and {j} are identical")
            if (columns[i] == 1 - columns[j]).all():
                raise ValueError(f"columns {i} and {j} are complementary")


def exhaustive_code(n_classes: int) -> np.ndarray:
    """Exhaustive ``(p, q)`` code: row 0 all ones, row i alternating runs of
    ``2^(p-1-i)`` zeros then ones, truncated to ``2^(p-1) - 1`` bits."""
    if not 3 <= n_classes <= 8:
        raise ValueError(f"exhaustive codes supported for 3..8 classes, got {n_classes}")
    q = 2 ** (n_classes - 1) - 1
    bits = np.ones((n_classes, q), dtype=np.int64)
    j = np.arange(q)
    for r in range(1, n_classes):
        run = 2 ** (n_classes - 1 - r)
        bits[r] = (j // run) % 2
    return bits


# The code of a class-pair decoder: one column, whose bit is the row index.
PAIR_CODE = np.array([[0], [1]])
PAIR_CODE.flags.writeable = False


def decode(code: np.ndarray, codewords: np.ndarray) -> int | np.ndarray:
    """Row nearest in Hamming distance to each codeword of a ``(..., q)``
    array, ties to the lowest index; an ``int`` for a single codeword."""
    codewords = np.asarray(codewords)
    if codewords.ndim == 0 or codewords.shape[-1] != code.shape[1]:
        raise ValueError(f"codewords of shape {codewords.shape} do not have {code.shape[1]} columns")
    rows = np.argmin(np.sum(code != codewords[..., np.newaxis, :], axis=-1), axis=-1)
    return int(rows) if codewords.ndim == 1 else rows


def _column_features(selected_bands: list[int], filters: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """Concatenated per-band CSP features of every trial in ``covariances``.

    ``covariances[b]`` is the ``(n_trials, C, C)`` stack of centred
    covariances in band ``b`` of the model's band list; only the selected
    bands are read.  Through band ``b``'s kept filters ``W``, a trial's
    features are ``log(diag(W S W^T) / sum(diag(W S W^T)))`` of its ``S``,
    computed trial by trial, so a batch equals its single trials.
    """
    return np.hstack([log_ratios(np.sum((f @ covariances[b]) * f, axis=-1)) for b, f in zip(selected_bands, filters)])


@dataclass
class ColumnModel:
    """One trained binary task: its bands, the kept CSP filters of each,
    ``(len(selected_bands), 2 * n_pairs, C)``, and its forest."""

    selected_bands: list[int]
    filters: np.ndarray
    forest: EtForest


def resolve_feature_grid(grid: list[int] | None, feature_dim: int) -> list[int]:
    """Attributes-per-split grid: default {1, ceil(sqrt(d)), d}, clamped to [1, d]."""
    if grid is None:
        values = {1, int(np.ceil(np.sqrt(feature_dim))), feature_dim}
    else:
        if not grid:
            raise ValueError("max_features grid must be non-empty")
        values = {min(max(1, int(g)), feature_dim) for g in grid}
    return sorted(values)


def fit_column(decomp: BandDecomposition, binary_labels: np.ndarray, config: PipelineConfig, seed: int) -> ColumnModel:
    """Band selection -> per-band CSP -> tuned extra-trees for one binary task.

    ``config`` gives the settings; ``seed`` keys the task's random streams.
    """
    y = np.asarray(binary_labels, dtype=np.int64)
    n_pairs = config.csp_pairs
    scores = score_bands_for_labels(
        decomp, y, n_pairs, config.cv_folds, seed=child_seed(seed, 0), shrinkage=config.lda_shrinkage
    )
    selection = select_bands(scores)

    by_class = np.stack([y == 0, y == 1])[np.newaxis, np.newaxis]  # one training set, shared by every band
    means = class_covariances(decomp.feature_covariances[selection.selected], by_class)[:, 0]
    filters = kept_filters(fit_csp_stack(means[:, 0], means[:, 1], n_pairs)[0], n_pairs)
    features = _column_features(selection.selected, filters, decomp.feature_covariances)

    params = et_tune(
        features,
        y,
        resolve_feature_grid(config.et_max_features, features.shape[1]),
        config.et_min_samples_split,
        config.et_n_estimators,
        folds=config.cv_folds,
        seed=child_seed(seed, 1),
    )
    forest = et_fit(features, y, replace(params, seed=child_seed(seed, 2)))
    return ColumnModel(selected_bands=list(selection.selected), filters=filters, forest=forest)


@dataclass
class EcocModel:
    """Trained decoder: code matrix, one model per column, and ``classes``,
    the dataset class index of each code row: ``range(p)`` for the exhaustive
    code, ``[a, b]`` for :data:`PAIR_CODE` fitted on the view of pair (a, b).

    Serving derives the stacked filter rows and the node table when first
    needed and keeps them: a model is not edited after it has predicted, and
    ``dataclasses.replace`` builds a new one.
    """

    code: np.ndarray
    classes: list[int]
    columns: list[ColumnModel]
    class_names: list[str]
    channel_names: list[str]
    sample_rate: float
    bands: list[tuple[float, float]]
    taps: int

    @functools.cached_property
    def _rows(self) -> tuple[list[tuple[float, float]], np.ndarray, np.ndarray, list[np.ndarray]]:
        """``(bands, rows, row_bands, blocks)``: every column's kept filter
        rows stacked column after column, ``(R, C)``, each read in band
        ``bands[row_bands[r]]`` of the bands the model reads; row ``r`` gives
        feature ``r`` of the columns' features side by side.  ``blocks``
        holds, per block size ``k``, the ``(n_blocks, k)`` rows of every
        (column, band) block of that size."""
        filters = [f for column in self.columns for f in column.filters]
        bands = [b for column in self.columns for b in column.selected_bands]
        needed, row_bands = np.unique(bands, return_inverse=True)
        sizes = np.array([len(f) for f in filters])
        starts = np.cumsum(sizes) - sizes
        blocks = [starts[sizes == k, np.newaxis] + np.arange(k) for k in np.unique(sizes)]
        return [self.bands[b] for b in needed], np.vstack(filters), np.repeat(row_bands, sizes), blocks

    @functools.cached_property
    def _trees(self) -> tuple[NodeTable, np.ndarray]:
        """The node table of every column's forest, column after column, and ``classes`` as an array."""
        return node_table([column.forest for column in self.columns]), np.asarray(self.classes, dtype=np.int64)


def column_pools(code: np.ndarray, labels, class_names: list[str], folds: int) -> list[np.ndarray]:
    """Each code column's binary labels of the trials labelled ``labels``.  Raises ``ValueError`` for a
    column with every class on one side, or for a side of fewer than ``folds`` trials, naming its classes:
    band scoring and tuning split each side into ``folds`` stratified folds."""
    pools = [code[labels, j] for j in range(code.shape[1])]
    for j, y in enumerate(pools):
        if y.all() or not y.any():
            raise ValueError(f"code column {j} puts every class on one side (degenerate code matrix)")
        for side in (0, 1):
            count = int(np.sum(y == side))
            if count < folds:
                names = [class_names[c] for c in np.flatnonzero(code[:, j] == side)]
                raise ValueError(
                    f"code column {j} has {count} trials on side {side} (classes {', '.join(names)}), "
                    f"fewer than cv_folds {folds}"
                )
    return pools


def fit_ecoc(decomp: BandDecomposition, code: np.ndarray, config: PipelineConfig) -> EcocModel:
    """Train one column model per code-matrix column.

    For column ``j`` the trials of classes with bit 1 form the positive
    pool and the rest the negative pool; band selection, CSP fitting and
    forest tuning all run on that relabeled problem, with the settings of
    ``config`` and seeds derived from ``config.seed``.  Code row ``i``
    stands for label ``i`` of the decomposition.
    """
    labels = decomp.labels
    present = set(np.unique(labels))
    if present != set(range(len(code))):
        raise ValueError(f"expected all {len(code)} classes present, got labels {sorted(present)}")
    if len(code) != decomp.n_classes:
        raise ValueError("code matrix size does not match dataset classes")

    pools = column_pools(code, labels, decomp.class_names, config.cv_folds)
    columns = [fit_column(decomp, y, config, child_seed(config.seed, j)) for j, y in enumerate(pools)]
    return EcocModel(
        code=code,
        classes=list(range(len(code))),
        columns=columns,
        class_names=list(decomp.class_names),
        channel_names=list(decomp.channel_names),
        sample_rate=decomp.sample_rate,
        bands=list(decomp.bands),
        taps=decomp.taps,
    )


def _trial_features(model: EcocModel, trials: list[Trial], channel_names: list[str] | None) -> np.ndarray:
    """Every column's features of raw trials, side by side, ``(n_trials,
    sum of feature_dim)``, reading only the CSP projections the columns use.

    :func:`~fingerbci.dsp.row_variances` gives the variance of every kept
    filter row of the model (see :attr:`EcocModel._rows`), and one gather per
    block size takes the log ratios of each (column, band) block.  Equal up
    to rounding to :func:`_column_features` of the trials' decomposition.
    """
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
    bands, rows, row_bands, blocks = model._rows
    variances = row_variances(trials, model.sample_rate, bands, model.taps, rows, row_bands)
    features = np.empty_like(variances)
    for block in blocks:
        features[:, block] = log_ratios(variances[:, block])
    return features


def _vote(model: EcocModel, features: np.ndarray) -> np.ndarray:
    """Class index of each row of every column's features side by side.

    All trees of all columns descend together through the model's node
    table (see :attr:`EcocModel._trees`), each column's forest votes a bit
    by majority, and each codeword decodes to a class index.
    """
    table, classes = model._trees
    return classes[decode(model.code, majority(table, features))]


def predict_from_bands(model: EcocModel, covariances: np.ndarray) -> np.ndarray:
    """Decode class indices from a ``(n_bands, n_trials, C, C)`` stack of
    centred band covariances aligned with the model's bands."""
    return _vote(model, np.hstack([_column_features(c.selected_bands, c.filters, covariances) for c in model.columns]))


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
    return _vote(model, _trial_features(model, trials, channel_names))


def predict_ecoc(
    model: EcocModel,
    trial: Trial,
    *,
    channel_names: list[str] | None = None,
) -> int:
    """Predicted class index for a single raw trial (see :func:`predict_trials`)."""
    return int(predict_trials(model, [trial], channel_names=channel_names)[0])


# --- model bundle serialization -------------------------------------------


def _column_to_json(column: ColumnModel) -> dict:
    forest = column.forest
    return {
        "selected_bands": list(column.selected_bands),
        "filters": column.filters.tolist(),
        "forest": {
            "params": asdict(forest.params),
            "feature_dim": forest.feature_dim,
            "attribute": forest.attribute.tolist(),
            "cut": forest.cut.tolist(),
            "counts": forest.counts.ravel().tolist(),
        },
    }


def _to_json(value, indent: str = "") -> str:
    """JSON text with sorted keys and two-space indents, but each object or
    list whose values are all numbers or lists of numbers on one line."""
    inner = indent + "  "
    values = value.values() if type(value) is dict else value if type(value) is list else ()
    if all(isinstance(x, (int, float)) for v in values for x in (v if type(v) is list else (v,))):
        return json.dumps(value, sort_keys=True)
    if type(value) is dict:
        items, brackets = [f"{json.dumps(key)}: {_to_json(v, inner)}" for key, v in sorted(value.items())], "{}"
    else:
        items, brackets = [_to_json(v, inner) for v in value], "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def save_model(model: EcocModel, path: str | Path) -> None:
    """Write a model bundle directory (``model.json``)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "code": model.code.tolist(),
        "classes": list(model.classes),
        "columns": [_column_to_json(c) for c in model.columns],
        "class_names": list(model.class_names),
        "channel_names": list(model.channel_names),
        "sample_rate": model.sample_rate,
        "bands": [list(b) for b in model.bands],
        "taps": model.taps,
    }
    with replacing(directory / MODEL_NAME, "w") as fh:
        fh.write(_to_json(payload) + "\n")


def _require(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ValueError(f"model bundle field {name!r}: {message}")


def _entries(data: dict, name: str, kind: type) -> list:
    """``data[name]`` as read, refused by name unless it is a list of ``kind``."""
    values = data[name]
    _require(is_list_of(values, kind), name, f"must be a list of {kind.__name__}")
    return values


def _object(data: dict, name: str) -> dict:
    """``data[name]`` as read, refused by name unless it is a JSON object."""
    value = data[name]
    _require(type(value) is dict, name, "must be an object")
    return value


def _array(data: dict, name: str) -> np.ndarray:
    try:
        return np.array(data[name])
    except ValueError as exc:  # rows of unequal length
        raise ValueError(f"model bundle field {name!r}: {exc}") from None


def _check_trees(forest: dict, j: int, params: EtParams, feature_dim: int) -> EtForest:
    """Column ``j``'s ``forest`` object as an :class:`~fingerbci.extratrees.EtForest`, refused unless its
    level-order lists hold ``params.n_estimators`` binary trees reading ``feature_dim`` features; of several
    faults, the first of attribute, n_estimators, cut and counts is named."""
    values = forest["attribute"]
    _require(is_list_of(values, int) and min(values, default=-1) >= -1 and max(values, default=-1) < feature_dim,
             "attribute", f"column {j} has attributes that are not integers in [-1, {feature_dim})")
    attribute = np.array(values, dtype=np.int64)
    sizes = tree_sizes(attribute)
    _require(sizes.sum() == len(attribute), "attribute", f"column {j} has attributes that end inside a binary tree")
    _require(len(sizes) == params.n_estimators >= 1, "n_estimators",
             f"column {j} has {len(sizes)} trees for n_estimators {params.n_estimators}")
    cut, counts, inner = forest["cut"], forest["counts"], int(np.count_nonzero(attribute >= 0))
    _require(type(cut) is list and len(cut) == inner and all(map(is_finite_number, cut)), "cut",
             f"column {j} has not one finite numeric cut per internal node")
    _require(is_list_of(counts, int) and len(counts) == 2 * (len(attribute) - inner)
             and min(counts, default=0) >= 0 and max(counts, default=0) < 2**63,
             "counts", f"column {j} has not two integer counts in [0, 2**63) per leaf")
    cut, counts = np.array(cut, dtype=np.float64), np.array(counts, dtype=np.int64).reshape(-1, 2)
    return EtForest(attribute, cut, counts, params, feature_dim)


def _check_model(model: EcocModel) -> None:
    """Raise ``ValueError`` naming the first field outside the columns that cannot serve predictions.

    Values are checked as read, so a wrong type is reported, not converted.
    The columns are the objects of the bundle; :func:`_column_from_json` checks each.
    """
    try:
        check_code(model.code)
    except ValueError as exc:
        raise ValueError(f"model bundle field 'code': {exc}") from None
    for name in ("class_names", "channel_names"):
        names = getattr(model, name)
        _require(is_list_of(names, str), name, "must be a list of strings")
        _require(len(set(names)) == len(names), name, f"{describe(names)} repeats a name")
    _require(is_finite_number(model.sample_rate), "sample_rate", f"{describe(model.sample_rate)} is not a finite number")
    for band in model.bands:
        ok = len(band) == 2 and all(map(is_finite_number, band))
        _require(ok, "bands", f"{describe(list(band))} is not a (low, high) pair")
    try:
        check_bank(model.bands, model.sample_rate, model.taps)
    except BankError as exc:
        raise ValueError(f"model bundle field {exc.field!r}: {exc}") from None
    code, classes = model.code, model.classes
    _require(is_list_of(classes, int), "classes", f"{describe(classes)} is not a list of integers")
    _require(len(code) == len(classes), "classes", f"{len(classes)} entries for {len(code)} code rows")
    _require(
        len(set(classes)) == len(classes) and all(0 <= c < len(model.class_names) for c in classes),
        "classes", f"{classes} are not distinct indices into {len(model.class_names)} class_names",
    )
    _require(code.shape[1] == len(model.columns), "columns", f"{len(model.columns)} for {code.shape[1]} code columns")


def _column_from_json(data: dict, j: int, model: EcocModel) -> ColumnModel:
    """Column ``j`` of a bundle whose other fields ``model`` holds, refused naming the first field that
    cannot serve predictions."""
    bands = data["selected_bands"]
    _require(is_list_of(bands, int) and all(0 <= b < len(model.bands) for b in bands), "selected_bands",
             f"column {j} selects {bands} of {len(model.bands)} bands")
    filters, n_channels = _array(data, "filters"), len(model.channel_names)
    kept = filters.shape[1] if filters.ndim == 3 else 0
    # Entries of at most 1e100 keep the variance of any finite float32 trial's projection inside float64's range.
    _require(kept >= 2 and kept % 2 == 0 and filters.dtype == np.float64
             and filters.shape == (len(bands), kept, n_channels) and bool((abs(filters) <= 1e100).all()), "filters",
             f"column {j} has {filters.dtype} CSP filters of shape {filters.shape}, not floats in [-1e100, 1e100] "
             f"of shape ({len(bands)}, 2m, {n_channels}) with m >= 1")
    forest = _object(data, "forest")
    params = EtParams(**{f.name: _object(forest, "params")[f.name] for f in fields(EtParams)})
    feature_dim, expected_dim = forest["feature_dim"], kept * len(bands)
    _require(type(feature_dim) is int and feature_dim == expected_dim, "feature_dim",
             f"column {j} reads {feature_dim!r} features, its bands give {expected_dim}")
    for name, value in asdict(params).items():
        _require(type(value) is int, name, f"column {j} has a forest with {name} {value!r}, not an integer")
    return ColumnModel(bands, filters, _check_trees(forest, j, params, feature_dim))


def load_model(path: str | Path) -> EcocModel:
    """Read and check a model bundle written by :func:`save_model`."""
    bundle = Path(path) / MODEL_NAME
    if not bundle.is_file():
        raise FileNotFoundError(f"missing {bundle}")
    try:
        with open(bundle, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ValueError(f"model bundle {bundle} is not JSON text: {exc}") from None
    if type(data) is not dict:
        raise ValueError(f"model bundle {bundle} is not a JSON object")
    try:
        version = data["format_version"]
        _require(type(version) is int and version == FORMAT_VERSION, "format_version",
                 f"{version!r} is not {FORMAT_VERSION}; retrain the model")
        bits = _array(data, "code")
        _require(bits.ndim == 2, "code", "must be a list of rows")
        model = EcocModel(
            code=bits,
            classes=data["classes"],
            columns=_entries(data, "columns", dict),  # the objects as read until the other fields are checked
            class_names=data["class_names"],
            channel_names=data["channel_names"],
            sample_rate=data["sample_rate"],
            bands=[tuple(b) for b in _entries(data, "bands", list)],
            taps=data["taps"],
        )
        _check_model(model)
        model.columns = [_column_from_json(column, j, model) for j, column in enumerate(model.columns)]
    except KeyError as exc:
        raise ValueError(f"model bundle {bundle} lacks field {exc}") from None
    return model
