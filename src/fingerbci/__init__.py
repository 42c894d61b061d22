"""Finger-movement EEG decoding toolkit.

Pipeline: 2 Hz filter-bank decomposition -> CSP spatial filtering ->
LDA-scored band selection -> extra-trees binary classification ->
exhaustive-code ECOC multiclass decoding, plus a synthetic EEG generator
and a repeated-holdout evaluation harness.
"""

from .bandselect import BandScore, SelectionResult, score_bands, select_bands
from .config import PipelineConfig
from .csp import CspModel, log_variance_features
from .dsp import (
    BandDecomposition,
    FilterBank,
    FirFilter,
    apply_filter,
    band_covariances,
    decompose,
    default_bank,
    design_bandpass,
    make_bank,
)
from .ecoc import (
    PAIR_CODE,
    CodeMatrix,
    EcocModel,
    decode,
    exhaustive_code,
    fit_ecoc,
    hamming,
    load_model,
    predict_ecoc,
    predict_trials,
    save_model,
)
from .evaluation import RunReport, accuracy, cohen_kappa, confusion_matrix, repeated_holdout
from .extratrees import EtForest, EtNode, EtParams
from .synthgen import SynthConfig, generate
from .trialstore import (
    Dataset,
    SplitIndices,
    Trial,
    load_dataset,
    save_dataset,
    stratified_split,
    subset_classes,
)

__version__ = "0.1.0"
