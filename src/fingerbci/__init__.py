"""Finger-movement EEG decoding toolkit.

Pipeline: 2 Hz filter-bank decomposition -> CSP spatial filtering ->
LDA-scored band selection -> extra-trees binary classification ->
exhaustive-code ECOC multiclass decoding, plus a synthetic EEG generator
and a repeated-holdout evaluation harness.
"""

from .bandselect import SelectionResult, select_bands
from .config import PipelineConfig
from .dsp import BandDecomposition, FilterBank, band_covariances, decompose, design_bandpass, make_bank
from .ecoc import (
    PAIR_CODE,
    EcocModel,
    check_code,
    decode,
    exhaustive_code,
    fit_ecoc,
    load_model,
    predict_ecoc,
    predict_trials,
    save_model,
)
from .evaluation import accuracy, cohen_kappa, confusion_matrix, repeated_holdout
from .extratrees import EtForest, EtParams
from .synthgen import SynthConfig, generate
from .trialstore import Dataset, Trial, load_dataset, save_dataset, stratified_split, subset_classes

__version__ = "0.1.0"
