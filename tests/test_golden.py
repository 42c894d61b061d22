"""The decoder's decisions on fixed workloads equal the pinned record (see golden_decisions)."""

import copy
import time

import pytest

from fingerbci import dsp, make_bank
from golden_decisions import first_difference, load, record


@pytest.fixture(scope="module")
def decisions():
    start = time.perf_counter()
    actual = record()
    return actual, time.perf_counter() - start


def test_decisions_equal_the_record(decisions):
    actual, elapsed = decisions
    difference = first_difference(load(), actual)
    assert difference is None, f"{difference} (regenerate with tests/golden_decisions.py only if meant)"
    assert elapsed < 10.0, f"recording took {elapsed:.1f}s"


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda r: r["wide"]["columns"][3]["band_scores"].__setitem__(5, 0.5), "workload 'wide', column 3, field 'band_scores'"),
        (lambda r: r["tune"]["columns"][1]["tuned_params"].__setitem__(2, 7), "workload 'tune', column 1, field 'tuned_params'"),
        (lambda r: r["tune"]["predictions"].__setitem__(0, 9), "workload 'tune', field 'predictions'"),
        (lambda r: r["repetition"]["columns"].pop(), "workload 'repetition': 6 columns, expected 7"),
    ],
)
def test_first_difference_names_what_moved(edit, named):
    expected = load()
    moved = copy.deepcopy(expected)
    edit(moved)
    assert first_difference(expected, expected) is None
    assert first_difference(expected, moved).startswith(named)


def test_smaller_weight_cutoff_selects_the_same_bands(decisions, monkeypatch):
    # A cutoff 1,000 times smaller widens every band's support by bins of less than 1e-6 of its peak weight;
    # no column of the three workloads selects other bands.
    bank = make_bank(5.0, 39.0, 2.0)
    support = len(dsp._band_weights(tuple(bank.bands[:1]), 512.0, bank.taps, 1024)[0])
    monkeypatch.setattr(dsp, "WEIGHT_CUTOFF", dsp.WEIGHT_CUTOFF / 1000)
    dsp._band_weights.cache_clear()
    try:
        assert len(dsp._band_weights(tuple(bank.bands[:1]), 512.0, bank.taps, 1024)[0]) > support
        wider = record()
    finally:
        dsp._band_weights.cache_clear()
    actual, _ = decisions
    for name, workload in actual.items():
        selected = [column["selected_bands"] for column in workload["columns"]]
        assert [column["selected_bands"] for column in wider[name]["columns"]] == selected, name
