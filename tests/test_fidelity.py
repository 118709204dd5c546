"""Property and unit tests for the statistical fidelity metrics.

The hypothesis suite pins the mathematical contracts of
:mod:`repro.metrics.fidelity` — bounds, identity cases, the affine
invariance of the IQR-normalized error — and the explicit ValueError
behaviour on malformed inputs (shape mismatch, empty arrays, NaN/inf).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import fidelity
from repro.metrics.fidelity import (
    ExactSide,
    fidelity_panel,
    fidelity_summary,
    iqr_normalized_errors,
    ks_statistic,
    pearson_correlation,
)
from repro.obs.metrics import measure_peak_mib

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def arrays(min_size=1, max_size=64):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=finite_floats,
    )


def array_pairs(min_size=1, max_size=64):
    """Two same-shaped finite arrays."""
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            hnp.arrays(dtype=np.float64, shape=n, elements=finite_floats),
            hnp.arrays(dtype=np.float64, shape=n, elements=finite_floats),
        )
    )


# --------------------------------------------------------------------- #
# bounds


@settings(max_examples=200, deadline=None)
@given(array_pairs())
def test_pearson_bounded(pair):
    exact, approx = pair
    r = pearson_correlation(exact, approx)
    assert -1.0 <= r <= 1.0


@settings(max_examples=200, deadline=None)
@given(array_pairs())
def test_ks_bounded(pair):
    exact, approx = pair
    ks = ks_statistic(exact, approx)
    assert 0.0 <= ks <= 1.0


@settings(max_examples=200, deadline=None)
@given(array_pairs())
def test_iqr_errors_nonnegative_and_ordered(pair):
    exact, approx = pair
    mean_err, max_err = iqr_normalized_errors(exact, approx)
    assert mean_err >= 0.0
    assert max_err >= mean_err
    assert np.isfinite(mean_err) and np.isfinite(max_err)


# --------------------------------------------------------------------- #
# identity: exact == approx


@settings(max_examples=100, deadline=None)
@given(arrays())
def test_identical_arrays_are_perfect(exact):
    assert pearson_correlation(exact, exact) == 1.0
    assert ks_statistic(exact, exact) == 0.0
    assert iqr_normalized_errors(exact, exact) == (0.0, 0.0)
    panel = fidelity_panel(exact, exact)
    assert panel == {"pearson": 1.0, "ks": 0.0, "iqr_mean": 0.0, "iqr_max": 0.0}


# --------------------------------------------------------------------- #
# invariance of the IQR-normalized error under affine maps of both sides


@settings(max_examples=100, deadline=None)
@given(
    array_pairs(min_size=4),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
def test_iqr_error_affine_invariant(pair, a, b):
    exact, approx = pair
    # needs a non-degenerate IQR so the normalizer doesn't switch branches
    if np.percentile(exact, 75) - np.percentile(exact, 25) <= 1e-6:
        return
    base = iqr_normalized_errors(exact, approx)
    mapped = iqr_normalized_errors(a * exact + b, a * approx + b)
    assert mapped[0] == pytest.approx(base[0], rel=1e-9, abs=1e-12)
    assert mapped[1] == pytest.approx(base[1], rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(arrays(min_size=2), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@example(exact=np.array([1.81256273e-28, 0.0]), shift=1.0)
@example(exact=np.array([0.0] + [2.0**-149] * 16), shift=482.67312317560845)
@example(exact=np.array([10320 * 2.0**-149] + [0.0] * 24), shift=164.2158635472474)
def test_pearson_shift_invariant(exact, shift):
    shifted = exact + shift
    r = pearson_correlation(exact, shifted)
    if np.ptp(shifted) == 0.0:
        # A constant shifted field — exact was constant, or the shift swamped
        # its variation in float64 ([1.8e-28, 0] + 1.0 == [1.0, 1.0]): the
        # constant-field convention, see below.
        assert r == (1.0 if np.array_equal(exact, shifted) else 0.0)
        return
    # Near-swamped variation is mostly rounding noise and does not stay
    # correlated (e.g. [0, 1e-16, 2e-16, 3e-16] vs itself + 1.0 gives 0.63).
    assume(np.ptp(exact) > 1e-9 * (abs(shift) + np.abs(exact).max()))
    assert r == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------- #
# constant-field conventions


def test_constant_fields_equal():
    const = np.full(32, 3.5)
    assert pearson_correlation(const, const.copy()) == 1.0
    assert ks_statistic(const, const.copy()) == 0.0
    assert iqr_normalized_errors(const, const.copy()) == (0.0, 0.0)


def test_constant_field_whose_mean_misses_it():
    # the float mean of three equal values lands an ulp off them, which
    # leaves a constant deviation that must not "correlate" with the exact
    # side's one-ulp variation
    exact = [-580.0079899765511, -580.0079899765511, -580.007989976551]
    approx = [736.0761912583978] * 3
    assert np.mean(approx) != approx[0]
    assert pearson_correlation(exact, approx) == 0.0


@pytest.mark.parametrize("scale", [1e-80, 1e-100])
def test_pearson_tiny_fields_whose_product_of_squares_underflows(scale):
    # each sum of squares is a normal float, their product is subnormal
    # (1e-80) or zero (1e-100)
    exact = np.array([0.0, 1.0, 3.0]) * scale
    assert pearson_correlation(exact, 2 * exact) == 1.0
    assert pearson_correlation(exact, -exact) == -1.0


def test_constant_fields_differ():
    exact = np.full(32, 3.5)
    approx = np.full(32, 4.0)
    # no variance on either side: correlation is undefined, reported as 0
    assert pearson_correlation(exact, approx) == 0.0
    # disjoint point masses: maximal distribution distance
    assert ks_statistic(exact, approx) == 1.0
    # IQR and range are both zero; the scale falls back to max(|value|, 1)
    mean_err, max_err = iqr_normalized_errors(exact, approx)
    assert mean_err == pytest.approx(0.5 / 3.5)
    assert max_err == pytest.approx(0.5 / 3.5)


def test_zero_constant_fallback_scale_is_one():
    exact = np.zeros(8)
    approx = np.full(8, 0.25)
    mean_err, _ = iqr_normalized_errors(exact, approx)
    assert mean_err == pytest.approx(0.25)


# --------------------------------------------------------------------- #
# known-value sanity


def test_pearson_perfect_anticorrelation():
    x = np.arange(16.0)
    assert pearson_correlation(x, -x) == pytest.approx(-1.0)


def test_ks_disjoint_supports():
    a = np.arange(16.0)
    b = np.arange(16.0) + 100.0
    assert ks_statistic(a, b) == 1.0


def test_ks_matches_half_overlap():
    # [0,1] vs [0.5, 1.5] uniform grids: KS = 0.5 at the support edge
    a = np.linspace(0.0, 1.0, 101)
    b = np.linspace(0.5, 1.5, 101)
    assert ks_statistic(a, b) == pytest.approx(0.5, abs=0.02)


# --------------------------------------------------------------------- #
# error handling


@pytest.mark.parametrize(
    "fn",
    [pearson_correlation, ks_statistic, iqr_normalized_errors, fidelity_panel],
)
def test_shape_mismatch_raises(fn):
    with pytest.raises(ValueError, match="shape"):
        fn(np.zeros(4), np.zeros(5))


@pytest.mark.parametrize(
    "fn",
    [pearson_correlation, ks_statistic, iqr_normalized_errors, fidelity_panel],
)
def test_empty_raises(fn):
    with pytest.raises(ValueError, match="empty"):
        fn(np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "fn",
    [pearson_correlation, ks_statistic, iqr_normalized_errors, fidelity_panel],
)
def test_non_finite_raises(fn, bad):
    good = np.ones(4)
    poisoned = good.copy()
    poisoned[2] = bad
    with pytest.raises(ValueError, match="finite"):
        fn(poisoned, good)
    with pytest.raises(ValueError, match="finite"):
        fn(good, poisoned)


def test_multidimensional_inputs_are_flattened():
    exact = np.arange(24.0).reshape(2, 3, 4)
    assert pearson_correlation(exact, exact) == 1.0
    assert fidelity_panel(exact, exact)["ks"] == 0.0


# --------------------------------------------------------------------- #
# fidelity_summary (worst case over regions)


def test_summary_worst_case_over_regions():
    rng = np.random.default_rng(7)
    clean = rng.normal(size=256)
    noisy = clean + rng.normal(scale=0.5, size=256)
    exact = {"a": clean, "b": clean}
    approx = {"a": clean.copy(), "b": noisy}
    summary = fidelity_summary(exact, approx)
    panel_b = fidelity_panel(clean, noisy)
    assert summary["fidelity_pearson"] == panel_b["pearson"]
    assert summary["fidelity_ks"] == panel_b["ks"]
    assert summary["fidelity_iqr_mean"] == panel_b["iqr_mean"]
    assert summary["fidelity_iqr_max"] == panel_b["iqr_max"]


def test_summary_key_mismatch_raises():
    with pytest.raises(ValueError):
        fidelity_summary({"a": np.ones(4)}, {"b": np.ones(4)})


def test_summary_empty_raises():
    with pytest.raises(ValueError):
        fidelity_summary({}, {})


# --------------------------------------------------------------------- #
# Pearson at extreme magnitudes (products overflow or underflow)

HUGE = np.array([1e160, 2e160, 3e160, 5e160])
TINY = np.array([1e-170, 2e-170, 3e-170, 5e-170])


def test_pearson_survives_overflowing_products():
    assert pearson_correlation(HUGE, HUGE) == 1.0
    assert pearson_correlation(HUGE, -HUGE) == -1.0


def test_pearson_survives_underflowing_products():
    assert pearson_correlation(TINY, 2 * TINY) == 1.0
    assert pearson_correlation(TINY, -TINY) == -1.0
    # a constant field stays degenerate after rescaling
    assert pearson_correlation(np.full(4, 1e-170), TINY) == 0.0


@pytest.mark.parametrize("magnitude", [1e160, 1e-170])
def test_pearson_at_extreme_scale_matches_unit_scale(magnitude):
    rng = np.random.default_rng(3)
    exact = rng.normal(size=64)
    approx = exact + rng.normal(scale=0.3, size=64)
    exact /= np.abs(exact).max()
    approx /= np.abs(approx).max()
    assert pearson_correlation(exact * magnitude, approx * magnitude) == pytest.approx(
        pearson_correlation(exact, approx), rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(array_pairs(min_size=2))
def test_pearson_in_range_is_the_direct_formula(pair):
    exact, approx = pair
    exact_dev = exact - exact.mean()
    approx_dev = approx - approx.mean()
    denom = float(np.sqrt(np.dot(exact_dev, exact_dev) * np.dot(approx_dev, approx_dev)))
    if denom == 0.0:
        return
    direct = float(np.clip(float(np.dot(exact_dev, approx_dev)) / denom, -1.0, 1.0))
    assert pearson_correlation(exact, approx) == direct


def test_summary_worst_pearson_is_order_independent():
    rng = np.random.default_rng(11)
    clean = rng.normal(size=128)
    noisy = clean + rng.normal(scale=0.5, size=128)
    exact = {"huge": HUGE, "field": clean}
    approx = {"huge": -HUGE, "field": noisy}
    forward = fidelity_summary(exact, approx)
    backward = fidelity_summary(dict(reversed(list(exact.items()))), approx)
    assert forward == backward
    assert forward["fidelity_pearson"] == -1.0


# --------------------------------------------------------------------- #
# the undamaged-pair shortcut


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_equal_pair_panel_equals_the_full_computation(dtype):
    rng = np.random.default_rng(5)
    for trial in range(150):
        magnitude = 10.0 ** rng.uniform(-30, 30)
        size = int(rng.integers(1, 300))
        if trial % 3 == 0:
            exact = np.full(size, magnitude)
        else:
            exact = rng.normal(scale=magnitude, size=size)
        exact = exact.astype(dtype)
        approx = exact.copy()
        mean_err, max_err = iqr_normalized_errors(exact, approx)
        full = {"pearson": pearson_correlation(exact, approx),
                "ks": ks_statistic(exact, approx),
                "iqr_mean": mean_err, "iqr_max": max_err}
        assert fidelity_panel(exact, approx) == full


def test_equal_pair_panel_skips_the_sorts(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("an undamaged pair must not be sorted")

    monkeypatch.setattr(np, "sort", no_sort)
    exact = np.linspace(-3.0, 7.0, 1000)
    assert fidelity_panel(exact, exact.copy()) == {
        "pearson": 1.0, "ks": 0.0, "iqr_mean": 0.0, "iqr_max": 0.0}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_equal_non_finite_pair_still_raises(bad):
    poisoned = np.ones(4)
    poisoned[1] = bad
    with pytest.raises(ValueError, match="finite"):
        fidelity_panel(poisoned, poisoned.copy())


# --------------------------------------------------------------------- #
# reference oracles: the one-sort KS and the held exact side


def _ks_oracle(exact, approx) -> float:
    """The KS formula the one-sort version replaced: both CDFs probed at
    every value of both samples, four ``searchsorted`` passes of 2n."""
    exact_sorted = np.sort(np.asarray(exact, dtype=np.float64).reshape(-1))
    approx_sorted = np.sort(np.asarray(approx, dtype=np.float64).reshape(-1))
    probe = np.concatenate([exact_sorted, approx_sorted])
    cdf_exact = np.searchsorted(exact_sorted, probe, side="right") / exact_sorted.size
    cdf_approx = np.searchsorted(approx_sorted, probe, side="right") / approx_sorted.size
    return float(np.max(np.abs(cdf_exact - cdf_approx)))


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def dtype(request: pytest.FixtureRequest) -> type:
    """Both element types the simulator's regions hold."""
    return request.param


#: a few values drawn often, so samples tie within and across each other;
#: -0.0 and 0.0 compare equal
tied_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.5, 2.0**-20, 3e4]), finite_floats
)


def tied_pairs(dtype, max_size=64):
    """Two same-sized samples of ``dtype``, size 1 included, with ties."""
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            hnp.arrays(dtype=dtype, shape=n, elements=tied_floats),
            hnp.arrays(dtype=dtype, shape=n, elements=tied_floats),
        )
    )


@pytest.fixture(scope="module", params=[3, fidelity._GAP_SLICE], ids=["slice3", "default"])
def gap_slice(request: pytest.FixtureRequest) -> int:
    """Probe values per CDF-gap pass: tiny, and the default."""
    return request.param


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ks_equals_the_four_searchsorted_oracle(dtype, gap_slice, data):
    exact, approx = data.draw(tied_pairs(dtype))
    expected = _ks_oracle(exact, approx)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "_GAP_SLICE", gap_slice)
        assert ks_statistic(exact, approx) == expected
        assert ks_statistic(approx, exact) == _ks_oracle(approx, exact)
        assert fidelity_panel(exact, approx)["ks"] == expected


def test_ks_signed_zeros_tie(dtype):
    exact = np.array([-0.0, 0.0, 1.0], dtype)
    assert ks_statistic(exact, np.array([0.0, 0.0, 1.0], dtype)) == 0.0
    approx = np.array([0.0, 1.0, 1.0], dtype)
    assert ks_statistic(exact, approx) == _ks_oracle(exact, approx) == 1 / 3


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_panel_against_a_held_side_equals_a_fresh_panel(dtype, data):
    exact, first = data.draw(tied_pairs(dtype))
    second = data.draw(hnp.arrays(dtype=dtype, shape=exact.shape, elements=tied_floats))
    side = ExactSide(exact)
    for approx in (exact.copy(), first, second, first):
        fresh = fidelity_panel(exact, approx)
        held = fidelity_summary({"r": exact}, {"r": approx}, {"r": side})
        assert held == {f"fidelity_{key}": value for key, value in fresh.items()}
        assert fresh["ks"] == _ks_oracle(exact, approx)


def test_exact_side_is_sorted_once_on_the_first_damaged_pair(monkeypatch):
    sorted_sizes = []
    real_sort = np.sort

    def counting_sort(array, *args, **kwargs):
        sorted_sizes.append(array.size)
        return real_sort(array, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    exact = np.linspace(-3.0, 7.0, 1000)
    side = ExactSide(exact)
    fidelity_summary({"r": exact}, {"r": exact.copy()}, {"r": side})
    assert sorted_sizes == []  # an undamaged pair builds nothing
    for noise in (1e-3, 2e-3):
        fidelity_summary({"r": exact}, {"r": exact + noise}, {"r": side})
    # the exact side once, then each damaged copy
    assert sorted_sizes == [1000, 1000, 1000]


def test_summary_rejects_a_held_side_of_another_array():
    exact = np.arange(8.0)
    side = ExactSide(exact.copy())
    with pytest.raises(ValueError, match="another array"):
        fidelity_summary({"r": exact}, {"r": exact + 1.0}, {"r": side})
    # a region without a held side gets a fresh one
    assert fidelity_summary({"r": exact}, {"r": exact + 1.0}, {})["fidelity_ks"] == 0.125


def _megapair() -> tuple[np.ndarray, np.ndarray, float]:
    """A noisy 1M-element float32 pair and one float64 copy's size in MiB."""
    rng = np.random.default_rng(2019)
    n = 1 << 20
    exact = rng.normal(size=n).astype(np.float32)
    approx = exact + rng.normal(scale=0.01, size=n).astype(np.float32)
    return exact, approx, n * 8 / (1024.0 * 1024.0)


def test_panel_temporaries_are_a_few_float64_copies():
    """Validation converts both sides to float64 (two copies); the panel
    adds at most a sorted approx side and its step CDF on a held exact side,
    and the exact side's sort on a fresh one.  The four-searchsorted KS
    peaked at 14 copies (113 MiB on this pair)."""
    exact, approx, copy_mib = _megapair()
    side = ExactSide(exact)
    _, fresh_mib = measure_peak_mib(
        fidelity_summary, {"r": exact}, {"r": approx}, {"r": side}
    )
    _, held_mib = measure_peak_mib(
        fidelity_summary, {"r": exact}, {"r": approx}, {"r": side}
    )
    assert held_mib < 6 * copy_mib
    assert fresh_mib < 8 * copy_mib


# --------------------------------------------------------------------- #
# KS from the changed elements, and the held Pearson moments


def damaged_pairs(dtype, max_size=64):
    """An exact sample with ties and a copy changed at some positions: new
    values, a permutation of the changed ones (their CDF is unchanged), one
    change, or every element."""
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            hnp.arrays(dtype=dtype, shape=n, elements=tied_floats),
            st.sampled_from(["replace", "permute", "one", "all"]),
            st.lists(st.integers(0, n - 1), unique=True, max_size=n),
            hnp.arrays(dtype=dtype, shape=n, elements=tied_floats),
            st.randoms(use_true_random=False),
        )
    ).map(_damage)


def _damage(drawn):
    exact, kind, positions, values, rng = drawn
    approx = exact.copy()
    if kind == "one":
        positions = positions[:1] or [0]
    elif kind == "all":
        positions = list(range(exact.size))
    positions = np.asarray(positions, dtype=np.int64)
    if kind == "permute":
        shuffled = list(positions)
        rng.shuffle(shuffled)
        approx[positions] = exact[shuffled]
    else:
        approx[positions] = values[positions]
    return exact, approx


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_ks_from_the_changes_equals_the_one_sort_and_four_pass_oracles(dtype, data):
    exact, approx = data.draw(damaged_pairs(dtype))
    side = ExactSide(exact)
    exact_arr, approx_arr = side.validated(approx)
    changed = exact_arr != approx_arr
    expected = _ks_oracle(exact, approx)
    values, counts, _ = side.stats(exact_arr)
    # the sparse formula itself, whatever share of the elements changed
    sparse = fidelity._ks_from_changes(
        values, counts, np.sort(exact_arr[changed]), np.sort(approx_arr[changed]),
        exact_arr.size,
    )
    assert sparse == side.ks(exact_arr, approx_arr) == expected
    assert side.ks(exact_arr, approx_arr, changed) == expected
    assert fidelity_panel(exact, approx)["ks"] == expected


def test_ks_of_a_permutation_or_a_signed_zero_swap_is_zero(dtype):
    exact = np.array([3.0, -0.0, 1.0, 0.0, 2.0, 5.0], dtype)
    permuted = exact.copy()
    permuted[[0, 2, 4]] = exact[[4, 0, 2]]
    swapped = exact.copy()
    swapped[[1, 3]] = exact[[3, 1]]
    for approx in (permuted, swapped):
        assert fidelity_panel(exact, approx)["ks"] == 0.0 == _ks_oracle(exact, approx)


def test_the_panel_chooses_the_ks_path_by_the_changed_count(monkeypatch):
    rng = np.random.default_rng(9)
    exact = rng.normal(size=1000)
    sorted_sizes = []
    real_sort = np.sort

    def counting_sort(array, *args, **kwargs):
        sorted_sizes.append(array.size)
        return real_sort(array, *args, **kwargs)

    side = ExactSide(exact)
    side.stats(side.validated(exact)[0])  # the held side is built
    monkeypatch.setattr(np, "sort", counting_sort)
    for changed, sorts in ((400, [400, 400]), (401, [1000])):
        approx = exact.copy()
        approx[:changed] += 1.0
        expected = _ks_oracle(exact, approx)
        sorted_sizes.clear()
        held = fidelity_summary({"r": exact}, {"r": approx}, {"r": side})
        assert sorted_sizes == sorts
        assert held["fidelity_ks"] == expected


def test_a_held_side_runs_two_dot_products_per_damaged_pair(monkeypatch):
    """Two sums of products per damaged pair against a held side; above
    OpenBLAS's threading cutoff each sum is two half-length dot products."""
    real_sum, real_dot = fidelity._sum_of_products, np.dot
    for size, dots_per_sum in ((512, 1), (20_480, 2)):
        rng = np.random.default_rng(4)
        exact = rng.normal(size=size)
        side = ExactSide(exact)
        first = exact + rng.normal(scale=0.1, size=size)
        second = exact.copy()
        second[::7] = 0.0
        fidelity_summary({"r": exact}, {"r": first}, {"r": side})
        exact_arr = side.validated(exact)[0]
        deviations = exact_arr - exact_arr.mean()
        assert side.moments(exact_arr) == (
            False, float(exact_arr.mean()), real_sum(deviations, deviations)
        )
        sums, dots = [], []

        def counting_sum(x, y):
            sums.append(x.size)
            return real_sum(x, y)

        def counting_dot(x, y):
            dots.append(x.size)
            return real_dot(x, y)

        monkeypatch.setattr(fidelity, "_sum_of_products", counting_sum)
        monkeypatch.setattr(np, "dot", counting_dot)
        held = fidelity_summary({"r": exact}, {"r": second}, {"r": side})
        monkeypatch.undo()
        assert sums == [size, size]
        assert dots == [size // dots_per_sum] * (2 * dots_per_sum)
        assert held["fidelity_pearson"] == pearson_correlation(exact, second)


# --------------------------------------------------------------------- #
# sums of products: OpenBLAS's two-thread ddot, on one thread


def test_a_sum_of_products_splits_above_the_threading_cutoff(monkeypatch):
    rng = np.random.default_rng(12)
    for size in (1, 9_999, 10_000):
        x, y = rng.normal(size=size), rng.normal(size=size)
        assert fidelity._sum_of_products(x, y) == float(np.dot(x, y))
    for size in (10_001, 20_001, 65_536):
        x, y = rng.normal(size=size), rng.normal(size=size)
        half = (size + 1) // 2  # the first half is the longer one
        assert fidelity._sum_of_products(x, y) == (
            (0.0 + float(np.dot(x[:half], y[:half]))) + float(np.dot(x[half:], y[half:]))
        )
    # the first half is added to +0.0, as OpenBLAS adds its partial sums
    monkeypatch.setattr(np, "dot", lambda x, y: -0.0)
    assert str(fidelity._sum_of_products(x, y)) == "0.0"


#: a child interpreter's Pearson and panel bits for one damaged pair whose
#: halves are both above OpenBLAS's threading cutoff
THREADS_CHILD = """
import numpy as np
from repro.metrics.fidelity import fidelity_summary, pearson_correlation
rng = np.random.default_rng(2019)
exact = rng.normal(size=60_000)
approx = exact.copy()
approx[::4] += rng.normal(scale=0.05, size=approx[::4].size)
summary = fidelity_summary({"r": exact}, {"r": approx})
print(pearson_correlation(exact, approx).hex(), *(v.hex() for v in summary.values()))
"""

#: a child interpreter that compares threaded ``np.dot`` sums (taken before
#: anything pins the BLAS) with the one-thread split
TWO_THREAD_CHILD = """
import numpy as np
rng = np.random.default_rng(5)
pairs = [rng.normal(size=(2, n)) for n in rng.integers(10_001, 200_000, 40)]
threaded = [float(np.dot(x, y)) for x, y in pairs]
from repro.metrics.fidelity import _sum_of_products
print(sum(_sum_of_products(x, y) == dot for (x, y), dot in zip(pairs, threaded)))
"""


def _child_stdout(code: str, threads: int) -> str:
    src = str(Path(fidelity.__file__).resolve().parents[2])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pearson_bits_do_not_depend_on_the_blas_thread_count():
    outputs = {threads: _child_stdout(THREADS_CHILD, threads) for threads in (1, 2, 4)}
    assert len(set(outputs.values())) == 1, outputs


#: CPUs this process may run on; OpenBLAS starts no more threads than that
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
def test_the_split_sum_is_openblas_two_thread_ddot():
    assert _child_stdout(TWO_THREAD_CHILD, 2) == "40\n"
