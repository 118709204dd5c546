"""Statistical fidelity metrics for lossy-compressed data.

The paper judges each benchmark by one application-specific error number
(Table III).  Real users of lossy compression — the science-data community
in particular — additionally judge the *data itself* with distribution- and
correlation-level statistics; this module provides the three the enstools
compression suite standardizes on, fully vectorized:

* **Pearson correlation** between the exact and degraded values — linear
  association, 1.0 for undamaged data.
* **Two-sample Kolmogorov–Smirnov statistic** — the maximum distance
  between the two empirical CDFs, 0.0 for identical value distributions.
* **IQR-normalized error** — per-element absolute error normalized by the
  interquartile range of the exact data (a robust scale, insensitive to
  outliers), reported as mean and max.

All functions accept array-likes of any shape (values are compared
element-wise / as flattened samples), raise ``ValueError`` on empty inputs,
shape mismatches and non-finite values, and are deterministic — the golden
suite pins them bit-exactly through the simulator.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = [
    "pearson_correlation",
    "ks_statistic",
    "iqr_normalized_errors",
    "fidelity_panel",
    "fidelity_summary",
]


def _validated(exact, approx) -> tuple[np.ndarray, np.ndarray]:
    """Common validation: matching shapes, non-empty, all-finite float64."""
    exact_arr = np.asarray(exact, dtype=np.float64)
    approx_arr = np.asarray(approx, dtype=np.float64)
    if exact_arr.shape != approx_arr.shape:
        raise ValueError(
            f"shape mismatch between exact {exact_arr.shape} and "
            f"approx {approx_arr.shape}"
        )
    if exact_arr.size == 0:
        raise ValueError("fidelity metrics are undefined for empty arrays")
    if not np.all(np.isfinite(exact_arr)):
        raise ValueError("exact array contains non-finite values")
    if not np.all(np.isfinite(approx_arr)):
        raise ValueError("approx array contains non-finite values")
    return exact_arr.reshape(-1), approx_arr.reshape(-1)


#: smallest positive normal float64; a variance sum below it has lost
#: precision to underflow
_TINY = float(np.finfo(np.float64).tiny)


def _unit_peak(arr: np.ndarray) -> np.ndarray:
    """``arr`` divided by its largest magnitude (unchanged if all zero)."""
    peak = float(np.max(np.abs(arr)))
    return arr / peak if peak > 0.0 else arr


def _centered(
    exact_vals: np.ndarray, approx_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Deviations, the smallest of the sums of squares and their product,
    and the Pearson denominator.

    The denominator is non-finite when the squares overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exact_dev = exact_vals - exact_vals.mean()
        approx_dev = approx_vals - approx_vals.mean()
        exact_ss = float(np.dot(exact_dev, exact_dev))
        approx_ss = float(np.dot(approx_dev, approx_dev))
        product = exact_ss * approx_ss
        denom = float(np.sqrt(product))
    return exact_dev, approx_dev, min(exact_ss, approx_ss, product), denom


def _pearson(exact_arr: np.ndarray, approx_arr: np.ndarray) -> float:
    """Pearson correlation of two validated flat float64 arrays."""
    if np.ptp(exact_arr) == 0.0 or np.ptp(approx_arr) == 0.0:
        # A constant field takes the convention before centring: its float
        # mean can miss its value by an ulp and leave a constant deviation
        # that would "correlate" with the other side.
        return 1.0 if np.array_equal(exact_arr, approx_arr) else 0.0
    exact_dev, approx_dev, smallest, denom = _centered(exact_arr, approx_arr)
    if not (np.isfinite(denom) and smallest >= _TINY):
        # The squares or their product overflowed or underflowed.
        # Correlation is invariant under positive scaling of either array,
        # so recompute at unit peak, where non-constant data has normal,
        # finite sums; data that never gets here stays bit-identical to
        # the direct formula.
        exact_dev, approx_dev, _, denom = _centered(
            _unit_peak(exact_arr), _unit_peak(approx_arr)
        )
    corr = float(np.dot(exact_dev, approx_dev)) / denom
    return float(np.clip(corr, -1.0, 1.0))


def pearson_correlation(exact, approx) -> float:
    """Pearson correlation coefficient between exact and approx values.

    Bounded to [-1, 1].  A constant field has no variance to correlate, so
    the convention for degenerate inputs is: 1.0 when the arrays are
    element-wise identical (undamaged data is perfectly faithful no matter
    its shape), 0.0 otherwise.  Magnitudes whose products overflow
    (~1e155 and up) or underflow (~1e-155 and down) are rescaled first, so
    they correlate like the same data at unit scale.
    """
    return _pearson(*_validated(exact, approx))


def _ks(exact_arr: np.ndarray, approx_arr: np.ndarray) -> float:
    """KS statistic of two validated flat float64 arrays."""
    exact_sorted = np.sort(exact_arr)
    approx_sorted = np.sort(approx_arr)
    probe = np.concatenate([exact_sorted, approx_sorted])
    cdf_exact = np.searchsorted(exact_sorted, probe, side="right") / exact_sorted.size
    cdf_approx = np.searchsorted(approx_sorted, probe, side="right") / approx_sorted.size
    return float(np.max(np.abs(cdf_exact - cdf_approx)))


def ks_statistic(exact, approx) -> float:
    """Two-sample Kolmogorov–Smirnov statistic over the value distributions.

    The maximum absolute distance between the empirical CDFs of the two
    (flattened) samples, bounded to [0, 1]; 0.0 iff the sorted multisets of
    values coincide.  Computed with two sorts and ``searchsorted`` — no
    per-element Python loop.
    """
    return _ks(*_validated(exact, approx))


def _iqr_scale(exact_arr: np.ndarray) -> float:
    """Robust normalization scale: IQR, falling back for degenerate data.

    A constant (or nearly constant) field has zero interquartile range; the
    fallbacks keep the metric finite: full value range first, then the
    magnitude of the constant itself, then 1.0 for an all-zero field.
    """
    q25, q75 = np.percentile(exact_arr, [25.0, 75.0])
    scale = float(q75 - q25)
    if scale > 0.0:
        return scale
    scale = float(exact_arr.max() - exact_arr.min())
    if scale > 0.0:
        return scale
    return max(abs(float(exact_arr.flat[0])), 1.0)


def _iqr_errors(exact_arr: np.ndarray, approx_arr: np.ndarray) -> tuple[float, float]:
    """IQR-normalized (mean, max) error of two validated flat arrays."""
    normalized = np.abs(exact_arr - approx_arr) / _iqr_scale(exact_arr)
    max_err = float(normalized.max())
    # the mean of equal values can round one ulp above them
    return min(float(normalized.mean()), max_err), max_err


def iqr_normalized_errors(exact, approx) -> tuple[float, float]:
    """(mean, max) of ``|exact - approx| / IQR(exact)``.

    Normalizing by the interquartile range of the exact data makes the
    error dimensionless and invariant under any affine transform
    ``x -> a*x + b`` (a > 0) applied to both arrays, so thresholds carry
    across variables with different units — the property enstools relies
    on to compare compression quality across weather fields.
    """
    return _iqr_errors(*_validated(exact, approx))


def fidelity_panel(exact, approx) -> dict[str, float]:
    """All fidelity metrics of one exact/approx array pair.

    Keys: ``pearson``, ``ks``, ``iqr_mean``, ``iqr_max``.  The pair is
    validated once.  An undamaged pair (equal values) skips the sorts and
    returns the perfect panel, which is exactly what the full computation
    yields for finite data.
    """
    exact_arr, approx_arr = _validated(exact, approx)
    if np.array_equal(exact_arr, approx_arr):
        return {"pearson": 1.0, "ks": 0.0, "iqr_mean": 0.0, "iqr_max": 0.0}
    iqr_mean, iqr_max = _iqr_errors(exact_arr, approx_arr)
    return {
        "pearson": _pearson(exact_arr, approx_arr),
        "ks": _ks(exact_arr, approx_arr),
        "iqr_mean": iqr_mean,
        "iqr_max": iqr_max,
    }


def fidelity_summary(
    exact_arrays: Mapping[str, np.ndarray],
    approx_arrays: Mapping[str, np.ndarray],
) -> dict[str, float]:
    """Worst-case fidelity panel over several named array pairs.

    Used by the simulator to collapse a workload's approximable regions
    into one record-level panel: the *minimum* Pearson correlation and the
    *maximum* KS / IQR errors across regions, i.e. the least faithful
    region dominates.  Keys are prefixed ``fidelity_`` to match the
    ``SimulationResult.extra_metrics`` entries.
    """
    if set(exact_arrays) != set(approx_arrays):
        raise ValueError(
            f"array name mismatch: exact has {sorted(exact_arrays)}, "
            f"approx has {sorted(approx_arrays)}"
        )
    if not exact_arrays:
        raise ValueError("fidelity summary needs at least one array pair")
    panels = [
        fidelity_panel(exact_arrays[name], approx_arrays[name])
        for name in exact_arrays
    ]
    return {
        "fidelity_pearson": min(panel["pearson"] for panel in panels),
        "fidelity_ks": max(panel["ks"] for panel in panels),
        "fidelity_iqr_mean": max(panel["iqr_mean"] for panel in panels),
        "fidelity_iqr_max": max(panel["iqr_max"] for panel in panels),
    }
