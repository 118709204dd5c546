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

The panel (:func:`fidelity_panel`, :func:`fidelity_summary`) scales with
the damage.  It finds the changed elements once; an undamaged pair stops
there.  When at most two fifths of the elements changed, KS comes from the
changed values alone (:func:`_ks_from_changes`), with the same bits as the
one-sort KS that heavier damage and :func:`ks_statistic` keep.  Against a
held :class:`ExactSide` the exact side's sort, finiteness and Pearson
moments are built once, so a damaged pair runs two sums of products and no
exact-side reduction.

Every Pearson sum of products goes through :func:`_sum_of_products`, which
gives the bits of OpenBLAS's two-thread ``ddot`` on one thread: above
OpenBLAS's threading cutoff of 10,000 elements it adds the dot products
of the two halves to 0.0, as the two helper threads would.  The process's
BLAS is pinned to one thread first (:func:`repro.utils.blas.pin_one_thread`),
so the results do not depend on ``OPENBLAS_NUM_THREADS`` or the host's
core count.  They still depend on the ``ddot`` kernel OpenBLAS picks for
the CPU, whose last bits differ between, say, Haswell and SkylakeX.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.obs import metrics
from repro.utils.blas import pin_one_thread

__all__ = [
    "ExactSide",
    "pearson_correlation",
    "ks_statistic",
    "iqr_normalized_errors",
    "fidelity_panel",
    "fidelity_summary",
]


def _validated(
    exact, approx, exact_checked: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Common validation: matching shapes, non-empty, all-finite float64.

    ``exact_checked`` skips the finiteness check of an exact side already
    found finite.
    """
    exact_arr = np.asarray(exact, dtype=np.float64)
    approx_arr = np.asarray(approx, dtype=np.float64)
    if exact_arr.shape != approx_arr.shape:
        raise ValueError(
            f"shape mismatch between exact {exact_arr.shape} and "
            f"approx {approx_arr.shape}"
        )
    if exact_arr.size == 0:
        raise ValueError("fidelity metrics are undefined for empty arrays")
    if not (exact_checked or np.all(np.isfinite(exact_arr))):
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


#: OpenBLAS runs a ``ddot`` of more than this many elements on its helper
#: threads
_THREADED_DOT = 10_000


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> float:
    """``np.dot`` of two flat float64 arrays as two-thread OpenBLAS sums
    it, on one thread.

    Above :data:`_THREADED_DOT` elements OpenBLAS gives the first thread
    the first ``ceil(n / 2)`` elements and the second the rest, and adds
    the two partial sums to 0.0 in that order.  The ``0.0 +`` turns a -0.0
    first half into +0.0, so it decides the sign of a zero sum.  Each half
    runs on one thread under the process-wide pin.
    """
    n = x.size
    if n <= _THREADED_DOT:
        return float(np.dot(x, y))
    pin_one_thread()
    half = (n + 1) // 2
    return (0.0 + float(np.dot(x[:half], y[:half]))) + float(np.dot(x[half:], y[half:]))


def _moments(vals: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Deviations from the mean, the mean and the sum of squared deviations.

    The sum is non-finite when the squares overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = vals.mean()
        dev = vals - mean
        return dev, float(mean), _sum_of_products(dev, dev)


def _centered(
    exact_vals: np.ndarray,
    approx_vals: np.ndarray,
    exact_moments: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Deviations, the smallest of the sums of squares and their product,
    and the Pearson denominator.

    ``exact_moments`` is the exact side's held (mean, sum of squared
    deviations) of :func:`_moments`, when there is one.  The denominator is
    non-finite when the squares overflow.
    """
    if exact_moments is None:
        exact_dev, _, exact_ss = _moments(exact_vals)
    else:
        mean, exact_ss = exact_moments
        with np.errstate(over="ignore", invalid="ignore"):
            exact_dev = exact_vals - mean
    approx_dev, _, approx_ss = _moments(approx_vals)
    with np.errstate(over="ignore", invalid="ignore"):
        product = exact_ss * approx_ss
        denom = float(np.sqrt(product))
    return exact_dev, approx_dev, min(exact_ss, approx_ss, product), denom


def _pearson(
    exact_arr: np.ndarray,
    approx_arr: np.ndarray,
    exact_moments: tuple[bool, float, float] | None = None,
) -> float:
    """Pearson correlation of two validated flat float64 arrays.

    ``exact_moments`` is the exact side's held (constant, mean, sum of
    squared deviations) (:meth:`ExactSide.moments`), when there is one.
    """
    if exact_moments is None:
        exact_constant, held = np.ptp(exact_arr) == 0.0, None
    else:
        exact_constant, held = exact_moments[0], exact_moments[1:]
    if exact_constant or np.ptp(approx_arr) == 0.0:
        # A constant field takes the convention before centring: its float
        # mean can miss its value by an ulp and leave a constant deviation
        # that would "correlate" with the other side.
        return 1.0 if np.array_equal(exact_arr, approx_arr) else 0.0
    exact_dev, approx_dev, smallest, denom = _centered(exact_arr, approx_arr, held)
    if not (np.isfinite(denom) and smallest >= _TINY):
        # The squares or their product overflowed or underflowed.
        # Correlation is invariant under positive scaling of either array,
        # so recompute at unit peak, where non-constant data has normal,
        # finite sums; data that never gets here stays bit-identical to
        # the direct formula.
        exact_dev, approx_dev, _, denom = _centered(
            _unit_peak(exact_arr), _unit_peak(approx_arr)
        )
    corr = _sum_of_products(exact_dev, approx_dev) / denom
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


def _step_cdf(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sorted sample's empirical CDF as steps: its distinct values and,
    after a leading 0, how many values are at most each one."""
    differs = ordered[1:] != ordered[:-1]
    if differs.all():
        return ordered, np.arange(ordered.size + 1)
    last = np.flatnonzero(differs)  # the last index of every run but one
    counts = np.empty(last.size + 2, dtype=np.int64)
    counts[0] = 0
    counts[1:-1] = last
    counts[-1] = ordered.size - 1
    del last
    values = ordered[counts[1:]]
    counts[1:] += 1
    return values, counts


#: probe values whose CDF gap is computed at a time, bounding temporaries
_GAP_SLICE = 65_536


def _largest_gap(
    values: np.ndarray,
    counts: np.ndarray,
    other_values: np.ndarray,
    other_counts: np.ndarray,
    n: int,
) -> float:
    """The largest distance between two step CDFs of ``n``-element samples
    (:func:`_step_cdf`) at the distinct ``values`` of the first."""
    largest = 0.0
    for start in range(0, values.size, _GAP_SLICE):
        stop = start + _GAP_SLICE
        below = np.searchsorted(other_values, values[start:stop], side="right")
        gap = counts[start + 1:stop + 1] / n
        gap -= other_counts[below] / n
        largest = max(largest, float(np.max(np.abs(gap, out=gap))))
    return largest


def _iqr_scale(exact_arr: np.ndarray) -> float:
    """Robust normalization scale: IQR, falling back for degenerate data.

    A constant (or nearly constant) field has zero interquartile range; the
    fallbacks keep the metric finite: full value range first, then the
    magnitude of the constant itself, then 1.0 for an all-zero field.  The
    scale depends on the values alone, not on their order.
    """
    q25, q75 = np.percentile(exact_arr, [25.0, 75.0])
    scale = float(q75 - q25)
    if scale > 0.0:
        return scale
    scale = float(exact_arr.max() - exact_arr.min())
    if scale > 0.0:
        return scale
    return max(abs(float(exact_arr.flat[0])), 1.0)


#: the largest share of changed elements for which KS from the changes
#: runs: on a noisy 1M-element float32 pair, on a 2-core host, it beats
#: the one-sort KS up to between 35% and 45% changed (one-sort about 110 ms
#: throughout; from the changes 14 ms at 5%, 139 ms at 50%, 364 ms at 100%)
_SPARSE_SHARE = 0.4

#: below this many elements a float CDF gap is off by less than half of
#: 1/n, so gaps whose integer counts differ never swap order
_EXACT_GAP_LIMIT = 1 << 49


def _ks_from_changes(
    values: np.ndarray,
    counts: np.ndarray,
    removed: np.ndarray,
    inserted: np.ndarray,
    n: int,
) -> float:
    """KS of an ``n``-element sample with step CDF ``(values, counts)``
    against a copy that replaced the sorted ``removed`` values by the
    sorted ``inserted`` ones.

    At any value v the copy's count is the sample's minus
    ``D(v) = #removed <= v - #inserted <= v``, and ``D`` steps only at the
    changed values.  Where ``|D|`` is below its largest value ``m`` the
    float gap is at least ``1/n`` lower than in the runs where it is
    ``m``, and rounding moves a gap by under ``2**-50``; so the float gap
    of the full computation (``c/n - (c - D)/n``) is evaluated only at
    the sample values inside those runs: the sample's distinct values and
    the inserted ones.  Bit-identical to :meth:`ExactSide.ks` for ``n``
    below :data:`_EXACT_GAP_LIMIT`.
    """
    points = np.unique(np.concatenate([removed, inserted]))
    steps = np.searchsorted(removed, points, side="right")
    steps -= np.searchsorted(inserted, points, side="right")
    size = np.abs(steps)
    largest = int(size.max(initial=0))
    if largest == 0:
        return 0.0
    # |D| is 0 past the last point, so every largest run ends at a point.
    runs = np.flatnonzero(size == largest)
    # the sample's distinct values in each run [low, high): indices
    # first .. first + span - 1, whose counts are counts[index + 1]
    first = np.searchsorted(values, points[runs], side="left")
    span = np.searchsorted(values, points[runs + 1], side="left") - first
    offset = np.repeat(first - np.cumsum(span) + span, span)
    held = counts[offset + np.arange(offset.size) + 1]
    # an inserted value is a point, so it lies in the run it starts
    at_point = np.searchsorted(points, inserted)
    picked = np.flatnonzero(size[at_point] == largest)
    added = counts[np.searchsorted(values, inserted[picked], side="right")]
    sample = np.concatenate([held, added])
    step = np.concatenate([np.repeat(steps[runs], span), steps[at_point[picked]]])
    gap = sample / n
    gap -= (sample - step) / n
    return float(np.max(np.abs(gap, out=gap)))


class ExactSide:
    """One exact array's side of every comparison against it.

    The exact values' step CDF (:func:`_step_cdf`), :func:`_iqr_scale`,
    whether they are finite and their Pearson moments (constancy, mean,
    sum of squared deviations) depend on ``exact`` alone, so they are built
    once, the CDF from one sort, on the first comparison against a damaged
    copy (an undamaged pair needs none of them but finiteness) and reused
    by every later one.  A
    :class:`~repro.gpu.simulator.PreparedInput` holds one per approximable
    region, so each exact region is sorted once per input rather than once
    per error-phase job.  The side keeps ``exact`` as given, not a
    converted copy.  Its statistics are read-only; threads racing to build
    them compute equal ones, and either is kept.  Each build of the CDF
    counts ``fidelity.exact_side.build`` under
    :func:`repro.obs.metrics.enabled`.
    """

    def __init__(self, exact) -> None:
        #: the exact array the statistics describe
        self.exact = exact
        self._finite = False
        self._stats: tuple[np.ndarray, np.ndarray, float] | None = None
        self._moments: tuple[bool, float, float] | None = None

    def validated(self, approx) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_validated` of :attr:`exact` and ``approx``; the exact
        side's values are checked for finiteness once."""
        arrays = _validated(self.exact, approx, exact_checked=self._finite)
        self._finite = True
        return arrays

    def stats(self, exact_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(distinct values, counts at or below each after a leading 0,
        IQR scale) of :attr:`exact`, validated as ``exact_arr``."""
        stats = self._stats
        if stats is None:
            ordered = np.sort(exact_arr)
            values, counts = _step_cdf(ordered)
            values.flags.writeable = False
            counts.flags.writeable = False
            stats = (values, counts, _iqr_scale(ordered))
            self._stats = stats
            if metrics.enabled():
                metrics.inc("fidelity.exact_side.build")
        return stats

    def moments(self, exact_arr: np.ndarray) -> tuple[bool, float, float]:
        """(constant, mean, sum of squared deviations) of :attr:`exact`,
        validated as ``exact_arr``, as :func:`_pearson` computes them."""
        moments = self._moments
        if moments is None:
            if np.ptp(exact_arr) == 0.0:
                moments = (True, 0.0, 0.0)
            else:
                moments = (False, *_moments(exact_arr)[1:])
            self._moments = moments
        return moments

    def ks(
        self,
        exact_arr: np.ndarray,
        approx_arr: np.ndarray,
        changed: np.ndarray | None = None,
    ) -> float:
        """KS statistic of ``exact_arr`` (:attr:`exact`, validated) and a
        validated flat float64 ``approx_arr`` of the same size.

        ``changed`` optionally marks where the two differ.  When at most
        :data:`_SPARSE_SHARE` of the elements changed, the statistic comes
        from the changed values alone (:func:`_ks_from_changes`): two sorts
        of them, no sort of ``approx_arr``.  Otherwise, and without
        ``changed``, each CDF is compared with the other at its own
        distinct values, found by ``searchsorted``: one sort of
        ``approx_arr`` and no per-element probe.  Both give the same bits.
        """
        exact_values, exact_counts, _ = self.stats(exact_arr)
        n = approx_arr.size
        if (
            changed is not None
            and n < _EXACT_GAP_LIMIT
            and np.count_nonzero(changed) <= _SPARSE_SHARE * n
        ):
            return _ks_from_changes(
                exact_values, exact_counts,
                np.sort(exact_arr[changed]), np.sort(approx_arr[changed]), n,
            )
        approx_values, approx_counts = _step_cdf(np.sort(approx_arr))
        return max(
            _largest_gap(exact_values, exact_counts, approx_values, approx_counts, n),
            _largest_gap(approx_values, approx_counts, exact_values, exact_counts, n),
        )


def ks_statistic(exact, approx) -> float:
    """Two-sample Kolmogorov–Smirnov statistic over the value distributions.

    The maximum absolute distance between the empirical CDFs of the two
    (flattened) samples, bounded to [0, 1]; 0.0 iff the sorted multisets of
    values coincide.  Computed with one sort per sample and
    ``searchsorted`` of each sample's distinct values into the other's
    (:meth:`ExactSide.ks`) — no per-element Python loop.
    """
    return ExactSide(exact).ks(*_validated(exact, approx))


def _iqr_errors(
    exact_arr: np.ndarray, approx_arr: np.ndarray, scale: float
) -> tuple[float, float]:
    """IQR-normalized (mean, max) error of two validated flat arrays."""
    normalized = np.abs(exact_arr - approx_arr)
    normalized /= scale
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
    exact_arr, approx_arr = _validated(exact, approx)
    return _iqr_errors(exact_arr, approx_arr, _iqr_scale(exact_arr))


def _panel(side: ExactSide, approx) -> dict[str, float]:
    """:func:`fidelity_panel` of ``side.exact`` and ``approx``."""
    exact_arr, approx_arr = side.validated(approx)
    changed = exact_arr != approx_arr
    if not changed.any():
        return {"pearson": 1.0, "ks": 0.0, "iqr_mean": 0.0, "iqr_max": 0.0}
    iqr_mean, iqr_max = _iqr_errors(exact_arr, approx_arr, side.stats(exact_arr)[2])
    return {
        "pearson": _pearson(exact_arr, approx_arr, side.moments(exact_arr)),
        "ks": side.ks(exact_arr, approx_arr, changed),
        "iqr_mean": iqr_mean,
        "iqr_max": iqr_max,
    }


def fidelity_panel(exact, approx) -> dict[str, float]:
    """All fidelity metrics of one exact/approx array pair.

    Keys: ``pearson``, ``ks``, ``iqr_mean``, ``iqr_max``.  The pair is
    validated once.  An undamaged pair (equal values) skips the sorts and
    returns the perfect panel, which is exactly what the full computation
    yields for finite data.
    """
    return _panel(ExactSide(exact), approx)


def fidelity_summary(
    exact_arrays: Mapping[str, np.ndarray],
    approx_arrays: Mapping[str, np.ndarray],
    exact_sides: Mapping[str, ExactSide] | None = None,
) -> dict[str, float]:
    """Worst-case fidelity panel over several named array pairs.

    Used by the simulator to collapse a workload's approximable regions
    into one record-level panel: the *minimum* Pearson correlation and the
    *maximum* KS / IQR errors across regions, i.e. the least faithful
    region dominates.  Keys are prefixed ``fidelity_`` to match the
    ``SimulationResult.extra_metrics`` entries.

    ``exact_sides`` optionally maps names to the held :class:`ExactSide` of
    their exact array, whose statistics are then built once and reused
    across calls; a name without one gets a fresh side.  Results are the
    same either way.

    Raises:
        ValueError: if the names differ, there are none, or a held side
            belongs to another array than ``exact_arrays`` names.
    """
    if set(exact_arrays) != set(approx_arrays):
        raise ValueError(
            f"array name mismatch: exact has {sorted(exact_arrays)}, "
            f"approx has {sorted(approx_arrays)}"
        )
    if not exact_arrays:
        raise ValueError("fidelity summary needs at least one array pair")
    held = exact_sides or {}
    panels = []
    for name, exact in exact_arrays.items():
        side = held.get(name)
        if side is None:
            side = ExactSide(exact)
        elif side.exact is not exact:
            raise ValueError(f"the held exact side of {name!r} belongs to another array")
        panels.append(_panel(side, approx_arrays[name]))
    return {
        "fidelity_pearson": min(panel["pearson"] for panel in panels),
        "fidelity_ks": max(panel["ks"] for panel in panels),
        "fidelity_iqr_mean": max(panel["iqr_mean"] for panel in panels),
        "fidelity_iqr_max": max(panel["iqr_max"] for panel in panels),
    }
