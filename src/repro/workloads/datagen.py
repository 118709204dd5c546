"""Synthetic input-data generators with controllable compressibility.

The paper evaluates on real benchmark inputs; what matters for reproducing
its results is not the exact bytes but the *value structure* that drives
compressibility and value similarity between adjacent elements (which the
TSLC predictor exploits).  These helpers generate such data: spatially smooth
images, temporally correlated series, clustered option parameters and
quantized sensor-style values.
"""

from __future__ import annotations

import numpy as np


def smooth_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    amplitude: float = 128.0,
    num_waves: int = 6,
    noise: float = 1.0,
    offset: float = 128.0,
    min_wavelength_px: float = 48.0,
    max_wavelength_px: float = 256.0,
) -> np.ndarray:
    """A smooth, natural-image-like 2-D field (float32).

    Superimposes a handful of sinusoids whose wavelengths are fixed in
    *pixels* (not in image fractions), plus mild noise.  Keeping the
    wavelengths pixel-scaled preserves the strong local correlation of real
    images at any resolution, which is what makes adjacent pixels similar
    (the property both the compressors and the TSLC value predictor rely on).
    """
    if height <= 0 or width <= 0:
        raise ValueError("image dimensions must be positive")
    if not 0 < min_wavelength_px <= max_wavelength_px:
        raise ValueError("wavelengths must be positive and ordered")
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    image = np.zeros((height, width), dtype=np.float64)
    for _ in range(num_waves):
        wavelength_y = rng.uniform(min_wavelength_px, max_wavelength_px)
        wavelength_x = rng.uniform(min_wavelength_px, max_wavelength_px)
        phase = rng.uniform(0.0, 2 * np.pi)
        weight = rng.uniform(0.3, 1.0)
        image += weight * np.sin(
            2 * np.pi * (ys / wavelength_y + xs / wavelength_x) + phase
        )
    image = image / max(1, num_waves) * amplitude + offset
    image += rng.normal(0.0, noise, size=image.shape)
    return image.astype(np.float32)


def spectral_field(
    rng: np.random.Generator,
    height: int,
    width: int,
    num_waves: int = 12,
    spectrum_exponent: float = 1.6,
    min_wavelength_px: float = 8.0,
    max_wavelength_px: float = 512.0,
    amplitude: float = 1.0,
) -> np.ndarray:
    """A spatially correlated field with a power-law wavelength spectrum.

    Superimposes ``num_waves`` plane waves whose wavelengths are drawn
    log-uniformly from [min, max] pixels and whose amplitudes follow
    ``wavelength ** (spectrum_exponent / 2)`` — long waves dominate, the
    way geophysical fields (pressure, temperature, geopotential) do.  A
    larger exponent gives a smoother field; 0 gives equal power at all
    scales.  Unlike :func:`smooth_image` the spectrum is an explicit knob,
    which is what the WEATHER ensemble family varies.
    """
    if height <= 0 or width <= 0:
        raise ValueError("field dimensions must be positive")
    if num_waves <= 0:
        raise ValueError("num_waves must be positive")
    if not 0 < min_wavelength_px <= max_wavelength_px:
        raise ValueError("wavelengths must be positive and ordered")
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    log_min, log_max = np.log(min_wavelength_px), np.log(max_wavelength_px)
    field = np.zeros((height, width), dtype=np.float64)
    for _ in range(num_waves):
        wavelength = float(np.exp(rng.uniform(log_min, log_max)))
        direction = rng.uniform(0.0, 2 * np.pi)
        phase = rng.uniform(0.0, 2 * np.pi)
        weight = rng.uniform(0.5, 1.0)
        weight *= (wavelength / max_wavelength_px) ** (spectrum_exponent / 2.0)
        ky = np.sin(direction) / wavelength
        kx = np.cos(direction) / wavelength
        field += weight * np.sin(2 * np.pi * (ys * ky + xs * kx) + phase)
    field *= amplitude / np.sqrt(num_waves)
    return field.astype(np.float32)


#: elements of an AR(1) series converted to Python floats at a time
_SERIES_SLICE = 65_536


def correlated_series(
    rng: np.random.Generator,
    length: int,
    correlation: float = 0.95,
    scale: float = 1.0,
    offset: float = 0.0,
) -> np.ndarray:
    """AR(1) series (float32): adjacent values are similar (FWT, BP inputs).

    The recurrence runs over Python floats, whose arithmetic is the same
    IEEE double arithmetic as numpy's float64 scalars but several times
    faster, one bounded slice of the series at a time, in place.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if not 0 <= correlation < 1:
        raise ValueError("correlation must lie in [0, 1)")
    innovation = float(np.sqrt(1 - correlation**2))
    correlation = float(correlation)
    series = rng.normal(0.0, 1.0, size=length)  # the noise, overwritten
    previous = float(series[0])
    for start in range(1, length, _SERIES_SLICE):
        part = series[start:start + _SERIES_SLICE]
        values = part.tolist()
        for index, noise in enumerate(values):
            previous = correlation * previous + innovation * noise
            values[index] = previous
        part[:] = values
    series *= scale
    series += offset
    return series.astype(np.float32)


def clustered_values(
    rng: np.random.Generator,
    length: int,
    centers: tuple[float, ...] = (10.0, 25.0, 50.0, 100.0),
    spread: float = 0.05,
    runs: int = 1,
) -> np.ndarray:
    """Values clustered around a few centres (option strikes, prices).

    ``runs`` consecutive elements share the same centre, modelling data laid
    out in groups (e.g. an option chain stores all strikes of one underlying
    contiguously) — the adjacency the TSLC value predictor relies on.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if runs <= 0:
        raise ValueError("runs must be positive")
    n_groups = -(-length // runs)
    group_centers = rng.choice(np.asarray(centers, dtype=np.float64), size=n_groups)
    chosen = np.repeat(group_centers, runs)[:length]
    values = chosen * (1.0 + rng.normal(0.0, spread, size=length))
    return values.astype(np.float32)


def quantized(array: np.ndarray, step: float) -> np.ndarray:
    """Quantize values to multiples of ``step`` (adds repeated values)."""
    if step <= 0:
        raise ValueError("step must be positive")
    return (np.round(np.asarray(array) / step) * step).astype(np.float32)


def quantize_pow2(array: np.ndarray, fraction_bits: int) -> np.ndarray:
    """Quantize to multiples of ``2**-fraction_bits`` (float32).

    Real benchmark inputs are rarely full-precision random floats: images are
    8-bit pixels promoted to float, sensor values and option parameters carry
    limited precision.  Snapping values to a power-of-two grid reproduces
    that property — the low mantissa bits (and hence the low 16-bit symbol of
    each float) become mostly zero, which is what gives the paper's inputs
    their compressibility.
    """
    step = 2.0 ** (-fraction_bits)
    return (np.round(np.asarray(array, dtype=np.float64) / step) * step).astype(np.float32)


def quantize_varying(
    array: np.ndarray,
    rng: np.random.Generator,
    min_fraction_bits: int,
    max_fraction_bits: int,
    segment_elements: int = 32,
) -> np.ndarray:
    """Quantize with a precision that varies from segment to segment.

    Real inputs are heterogeneous: parts of an image are flat while others
    carry fine detail, parts of a table hold round numbers while others hold
    full-precision values.  That heterogeneity is what spreads the compressed
    block sizes across the whole range between MAG multiples (the Fig. 2
    distribution); quantizing every element identically would collapse all
    blocks of a workload onto nearly the same compressed size.  Each segment
    of ``segment_elements`` consecutive elements gets a fraction-bit count
    drawn uniformly from [min, max].
    """
    if min_fraction_bits > max_fraction_bits:
        raise ValueError("min_fraction_bits must not exceed max_fraction_bits")
    if segment_elements <= 0:
        raise ValueError("segment_elements must be positive")
    values = np.array(array, dtype=np.float64)
    flat = values.reshape(-1)
    n_segments = -(-flat.size // segment_elements)
    bits = rng.integers(min_fraction_bits, max_fraction_bits + 1, size=n_segments)
    steps = np.ldexp(1.0, -bits)  # 2 ** -bits, exactly
    # whole segments as the rows of a matrix, then the shorter last one;
    # each is divided, rounded and multiplied by its own step in place
    whole = flat.size // segment_elements
    split = whole * segment_elements
    for part, step in (
        (flat[:split].reshape(whole, segment_elements), steps[:whole, None]),
        (flat[split:], steps[whole:]),
    ):
        np.divide(part, step, out=part)
        np.round(part, out=part)
        np.multiply(part, step, out=part)
    return values.astype(np.float32)


def spatial_points(
    rng: np.random.Generator,
    count: int,
    num_clusters: int = 32,
    cluster_spread: float = 0.5,
    lat_range: tuple[float, float] = (25.0, 50.0),
    lng_range: tuple[float, float] = (-125.0, -65.0),
) -> np.ndarray:
    """Clustered geographic points (count, 2) float32 (the NN records)."""
    if count <= 0:
        raise ValueError("count must be positive")
    centers_lat = rng.uniform(*lat_range, size=num_clusters)
    centers_lng = rng.uniform(*lng_range, size=num_clusters)
    assignment = rng.integers(0, num_clusters, size=count)
    lat = centers_lat[assignment] + rng.normal(0.0, cluster_spread, size=count)
    lng = centers_lng[assignment] + rng.normal(0.0, cluster_spread, size=count)
    return np.stack([lat, lng], axis=1).astype(np.float32)


def clustered_triangles(
    rng: np.random.Generator,
    count: int,
    extent: float = 100.0,
    triangle_size: float = 2.0,
    near: np.ndarray | None = None,
    near_spread: float = 1.5,
) -> np.ndarray:
    """Vertices of ``count`` triangles clustered in space, shape (count, 3, 3).

    When ``near`` (another triangle array of the same shape) is given, each
    triangle is placed close to the corresponding triangle of ``near`` so
    that a pair intersects with a realistic, non-trivial probability — the
    behaviour of the JM collision-detection benchmark, whose candidate pairs
    come from a broad-phase filter and are therefore already close together.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if near is not None:
        centers = near.mean(axis=1, keepdims=True).astype(np.float64)
        centers = centers + rng.normal(0.0, near_spread, size=(count, 1, 3))
    else:
        centers = rng.uniform(0.0, extent, size=(count, 1, 3))
    offsets = rng.normal(0.0, triangle_size, size=(count, 3, 3))
    return (centers + offsets).astype(np.float32)
