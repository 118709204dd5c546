"""Input generators and the NN top-k against the loops they replaced.

:func:`~repro.workloads.datagen.correlated_series`,
:func:`~repro.workloads.datagen.quantize_varying` and
:func:`~repro.workloads.nn.nearest_neighbors` must stay bit-identical to
the straightforward versions kept here as oracles — a numpy-scalar AR(1)
loop, a per-segment quantizer loop and a stable argsort of every distance —
because every workload input, and so every golden digest, flows through
them.  The memory tests pin that the generators work on one float64 copy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs.metrics import measure_peak_mib
from repro.workloads import datagen
from repro.workloads.datagen import correlated_series, quantize_varying
from repro.workloads.nn import nearest_neighbors


def _correlated_series_oracle(rng, length, correlation=0.95, scale=1.0, offset=0.0):
    noise = rng.normal(0.0, 1.0, size=length)
    series = np.empty(length, dtype=np.float64)
    series[0] = noise[0]
    for index in range(1, length):
        series[index] = correlation * series[index - 1] + np.sqrt(
            1 - correlation**2
        ) * noise[index]
    return (series * scale + offset).astype(np.float32)


def _quantize_varying_oracle(array, rng, min_bits, max_bits, segment_elements=32):
    values = np.asarray(array, dtype=np.float64)
    flat = values.reshape(-1).copy()
    n_segments = -(-flat.size // segment_elements)
    bits = rng.integers(min_bits, max_bits + 1, size=n_segments)
    for segment, fraction_bits in enumerate(bits):
        start = segment * segment_elements
        stop = min(flat.size, start + segment_elements)
        step = 2.0 ** (-int(fraction_bits))
        flat[start:stop] = np.round(flat[start:stop] / step) * step
    return flat.reshape(values.shape).astype(np.float32)


def _nearest_neighbors_oracle(records, query, k):
    records = np.asarray(records, dtype=np.float64)
    distances = np.sqrt(np.sum((records - np.asarray(query, dtype=np.float64)) ** 2, axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    return distances[order].astype(np.float32), order.astype(np.int64)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


@pytest.fixture(scope="module", params=[3, datagen._SERIES_SLICE], ids=["slice3", "default"])
def series_slice(request: pytest.FixtureRequest) -> int:
    """Elements the AR(1) recurrence converts at a time: tiny, and the default."""
    return request.param


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=1, max_value=200),
    correlation=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.999)),
    scale=st.floats(min_value=-100.0, max_value=100.0),
    offset=st.floats(min_value=-100.0, max_value=100.0),
)
def test_correlated_series_equals_the_scalar_loop(
    series_slice, seed, length, correlation, scale, offset
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datagen, "_SERIES_SLICE", series_slice)
        got = correlated_series(np.random.default_rng(seed), length, correlation, scale, offset)
    want = _correlated_series_oracle(
        np.random.default_rng(seed), length, correlation, scale, offset
    )
    assert _same(got, want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.one_of(
        st.integers(min_value=0, max_value=300).map(lambda n: (n,)),
        st.tuples(st.integers(1, 20), st.integers(1, 20)),
    ),
    min_bits=st.integers(min_value=-4, max_value=30),
    extra_bits=st.integers(min_value=0, max_value=12),
    segment_elements=st.integers(min_value=1, max_value=70),
    magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
)
def test_quantize_varying_equals_the_segment_loop(
    seed, shape, min_bits, extra_bits, segment_elements, magnitude
):
    array = (np.random.default_rng(seed).normal(size=shape) * magnitude).astype(np.float32)
    args = (min_bits, min_bits + extra_bits, segment_elements)
    got = quantize_varying(array, np.random.default_rng(seed), *args)
    want = _quantize_varying_oracle(array, np.random.default_rng(seed), *args)
    assert _same(got, want)


def test_quantize_varying_leaves_its_input_alone():
    array = np.linspace(-1.0, 1.0, 100)
    before = array.copy()
    quantize_varying(array, np.random.default_rng(0), 2, 2)
    assert _same(array, before)


#: small grid coordinates, so many records share the k-th distance; NaN
#: (which sorts last) for degraded records
_coordinates = st.one_of(st.integers(-3, 3).map(float), st.just(float("nan")))


@settings(max_examples=100, deadline=None)
@given(
    records=hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 60), st.just(2)),
        elements=_coordinates,
    ),
    data=st.data(),
)
def test_nearest_neighbors_equals_the_full_stable_argsort(records, data):
    k = data.draw(st.one_of(st.just(records.shape[0]), st.integers(1, records.shape[0])))
    got = nearest_neighbors(records, (0.5, 0.0), k)
    want = _nearest_neighbors_oracle(records, (0.5, 0.0), k)
    assert all(_same(g, w) for g, w in zip(got, want))


def _mib(n_bytes: int) -> float:
    return n_bytes / (1024.0 * 1024.0)


def test_quantize_varying_works_in_one_float64_copy():
    """One float64 working copy plus the float32 result (the per-segment
    loop held two float64 copies: 81 MiB on this input)."""
    n = 4 << 20
    array = np.random.default_rng(1).normal(size=n).astype(np.float32)
    _, peak = measure_peak_mib(quantize_varying, array, np.random.default_rng(2), 8, 16)
    assert peak < 1.25 * _mib(n * (8 + 4))


def test_correlated_series_works_in_place(monkeypatch):
    """The noise array, overwritten in place, plus the float32 result and
    one slice of Python floats (64 bytes each is generous).  The
    numpy-scalar loop took 2.3x the two arrays (56 MiB on 2M elements);
    tracing every float makes 2M elements slow, hence 256K."""
    n, slice_elements = 1 << 18, 4096
    monkeypatch.setattr(datagen, "_SERIES_SLICE", slice_elements)
    _, peak = measure_peak_mib(correlated_series, np.random.default_rng(3), n)
    assert peak < 1.05 * _mib(n * (8 + 4)) + _mib(slice_elements * 64)
