"""Correctness tests for the benchmark kernels themselves."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.blackscholes import black_scholes, erf
from repro.workloads.dct import blockwise_dct, blockwise_idct, dct_basis
from repro.workloads.fwt import dyadic_convolution, fast_walsh_transform
from repro.workloads.jmeint import triangles_intersect
from repro.workloads.nn import nearest_neighbors
from repro.workloads.srad import srad_coefficients, srad_update
from repro.workloads.backprop import backprop_step


# --------------------------------------------------------------------- #
# DCT


def test_dct_basis_is_orthonormal():
    basis = dct_basis().astype(np.float64)
    np.testing.assert_allclose(basis @ basis.T, np.eye(8), atol=1e-6)


def test_dct_idct_roundtrip():
    rng = np.random.default_rng(0)
    image = rng.normal(size=(32, 32)).astype(np.float32)
    basis = dct_basis()
    coefficients = blockwise_dct(image, basis)
    rebuilt = blockwise_idct(coefficients, basis)
    np.testing.assert_allclose(rebuilt, image, atol=1e-4)


def test_dct_constant_tile_concentrates_energy_in_dc():
    image = np.full((8, 8), 7.0, dtype=np.float32)
    coefficients = blockwise_dct(image, dct_basis())
    assert coefficients[0, 0] == pytest.approx(7.0 * 8, rel=1e-5)
    assert np.abs(coefficients[1:, :]).max() < 1e-4


def test_dct_rejects_non_tile_multiple():
    with pytest.raises(ValueError):
        blockwise_dct(np.zeros((10, 16), dtype=np.float32), dct_basis())


# --------------------------------------------------------------------- #
# FWT


def test_fwt_involution_up_to_scale():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=64).astype(np.float32)
    twice = fast_walsh_transform(fast_walsh_transform(signal)) / 64.0
    np.testing.assert_allclose(twice, signal, atol=1e-4)


def test_fwt_parseval():
    rng = np.random.default_rng(2)
    signal = rng.normal(size=128)
    transformed = fast_walsh_transform(signal)
    assert np.sum(transformed**2) == pytest.approx(128 * np.sum(signal**2), rel=1e-5)


def test_fwt_requires_power_of_two():
    with pytest.raises(ValueError):
        fast_walsh_transform(np.zeros(100))


def test_dyadic_convolution_with_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    signal = rng.normal(size=64).astype(np.float32)
    kernel = np.zeros(64, dtype=np.float32)
    kernel[0] = 1.0
    np.testing.assert_allclose(dyadic_convolution(signal, kernel), signal, atol=1e-4)


# --------------------------------------------------------------------- #
# Black-Scholes


def test_black_scholes_put_call_parity():
    stock = np.array([50.0, 80.0, 120.0])
    strike = np.array([60.0, 80.0, 100.0])
    expiry = np.array([0.5, 1.0, 2.0])
    vol = np.array([0.2, 0.3, 0.4])
    rate = 0.02
    call, put = black_scholes(stock, strike, expiry, vol, risk_free_rate=rate)
    parity = call - put
    expected = stock - strike * np.exp(-rate * expiry)
    np.testing.assert_allclose(parity, expected, atol=1e-3)


def test_black_scholes_deep_in_the_money_call():
    call, put = black_scholes(
        np.array([200.0]), np.array([100.0]), np.array([0.01]), np.array([0.1])
    )
    assert call[0] == pytest.approx(100.0, abs=1.0)
    assert put[0] == pytest.approx(0.0, abs=0.1)


def test_black_scholes_prices_non_negative():
    rng = np.random.default_rng(4)
    call, put = black_scholes(
        rng.uniform(10, 100, 100),
        rng.uniform(10, 100, 100),
        rng.uniform(0.1, 2, 100),
        rng.uniform(0.05, 0.6, 100),
    )
    assert np.all(call >= -1e-5)
    assert np.all(put >= -1e-5)


#: cephes' underflow cut: erfc(x) is 0 once -x^2 < -MAXLOG, at |x| ~ 26.64
ERF_CUT = float(np.sqrt(7.09782712893383996843e2))


@pytest.fixture(scope="module")
def erf_arguments():
    """Over 4 M arguments (NaN-free) across every branch of cephes' erf."""
    rng = np.random.default_rng(27)

    def both_signs(values):
        return np.concatenate([values, -values])

    subnormal = rng.integers(1, 2**52, 100_000, dtype=np.int64).view(np.float64)
    random_bits = rng.integers(0, 2**64 - 1, 1_000_000, dtype=np.uint64).view(np.float64)
    edges = [0.0, 1.0, 8.0, ERF_CUT, np.inf, np.finfo(np.float64).tiny,
             np.finfo(np.float64).max]
    return np.concatenate([
        both_signs(rng.uniform(0.0, 1.0, 800_000)),  # |x| <= 1
        both_signs(rng.uniform(1.0, 8.0, 600_000)),  # 1 < |x| < 8: P / Q
        both_signs(rng.uniform(8.0, 40.0, 300_000)),  # |x| >= 8: R / S, then 0
        both_signs(rng.uniform(ERF_CUT - 0.05, ERF_CUT + 0.05, 100_000)),
        # the 2,000 doubles either side of the cut, 1 and 8
        both_signs(np.concatenate([
            (np.float64(edge).view(np.int64) + np.arange(-2_000, 2_001)).view(np.float64)
            for edge in (ERF_CUT, 1.0, 8.0)
        ])),
        both_signs(subnormal),
        both_signs(np.array(edges)),
        random_bits[~np.isnan(random_bits)],
    ])


def test_erf_is_scipy_erf_bit_for_bit(erf_arguments):
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([erf_arguments, [np.nan, -np.nan]])
    assert x.size >= 4_000_000
    ours, theirs = erf(x), special.erf(x)
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    differ = np.flatnonzero(ours.view(np.int64)[~nan] != theirs.view(np.int64)[~nan])
    assert differ.size == 0, (x[~nan][differ[:5]], ours[~nan][differ[:5]])


def test_erf_is_exactly_odd(erf_arguments):
    """``black_scholes`` forms N(-d) from erf(d / sqrt 2) on this."""
    np.testing.assert_array_equal(
        erf(-erf_arguments).view(np.int64), (-erf(erf_arguments)).view(np.int64)
    )


NO_SCIPY_CHILD = """
import sys
from repro.campaign.spec import Job
from repro.campaign.worker import simulate_job
result = simulate_job(Job(workload="BS", scheme="TSLC-OPT", scale=1 / 1024))
assert "fidelity_pearson" in result.extra_metrics  # the error phase ran
print("scipy" in sys.modules)
"""


def test_no_job_imports_scipy():
    """SciPy is the tests' erf oracle only: a BS job with its error phase
    (the workload's kernel on the degraded inputs) runs without it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# --------------------------------------------------------------------- #
# JM (triangle intersection)


def _tri(*vertices):
    return np.array([vertices], dtype=np.float32)


def test_triangles_clearly_apart_do_not_intersect():
    a = _tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = _tri((10, 10, 10), (11, 10, 10), (10, 11, 10))
    assert not triangles_intersect(a, b)[0]


def test_triangles_crossing_planes_intersect():
    a = _tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
    b = _tri((0.5, 0.5, -1), (0.5, 0.5, 1), (1.5, 0.5, 0))
    assert triangles_intersect(a, b)[0]


def test_triangle_far_along_intersection_line_does_not_intersect():
    a = _tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
    b = _tri((10, 0.5, -1), (10, 0.5, 1), (11, 0.5, 0))
    assert not triangles_intersect(a, b)[0]


def test_triangles_intersect_shape_validation():
    with pytest.raises(ValueError):
        triangles_intersect(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))


def test_triangles_intersect_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(20, 3, 3)).astype(np.float32)
    b = (rng.normal(size=(20, 3, 3)) * 0.5).astype(np.float32)
    batched = triangles_intersect(a, b)
    for index in range(20):
        single = triangles_intersect(a[index:index + 1], b[index:index + 1])[0]
        assert batched[index] == single


# --------------------------------------------------------------------- #
# NN


def test_nearest_neighbors_matches_brute_force():
    rng = np.random.default_rng(6)
    records = rng.uniform(0, 10, size=(500, 2)).astype(np.float32)
    query = (5.0, 5.0)
    distances, indices = nearest_neighbors(records, query, 5)
    brute = np.sqrt(((records - np.array(query)) ** 2).sum(axis=1))
    expected = np.sort(brute)[:5]
    np.testing.assert_allclose(distances, expected, rtol=1e-5)
    assert len(set(indices.tolist())) == 5


def test_nearest_neighbors_validation():
    records = np.zeros((10, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        nearest_neighbors(records, (0, 0), 0)
    with pytest.raises(ValueError):
        nearest_neighbors(np.zeros((10, 3)), (0, 0), 1)


# --------------------------------------------------------------------- #
# SRAD


def _srad_coefficients_whole_image(image, q0_squared=0.05):
    """The kernel over the whole image at once: the banded kernel's oracle."""
    from repro.workloads.srad import _neighbors

    image = np.maximum(np.asarray(image, dtype=np.float64), 1e-6)
    d_n, d_s, d_w, d_e = _neighbors(image)
    gradient_sq = (d_n**2 + d_s**2 + d_w**2 + d_e**2) / (image**2)
    laplacian = (d_n + d_s + d_w + d_e) / image
    num = 0.5 * gradient_sq - (1.0 / 16.0) * laplacian**2
    den = (1.0 + 0.25 * laplacian) ** 2
    q_squared = num / np.maximum(den, 1e-9)
    coefficient = 1.0 / (1.0 + (q_squared - q0_squared) / (q0_squared * (1.0 + q0_squared)))
    coefficient = np.clip(coefficient, 0.0, 1.0)
    fields = {"coefficient": coefficient, "d_n": d_n, "d_s": d_s, "d_w": d_w, "d_e": d_e}
    return {name: value.astype(np.float32) for name, value in fields.items()}


@pytest.mark.parametrize("band_rows", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("shape", [(1, 5), (2, 3), (17, 9), (64, 33)])
def test_srad_bands_equal_the_whole_image(monkeypatch, shape, band_rows):
    from repro.workloads import srad

    rng = np.random.default_rng(shape[0] * 100 + band_rows)
    for dtype, low in ((np.float32, 0.0), (np.float64, -5.0)):
        image = rng.uniform(low, 200.0, size=shape).astype(dtype)
        image[0, 0] = 0.0  # clamped to 1e-6
        monkeypatch.setattr(srad, "BAND_PIXELS", band_rows * shape[1])
        got = srad_coefficients(image)
        want = _srad_coefficients_whole_image(image)
        assert set(got) == set(want)
        for name in want:
            assert got[name].dtype == np.float32
            np.testing.assert_array_equal(got[name], want[name])


def test_srad_benchmark_scales_are_one_band():
    from repro.workloads import srad
    from repro.workloads.registry import get_workload

    # fig7 runs at 1/64, the tournament at 1/256
    for scale in (1.0 / 64.0, 1.0 / 256.0):
        image = get_workload("SRAD1", scale=scale, seed=2019).generate()["image"].array
        assert image.size <= srad.BAND_PIXELS


def test_srad_coefficients_peak_is_bounded():
    from repro.obs.metrics import measure_peak_mib

    rng = np.random.default_rng(3)
    image = rng.uniform(50, 200, size=(1024, 1024)).astype(np.float32)  # 4 MiB
    results, peak_mib = measure_peak_mib(srad_coefficients, image)
    # the five float32 results are 20 MiB; over the whole image at once the
    # float64 temporaries peaked at 108 MiB
    assert peak_mib <= 40
    assert sum(value.nbytes for value in results.values()) == 20 * 1024 * 1024


def test_srad_coefficient_in_unit_range():
    rng = np.random.default_rng(7)
    image = rng.uniform(50, 200, size=(32, 32))
    results = srad_coefficients(image)
    assert np.all(results["coefficient"] >= 0.0)
    assert np.all(results["coefficient"] <= 1.0)


def test_srad_constant_image_is_fixed_point():
    image = np.full((16, 16), 100.0)
    results = srad_coefficients(image)
    updated = srad_update(
        image,
        results["coefficient"],
        results["d_n"],
        results["d_s"],
        results["d_w"],
        results["d_e"],
    )
    np.testing.assert_allclose(updated, image, atol=1e-3)


def test_srad_update_smooths_noise():
    rng = np.random.default_rng(8)
    image = 100.0 + rng.normal(0, 10, size=(64, 64))
    results = srad_coefficients(image)
    updated = srad_update(
        image,
        results["coefficient"],
        results["d_n"],
        results["d_s"],
        results["d_w"],
        results["d_e"],
    )
    assert np.var(updated) < np.var(image)


# --------------------------------------------------------------------- #
# backprop


def test_backprop_step_reduces_loss():
    rng = np.random.default_rng(9)
    inputs = rng.uniform(0, 1, size=(32, 64))
    weights_ih = rng.normal(0, 0.2, size=(64, 8))
    weights_ho = rng.normal(0, 0.2, size=(8, 1))
    bias_h = np.zeros(8)
    bias_o = np.zeros(1)
    target = rng.uniform(0, 1, size=(32, 1))

    def loss(w_ih, w_ho):
        hidden = 1 / (1 + np.exp(-(inputs @ w_ih + bias_h)))
        output = 1 / (1 + np.exp(-(hidden @ w_ho + bias_o)))
        return float(np.mean((target - output) ** 2))

    new_ih, new_ho = backprop_step(inputs, weights_ih, weights_ho, bias_h, bias_o, target)
    assert loss(new_ih, new_ho) <= loss(weights_ih, weights_ho) + 1e-9


def test_backprop_step_preserves_shapes():
    inputs = np.zeros((4, 16), dtype=np.float32)
    new_ih, new_ho = backprop_step(
        inputs,
        np.zeros((16, 8), dtype=np.float32),
        np.zeros((8, 1), dtype=np.float32),
        np.zeros(8, dtype=np.float32),
        np.zeros(1, dtype=np.float32),
        np.zeros((4, 1), dtype=np.float32),
    )
    assert new_ih.shape == (16, 8)
    assert new_ho.shape == (8, 1)
