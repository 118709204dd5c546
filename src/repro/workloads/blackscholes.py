"""BS — Black-Scholes European option pricing (CUDA SDK).

Prices a portfolio of European call and put options from per-option stock
price, strike, time-to-expiry and volatility arrays.  The four input arrays
are the benchmark's four approximable regions (#AR = 4); the error metric is
the mean relative error of the computed prices.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.error import mean_relative_error_percent
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.datagen import clustered_values, quantize_varying


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the error-function identity.

    scipy's vectorized ``erf`` is the one erf path (scipy is a declared
    dependency); it is imported here, on first use, because importing
    scipy at module level would slow every run's start-up.
    """
    from math import sqrt

    from scipy.special import erf

    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


def black_scholes(
    stock: np.ndarray,
    strike: np.ndarray,
    expiry: np.ndarray,
    volatility: np.ndarray,
    risk_free_rate: float = 0.02,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Black-Scholes call and put prices."""
    stock = np.asarray(stock, dtype=np.float64)
    strike = np.asarray(strike, dtype=np.float64)
    expiry = np.maximum(np.asarray(expiry, dtype=np.float64), 1e-4)
    volatility = np.maximum(np.asarray(volatility, dtype=np.float64), 1e-4)

    sqrt_t = np.sqrt(expiry)
    d1 = (
        np.log(np.maximum(stock, 1e-6) / np.maximum(strike, 1e-6))
        + (risk_free_rate + 0.5 * volatility**2) * expiry
    ) / (volatility * sqrt_t)
    d2 = d1 - volatility * sqrt_t
    discount = np.exp(-risk_free_rate * expiry)
    call = stock * _norm_cdf(d1) - strike * discount * _norm_cdf(d2)
    put = strike * discount * _norm_cdf(-d2) - stock * _norm_cdf(-d1)
    return call.astype(np.float32), put.astype(np.float32)


class BlackScholesWorkload(Workload):
    """BS: European option pricing over a portfolio of options."""

    name = "BS"
    description = "Options pricing"
    input_description = "4 M options"
    error_metric = "MRE"
    approx_region_count = 4
    ops_per_byte = 3.0

    #: paper-scale option count
    FULL_OPTIONS = 4_000_000
    #: risk-free rate used for every option
    RISK_FREE_RATE = 0.02

    def generate(self) -> dict[str, Region]:
        options = self.scaled(self.FULL_OPTIONS, minimum=1024)
        # Market data carries limited precision (sub-cent price ticks and
        # quantized expiries/volatilities).
        stock = quantize_varying(
            clustered_values(self.rng, options, centers=(20.0, 40.0, 60.0, 90.0), runs=32),
            self.rng, 8, 16,
        )
        strike = quantize_varying(
            clustered_values(self.rng, options, centers=(25.0, 45.0, 65.0, 85.0), runs=32),
            self.rng, 8, 16,
        )
        expiry = quantize_varying(
            clustered_values(
                self.rng, options, centers=(0.25, 0.5, 1.0, 2.0), spread=0.02, runs=32
            ),
            self.rng, 8, 14,
        )
        volatility = quantize_varying(
            clustered_values(
                self.rng, options, centers=(0.1, 0.2, 0.35, 0.5), spread=0.03, runs=32
            ),
            self.rng, 8, 14,
        )
        return {
            "stock_price": Region("stock_price", stock, approximable=True),
            "strike_price": Region("strike_price", strike, approximable=True),
            "expiry": Region("expiry", expiry, approximable=True),
            "volatility": Region("volatility", volatility, approximable=True),
        }

    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        call, put = black_scholes(
            arrays["stock_price"],
            arrays["strike_price"],
            arrays["expiry"],
            arrays["volatility"],
            risk_free_rate=self.RISK_FREE_RATE,
        )
        return WorkloadOutput(arrays={"call": call, "put": put})

    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        call_error = mean_relative_error_percent(exact["call"], approx["call"])
        put_error = mean_relative_error_percent(exact["put"], approx["put"])
        return (call_error + put_error) / 2.0
