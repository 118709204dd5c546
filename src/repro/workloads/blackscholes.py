"""BS — Black-Scholes European option pricing (CUDA SDK).

Prices a portfolio of European call and put options from per-option stock
price, strike, time-to-expiry and volatility arrays.  The four input arrays
are the benchmark's four approximable regions (#AR = 4); the error metric is
the mean relative error of the computed prices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.error import mean_relative_error_percent
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.datagen import clustered_values, quantize_varying

_SQRT2 = math.sqrt(2.0)


# Coefficients of cephes ``ndtr.c``, highest power first: erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1 and erfc(x) = exp(-x^2) P(x) / Q(x) below 8,
# R(x) / S(x) from 8.  U, Q and S start with the leading 1 that cephes'
# ``p1evl`` implies (1.0 * x == x, so writing it out changes no bit).
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
#: cephes' natural log of the largest double: erfc is 0 once -x^2 is below -MAXLOG
_MAXLOG = 7.09782712893383996843e2
#: |x| is capped here, past the underflow cut at sqrt(MAXLOG) ~ 26.64, so
#: squaring it cannot overflow
_ERF_CAP = 27.0
#: values per slice, so the temporaries of a 4 M-value call stay small and
#: in cache
_ERF_SLICE = 65_536


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """cephes ``polevl``: Horner's rule, highest power first."""
    result = np.full_like(x, coefficients[0])
    for coefficient in coefficients[1:]:
        result *= x
        result += coefficient
    return result


def _erf_slice(x: np.ndarray, out: np.ndarray) -> None:
    """Write :func:`erf` of the 1-D slice ``x`` into ``out``."""
    magnitude = np.abs(x)
    out.fill(np.nan)  # NaN in, NaN out
    inner = magnitude <= 1.0
    # x T(x^2) / U(x^2) is odd as computed, so it takes x's sign itself
    # (erf(-0.0) is -0.0)
    s = x[inner]
    z = s * s
    y = s * _polevl(z, _T)
    y /= _polevl(z, _U)
    out[inner] = y
    tail = magnitude > 1.0
    signed = x[tail]
    t = np.minimum(np.abs(signed), _ERF_CAP)
    z = -t * t
    # NumPy's complex exp with a zero imaginary part is libm's exp; its
    # float exp is a SIMD kernel that differs from libm in the last bit
    scaled = np.exp(z.astype(np.complex128)).real
    erfc = np.empty_like(t)
    near = t < 8.0
    tn = t[near]
    erfc[near] = scaled[near] * _polevl(tn, _P) / _polevl(tn, _Q)
    far = ~near
    tf = t[far]
    erfc[far] = scaled[far] * _polevl(tf, _R) / _polevl(tf, _S)
    erfc[z < -_MAXLOG] = 0.0
    np.subtract(1.0, erfc, out=erfc)
    out[tail] = np.copysign(erfc, signed, out=erfc)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function in float64, bit for bit as cephes ``ndtr.c`` (and
    so ``scipy.special.erf``) computes it with libm's ``exp``.

    It follows cephes step for step: ``x T(x^2) / U(x^2)`` for |x| <= 1,
    else ``1 - exp(-x^2) P(|x|) / Q(|x|)`` (R and S in place of P and Q
    from |x| >= 8, and 0 for the erfc part once -x^2 is below -MAXLOG),
    negated for negative x; NaN gives NaN.  It is exactly odd.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    result = np.empty_like(flat)
    for start in range(0, flat.shape[0], _ERF_SLICE):
        _erf_slice(flat[start:start + _ERF_SLICE], result[start:start + _ERF_SLICE])
    return result.reshape(x.shape)


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
    # N(d) = (1 + erf(d / sqrt 2)) / 2, and N(-d) = (1 - erf(d / sqrt 2)) / 2
    # bit for bit: erf is exactly odd and (-d) / sqrt 2 == -(d / sqrt 2)
    erf1 = erf(d1 / _SQRT2)
    erf2 = erf(d2 / _SQRT2)
    call = stock * (0.5 * (1.0 + erf1)) - strike * discount * (0.5 * (1.0 + erf2))
    put = strike * discount * (0.5 * (1.0 - erf2)) - stock * (0.5 * (1.0 - erf1))
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
