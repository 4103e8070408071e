"""Third-cumulant estimators on finite real arrays.

The third-order cumulant is the mean of triple products of deviations
from the mean; it vanishes for any distribution that is symmetric about
its mean, so it separates skewed signals from Gaussian-like noise. Each
estimator takes a 1-D array-like of finite reals and centres it itself,
since a cumulant is defined about the mean; `mean_cube_axis0` is their
shared kernel. They reduce the samples scaled by a power of two, so any
finite input whose cumulant is in the float range gives that cumulant,
never NaN or an overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HocdvsError

__all__ = [
    "third_cumulant_lagged",
    "third_cumulant_zero_lag",
]


def _centered(x) -> tuple[np.ndarray, int]:
    """x as a float64 vector scaled by 2**-e, where e is the binary exponent
    of max|x|, minus its mean, with e; checks x's shape, its length and that
    every sample is finite. Each scaled sample is below 1 in magnitude, so no
    sum or cube of them overflows, and the power-of-two scale is exact."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise HocdvsError("sequence must contain at least one sample")
    # NaN propagates through min and max, so no mask is needed
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("samples must be finite")
    e = math.frexp(max(-lo, hi))[1]
    arr = np.ldexp(arr, -e)
    return arr - arr.mean(), e


def _unscaled(reduced: float, e: int) -> float:
    """A cube statistic of samples scaled by 2**-e, scaled back by 2**(3e)."""
    try:
        return math.ldexp(reduced, 3 * e)
    except OverflowError:
        raise ValueError("third cumulant exceeds the float range") from None


def third_cumulant_lagged(x, tau1: int, tau2: int) -> float:
    """Lagged third-cumulant estimate of a 1-D array of finite reals.

    Centres x, then sums s[t] * s[t+tau1] * s[t+tau2] over every t for
    which all three indices are in range, and divides by that effective
    term count, so the zero-lag case coincides with the mean cube. Both
    lags must be non-negative integers. Raises ValueError when the
    cumulant exceeds the float range.
    """
    for name, tau in (("tau1", tau1), ("tau2", tau2)):
        # the range test comes first, so NaN and inf never reach int()
        if not 0 <= tau < np.inf or int(tau) != tau:
            raise ValueError(f"{name} must be a non-negative integer, got {tau!r}")
    tau1, tau2 = int(tau1), int(tau2)
    s, e = _centered(x)
    n = s.size
    lag = max(tau1, tau2)
    if lag >= n:
        raise HocdvsError(f"lag {lag} >= sequence length {n}")
    n_eff = n - lag
    prod = s[:n_eff] * s[tau1 : tau1 + n_eff] * s[tau2 : tau2 + n_eff]
    return _unscaled(float(prod.sum() / n_eff), e)


def mean_cube_axis0(values: np.ndarray) -> np.ndarray:
    """Mean of values**3 along the first axis, formed from products.

    numpy evaluates `x**3` through generic `pow`, which costs tens of
    times more than multiplying. einsum multiplies and sums in one pass
    without a full-size temporary, so a W x M matrix reduces straight to
    M per-column means, and a vector to a 0-d array.
    """
    return np.einsum("i...,i...,i...->...", values, values, values) / values.shape[0]


def third_cumulant_zero_lag(x) -> float:
    """Mean cube of x about its mean (both lags zero). Raises ValueError when
    the cumulant exceeds the float range."""
    s, e = _centered(x)
    return _unscaled(float(mean_cube_axis0(s)), e)
