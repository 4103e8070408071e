"""Third-cumulant estimators on finite real sequences.

The third-order cumulant of a zero-mean sequence is the mean of triple
products; it vanishes for any distribution that is symmetric about zero,
so it separates skewed signals from Gaussian-like noise. Every estimator
here demands explicitly centered input: centering travels with the data
as a flag, and a forgotten centering step fails loudly instead of
silently biasing the estimate; `mean_cube_axis0` is their shared kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HocdvsError

# |mean| must stay below this times max(1, max|sample|) for centered data.
CENTER_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Return arr read-only, copying it unless it owns its data and is
    already read-only, so no caller can write to the result."""
    if not arr.flags.owndata or arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_centered(rows: np.ndarray) -> None:
    """Raise unless each row has |mean| <= CENTER_TOL * max(1, max|sample|)."""
    mean = rows.mean(axis=-1)
    off = np.abs(mean) > CENTER_TOL * np.maximum(1.0, np.max(np.abs(rows), axis=-1))
    if np.any(off):
        raise HocdvsError(f"sequence flagged centered but mean is {mean[off].flat[0]:.3e}")


@dataclass(frozen=True, eq=False)
class Sequence:
    """A finite real-valued time series with an explicit centering flag."""

    samples: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise HocdvsError("sequence must contain at least one sample")
        if self.centered:
            _check_centered(arr)
        object.__setattr__(self, "samples", _freeze(arr))

    def __len__(self) -> int:
        return int(self.samples.size)


def center(x: Sequence) -> Sequence:
    """Subtract the sample mean and mark the result centered."""
    return Sequence(x.samples - x.samples.mean(), centered=True)


def _require_centered(x: Sequence) -> None:
    if not x.centered:
        raise HocdvsError("argument 1 is not centered")


def third_cumulant_lagged(x: Sequence, tau1: int, tau2: int) -> float:
    """Lagged third-cumulant estimate of a centered sequence.

    Sums x[t] * x[t+tau1] * x[t+tau2] over every t for which all three
    indices are in range, and divides by that effective term count, so
    the zero-lag case coincides with the mean cube. Both lags must be
    non-negative integers.
    """
    for name, tau in (("tau1", tau1), ("tau2", tau2)):
        if int(tau) != tau or tau < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {tau!r}")
    tau1, tau2 = int(tau1), int(tau2)
    _require_centered(x)
    n = len(x)
    lag = max(tau1, tau2)
    if lag >= n:
        raise HocdvsError(f"lag {lag} >= sequence length {n}")
    n_eff = n - lag
    s = x.samples
    prod = s[:n_eff] * s[tau1 : tau1 + n_eff] * s[tau2 : tau2 + n_eff]
    return float(prod.sum() / n_eff)


def mean_cube_axis0(values: np.ndarray) -> np.ndarray:
    """Mean of values**3 along the first axis, formed from products.

    numpy evaluates `x**3` through generic `pow`, which costs tens of
    times more than multiplying. einsum multiplies and sums in one pass
    without a full-size temporary, so a W x M matrix reduces straight to
    M per-column means, and a vector to a 0-d array.
    """
    return np.einsum("i...,i...,i...->...", values, values, values) / values.shape[0]


def third_cumulant_zero_lag(x: Sequence) -> float:
    """Mean cube of a centered sequence (both lags zero)."""
    _require_centered(x)
    return float(mean_cube_axis0(x.samples))
