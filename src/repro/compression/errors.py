"""Error metrics used by the compressor and by the output-quality tables."""

from __future__ import annotations

import numpy as np


def relative_error(
    original: np.ndarray, approx: np.ndarray, eps: float = 1e-30
) -> np.ndarray:
    """Element-wise relative error ``|a - o| / |o|``.

    Where the original is (near) zero the error is measured against
    ``eps`` so that an exactly-preserved zero scores 0 and any deviation
    scores large (and will be treated as an outlier / real error).
    """
    original = np.asarray(original, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    denom = np.maximum(np.abs(original), eps)
    with np.errstate(invalid="ignore"):
        return np.abs(approx - original) / denom


def mean_relative_error(
    original: np.ndarray, approx: np.ndarray, floor_fraction: float = 1e-3
) -> float:
    """The paper's output-quality metric: mean of per-value relative errors.

    Per-value relative error is ill-defined where the reference value is
    (near) zero, so denominators are floored at ``floor_fraction`` of
    the reference's mean magnitude: deviations on effectively-zero
    values are measured against that scale floor instead of blowing up.
    Runaway outputs still register as huge errors (numerator-driven),
    preserving the paper's ">100%" failure cases.
    """
    original = np.asarray(original, dtype=np.float64).ravel()
    approx = np.asarray(approx, dtype=np.float64).ravel()
    if original.size == 0:
        return 0.0
    if original.shape != approx.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {approx.shape}")
    magnitudes = np.abs(original)
    mean = magnitudes.mean()
    scale = float(mean) if np.isfinite(mean) else 1.0
    floor = max(floor_fraction * scale, 1e-30)
    denom = np.maximum(magnitudes, floor)
    err = np.abs(approx - original) / denom
    # Guard against NaN/Inf poisoning the mean (e.g. runaway outputs):
    # count non-finite entries as 100% error each, as a runaway would.
    err = np.where(np.isfinite(err), err, 1.0)
    return float(err.mean())
