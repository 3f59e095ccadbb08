"""Non-dominated sorting over candidate metric vectors.

Pure numpy, deterministic, O(n^2) pairwise domination — a plan space
is a handful to a few dozen candidates, so clarity wins over
asymptotics.

Direction handling: metrics named in :data:`repro.planner.spec.MAXIMIZE`
(compression ratio) are negated into minimization space once, so the
core works on a single convention — *smaller is better on every
column*.
"""

from __future__ import annotations

import numpy as np

from .spec import MAXIMIZE

__all__ = ["metric_matrix", "nondominated_mask"]


def metric_matrix(
    metric_rows: list[dict[str, float]], metrics: tuple[str, ...]
) -> np.ndarray:
    """Stack per-candidate metric dicts into minimization space.

    Returns an ``(n_candidates, n_metrics)`` float64 matrix with
    maximize-direction columns negated, ready for the domination
    kernel below.
    """
    matrix = np.empty((len(metric_rows), len(metrics)), dtype=np.float64)
    for j, metric in enumerate(metrics):
        sign = -1.0 if metric in MAXIMIZE else 1.0
        matrix[:, j] = [sign * row[metric] for row in metric_rows]
    return matrix


def nondominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the Pareto front of ``values`` (minimize-all).

    Row ``a`` dominates row ``b`` iff ``a <= b`` everywhere and
    ``a < b`` somewhere; the mask marks rows no other row dominates.
    Duplicate rows do not dominate each other, so ties all stay on the
    front (deterministic and order-independent).
    """
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D metric matrix, got shape {values.shape}")
    n = values.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Pairwise comparison tensors: leq[i, j] = row i <= row j everywhere.
    leq = (values[:, None, :] <= values[None, :, :]).all(axis=2)
    lt = (values[:, None, :] < values[None, :, :]).any(axis=2)
    dominates = leq & lt
    return ~dominates.any(axis=0)

