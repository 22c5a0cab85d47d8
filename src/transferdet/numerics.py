"""Numerically stable activations and a finite-difference gradient checker.

Every analytic gradient in this package is validated against central
differences through :func:`grad_check`; the checker is deliberately
independent of the code paths it verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Lower bound for probabilities inside log(): keeps losses finite without
# measurable bias at float64.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one finite-difference comparison."""

    max_relative_error: float
    worst_coordinate: int
    passed: bool


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of a 1-D logit vector, stable under large magnitudes."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite logits")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def column_softmax(logits: np.ndarray) -> np.ndarray:
    """Per-column softmax of a logit matrix, or of a stack of them.

    The softmax runs over axis -2, so a (M, C+1, K) stack gives each of its
    M matrices exactly what the 2-D call on that matrix gives.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim < 2:
        raise ValueError(
            f"expected a matrix or a stack of them, got shape {logits.shape}"
        )
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite logits")
    if logits.shape[-1] == 0:
        return np.zeros_like(logits)
    shifted = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-2, keepdims=True)


def sigmoid(x):
    """Logistic function, stable for arguments of any magnitude."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def grad_check(
    f: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    point: np.ndarray,
    step: float = 1e-5,
    tolerance: float = 1e-6,
) -> GradCheckReport:
    """Compare ``analytic_grad`` against central differences of ``f`` at ``point``.

    The per-coordinate relative error is |a - n| / max(1, |a| + |n|); the
    denominator floor avoids blow-ups near zero gradients.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic_grad, dtype=float)
    if analytic.shape != point.shape:
        raise ValueError(
            f"analytic gradient shape {analytic.shape} != point shape {point.shape}"
        )

    flat_point = point.ravel()
    flat_analytic = analytic.ravel()
    max_err = 0.0
    worst = 0
    for i in range(flat_point.size):
        probe = flat_point.copy()
        probe[i] = flat_point[i] + step
        f_plus = f(probe.reshape(point.shape))
        probe[i] = flat_point[i] - step
        f_minus = f(probe.reshape(point.shape))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value while probing coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = flat_analytic[i]
        err = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
        if err > max_err:
            max_err = err
            worst = i
    return GradCheckReport(
        max_relative_error=max_err,
        worst_coordinate=worst,
        passed=max_err <= tolerance,
    )
