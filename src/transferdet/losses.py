"""Training losses, each returning (value, analytic gradient).

Conventions shared across the package:

* Score/logit matrices are (C+1) x K: one row per object class, the last
  row for background, one column per proposal.
* Probability matrices have nonnegative columns summing to 1.
* All cross-entropy style losses are negative-log form, so every loss is
  nonnegative and minimized.
* Sibling trainings run in lockstep (see :mod:`transferdet.pipeline`), so
  the logit and grid arguments may carry a leading member axis: (M, C+1, K)
  logits or (M, H, W, D) grids.  A loss then returns one value per member,
  as an array of that leading shape, and the stacked gradient; each
  member's slice is bit-identical to the unstacked call, which still
  returns a float.  Teachers, labels and masks are shared by all members
  unless given stacked too.
* Inputs are checked where they enter, once: teachers with
  :func:`check_score_matrix`, proposal labels with :func:`check_labels`
  (which :func:`proposal_targets` calls) and pseudo labels from outside
  the labeller with :func:`check_pseudo`.  The losses take them as
  checked and test only that shapes agree.
* What does not change between a training's steps is built once, with
  the scene packs: :func:`proposal_cls_loss` takes one-hot targets
  (:func:`proposal_targets`) rather than integer labels, and
  :func:`sdk_loss` takes the distillation target and its column mass
  (:func:`sdk_target`) rather than the teacher.

The losses here are the background-activation penalty (``bd_loss``), the
teacher-student distillation loss (``sdk_loss``), the image-level
multi-label loss driving the first pseudo-labelling classifier, the
pseudo-label cross-entropy for the later classifiers, and the fully
supervised proposal loss.  The per-stage weighted totals are summed by the
scene losses in :mod:`transferdet.pipeline`, with :class:`LossWeights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BBox, coverage_masks
from .numerics import PROB_FLOOR, column_softmax, sigmoid


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the per-stage weighted loss totals.

    The main proposal loss has unit weight.  Defaults: the fine-tuning
    stage weighs both regularizers at 0.5; the weakly-supervised stage
    scales distillation by 150 and the labelling loss by 50.
    """

    lambda_bd: float = 0.5
    lambda_sdk: float = 0.5
    lambda_wstd_sdk: float = 150.0
    lambda_wstd_rol: float = 50.0

    def __post_init__(self):
        for name in (
            "lambda_bd",
            "lambda_sdk",
            "lambda_wstd_sdk",
            "lambda_wstd_rol",
        ):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")


def check_score_matrix(scores: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate a probability matrix: nonnegative columns summing to 1."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"score matrix must be 2-D, got shape {scores.shape}")
    if (scores < 0).any():
        raise ValueError("score matrix has negative entries")
    if scores.shape[1] > 0:
        sums = scores.sum(axis=0)
        bad = np.abs(sums - 1.0) > tol
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"score column {k} sums to {sums[k]}, expected 1")
    return scores


def _per_member(total: np.ndarray, axes: tuple[int, ...]):
    """Sum over ``axes``: a float for one member, else one value per member."""
    value = total.sum(axis=axes)
    return float(value) if value.ndim == 0 else value


def bd_mask(grid_height: int, grid_width: int, gt_boxes: Sequence[BBox]) -> np.ndarray:
    """Boolean H x W mask, True where a cell belongs to the background.

    A cell is foreground iff its center lies inside at least one
    ground-truth box; an empty box list makes everything background.
    """
    if grid_height < 1 or grid_width < 1:
        raise ValueError("grid dimensions must be >= 1")
    return ~coverage_masks(grid_height, grid_width, gt_boxes).any(axis=0)


def bd_loss(grid: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared-L2 penalty on backbone activations over background cells.

    Returns the sum of squared activations across all channels of
    background cells, and its gradient with respect to the grid (exactly
    zero on foreground cells).  A (M, H, W, D) stack of grids gives one
    value per member.
    """
    grid = np.asarray(grid, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if grid.ndim < 3:
        raise ValueError(f"feature grid must be H x W x D, got shape {grid.shape}")
    if mask.shape != grid.shape[-3:-1]:
        raise ValueError(
            f"mask shape {mask.shape} does not match grid cells {grid.shape[-3:-1]}"
        )
    weighted = grid * mask[:, :, None]
    value = _per_member(weighted * weighted, (-3, -2, -1))
    grad = 2.0 * weighted
    return value, grad


def sdk_target(
    teacher: np.ndarray, weighted: bool | Sequence[bool] | np.ndarray = False
) -> tuple[np.ndarray, np.ndarray]:
    """The target of :func:`sdk_loss` and its column sums, the mass.

    The target is the teacher, or the squared teacher in the weighted
    variant, which scales each term by the teacher probability itself to
    emphasize the classes the teacher is confident about.  ``weighted`` may
    be one flag per member, which stacks the (rows, K) target along a
    leading member axis; the mass is (..., 1, K).  ``teacher`` is a float
    matrix that has passed :func:`check_score_matrix`.
    """
    flags = np.asarray(weighted, dtype=bool)[..., None, None]
    target = np.where(flags, teacher * teacher, teacher)
    return target, target.sum(axis=-2, keepdims=True)


def sdk_loss(
    target: np.ndarray, mass: np.ndarray, student_logits: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross entropy from a frozen teacher's target to student logits.

    Student probabilities are the per-column softmax of ``student_logits``;
    ``target`` and its column sums ``mass`` come from :func:`sdk_target`.
    The gradient is closed form through the softmax.  A 2-D target is
    shared by every member of stacked logits, and a stacked one gives one
    target per member; only its shape is checked.
    """
    student_logits = np.asarray(student_logits, dtype=float)
    if target.shape not in (student_logits.shape, student_logits.shape[-2:]):
        raise ValueError(
            f"teacher shape {target.shape} != student shape {student_logits.shape}"
        )
    probs = column_softmax(student_logits)
    terms = np.log(np.maximum(probs, PROB_FLOOR))
    value = -_per_member(np.multiply(target, terms, out=terms), (-2, -1))
    # Per column k: d/dz of -sum_c target(c,k) log softmax(z)(c,k)
    #             = probs(:,k) * sum_c target(c,k) - target(:,k)
    grad = np.multiply(probs, mass, out=probs)
    return value, np.subtract(grad, target, out=grad)


def image_multilabel_loss(
    classifier1_logits: np.ndarray, y_img: np.ndarray
) -> tuple[float, np.ndarray]:
    """Binary cross entropy between image scores and the image label vector,
    differentiated to the classifier logits.

    With z the per-class logit sums over proposals, object rows only (the
    trailing background row is left out), the image scores are
    ``p = sigmoid(z)`` and the value is ``sum(softplus(z) - y * z)``, which
    equals ``-sum(y log p + (1 - y) log(1 - p))`` but stays exact where p
    saturates.  The gradient with respect to logit (c, k) collapses to
    p_c - y_c for object rows and zero for the background row.
    """
    logits = np.asarray(classifier1_logits, dtype=float)
    if logits.ndim < 2 or logits.shape[-2] < 2:
        raise ValueError(f"expected (C+1) x K logits, got shape {logits.shape}")
    if logits.shape[-1] == 0:
        raise ValueError("image score needs at least one proposal")
    z = logits[..., :-1, :].sum(axis=-1)
    y = np.asarray(y_img, dtype=float)
    if z.shape[-1:] != y.shape:
        raise ValueError(f"score shape {z.shape} != label shape {y.shape}")
    value = _per_member(np.logaddexp(0.0, z) - y * z, (-1,))
    grad = np.zeros_like(logits)
    grad[..., :-1, :] = (sigmoid(z) - y)[..., None]
    return value, grad


def check_pseudo(pseudo: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validate pseudo labels for logits of ``shape``: a float array of that
    shape with no negative entry."""
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.shape != shape:
        raise ValueError(f"pseudo label shape {pseudo.shape} != logits shape {shape}")
    if (pseudo < 0).any():
        raise ValueError("pseudo labels must be nonnegative")
    return pseudo


def rol_classifier_loss(
    probs: np.ndarray, pseudo: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross entropy between classifier probabilities and pseudo labels,
    differentiated to the classifier logits.

    ``probs`` is the column softmax of the logits, so that a step can share
    one softmax between its labeller and this loss.  Pseudo-label columns
    are either all-zero (unlabelled proposal, contributing exactly zero
    loss and gradient) or carry a single soft weight on the mined class;
    labels from outside the labeller have passed :func:`check_pseudo`.
    """
    value = -_per_member(pseudo * np.log(np.maximum(probs, PROB_FLOOR)), (-2, -1))
    col_mass = pseudo.sum(axis=-2, keepdims=True)
    grad = probs * col_mass - pseudo
    return value, grad


def check_labels(labels: np.ndarray, rows: int) -> np.ndarray:
    """Validate integer proposal labels for (rows) x K logits: every label
    a class index in [0, rows), the last one background."""
    labels = np.asarray(labels, dtype=int)
    if (labels < 0).any() or (labels >= rows).any():
        raise ValueError("label index outside class range")
    return labels


def proposal_targets(labels: np.ndarray, rows: int) -> np.ndarray:
    """One-hot (..., rows, K) targets of (..., K) integer proposal labels,
    which :func:`check_labels` checks first: 1.0 at each proposal's class,
    else 0.0."""
    labels = check_labels(labels, rows)
    return (labels[..., None, :] == np.arange(rows)[:, None]).astype(float)


def proposal_cls_loss(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Fully supervised per-proposal cross entropy (the main detection loss).

    ``targets`` is the one-hot :func:`proposal_targets` of the proposals'
    labels, the background class being the last row.  Stacked (M, C+1, K)
    logits share (C+1, K) targets or take one target matrix per member.
    Each column's picked probability is ``(probs * targets).sum(-2)``: one
    probability plus exact zeros, so it is the probability itself, and the
    gradient ``probs - targets`` subtracts 1.0 at the label alone.
    """
    if logits.ndim < 2 or targets.shape not in (logits.shape, logits.shape[-2:]):
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    probs = column_softmax(logits)
    picked = (probs * targets).sum(axis=-2)
    np.log(np.maximum(picked, PROB_FLOOR, out=picked), out=picked)
    return -_per_member(picked, (-1,)), np.subtract(probs, targets, out=probs)
