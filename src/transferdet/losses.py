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

    Defaults: the fine-tuning stage weighs both regularizers at 0.5 with a
    unit main loss; the weakly-supervised stage scales distillation by 150
    and the labelling loss by 50.
    """

    lambda_main: float = 1.0
    lambda_bd: float = 0.5
    lambda_sdk: float = 0.5
    lambda_wstd_sdk: float = 150.0
    lambda_wstd_rol: float = 50.0

    def __post_init__(self):
        for name in (
            "lambda_main",
            "lambda_bd",
            "lambda_sdk",
            "lambda_wstd_sdk",
            "lambda_wstd_rol",
        ):
            if getattr(self, name) < 0:
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


def sdk_loss(
    teacher: np.ndarray,
    student_logits: np.ndarray,
    weighted: bool | Sequence[bool] = False,
) -> tuple[float, np.ndarray]:
    """Cross entropy from a frozen teacher distribution to student logits.

    Student probabilities are the per-column softmax of ``student_logits``.
    In the weighted variant each term is additionally scaled by the teacher
    probability itself, emphasizing the classes the teacher is confident
    about.  The gradient is closed form through the softmax.  The 2-D
    ``teacher`` is shared by every member of stacked logits, and
    ``weighted`` may be one flag per member.  The teacher is checked with
    :func:`check_score_matrix`.
    """
    return _sdk_loss(check_score_matrix(teacher), student_logits, weighted)


def _sdk_loss(
    teacher: np.ndarray,
    student_logits: np.ndarray,
    weighted: bool | Sequence[bool] | np.ndarray,
) -> tuple[float, np.ndarray]:
    """:func:`sdk_loss` on a float teacher already checked by
    :func:`check_score_matrix`, such as a scene pack's."""
    student_logits = np.asarray(student_logits, dtype=float)
    if teacher.shape != student_logits.shape[-2:]:
        raise ValueError(
            f"teacher shape {teacher.shape} != student shape {student_logits.shape}"
        )
    probs = column_softmax(student_logits)
    flags = np.asarray(weighted, dtype=bool)[..., None, None]
    target = np.where(flags, teacher * teacher, teacher)
    value = -_per_member(target * np.log(np.maximum(probs, PROB_FLOOR)), (-2, -1))
    # Per column k: d/dz of -sum_c target(c,k) log softmax(z)(c,k)
    #             = probs(:,k) * sum_c target(c,k) - target(:,k)
    col_mass = target.sum(axis=-2, keepdims=True)
    grad = probs * col_mass - target
    return value, grad


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


def rol_classifier_loss(
    student_logits: np.ndarray, pseudo: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross entropy between softmaxed classifier logits and pseudo labels.

    Pseudo-label columns are either all-zero (unlabelled proposal,
    contributing exactly zero loss and gradient) or carry a single soft
    weight on the mined class.
    """
    student_logits = np.asarray(student_logits, dtype=float)
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.shape != student_logits.shape:
        raise ValueError(
            f"pseudo label shape {pseudo.shape} != logits shape {student_logits.shape}"
        )
    if (pseudo < 0).any():
        raise ValueError("pseudo labels must be nonnegative")
    probs = column_softmax(student_logits)
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


def proposal_cls_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Fully supervised per-proposal cross entropy (the main detection loss).

    ``labels`` holds one integer class per proposal, the background class
    being the last row index; they are checked with :func:`check_labels`.
    Stacked (M, C+1, K) logits share (K,) labels or take one label row per
    member, as (M, K).
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim >= 2:
        check_labels(labels, logits.shape[-2])
    return _proposal_cls_loss(logits, labels)


def _proposal_cls_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """:func:`proposal_cls_loss` on integer labels already checked by
    :func:`check_labels`, such as a scene pack's."""
    stacked = logits.ndim == 3 and labels.shape == (logits.shape[0], logits.shape[-1])
    if logits.ndim < 2 or not (stacked or labels.shape == (logits.shape[-1],)):
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    probs = column_softmax(logits)
    rows = np.arange(len(labels))[:, None] if stacked else Ellipsis
    index = (rows, labels, np.arange(logits.shape[-1]))
    # The gather of shared labels from a stack comes out member-minor; a
    # C-ordered copy makes each member's row sum add in the order of the
    # unstacked call.
    picked = np.ascontiguousarray(probs[index])
    value = -_per_member(np.log(np.maximum(picked, PROB_FLOOR)), (-1,))
    grad = probs.copy()
    grad[index] -= 1.0
    return value, grad
