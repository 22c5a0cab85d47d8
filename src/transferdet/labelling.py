"""Pseudo-label mining for the recurrent classifier stack.

Given detached scores from the previous classifier, each present class
contributes its single most confident proposal as a seed.  Proposals
tightly overlapping a seed inherit its class; proposals with moderate
overlap become confident background; everything else stays unlabelled.
The OICR variant is the baseline that labels every leftover proposal as
background instead of leaving it out.

The labeller works on rows.  A row is one (C+1) x K score matrix with its
own thresholds and labeller kind, and :func:`label_rows` labels any stack
of rows against one scene's proposal IoU matrix and present classes in one
vectorised pass; weak training labels every (classifier, member) pair of a
step that way.  It uses only argmax, max and selection, so each row is
bit-identical to labelling it alone.  :func:`mine_support` is its
one-row selective form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BBox, pairwise_iou


@dataclass(frozen=True)
class ROLConfig:
    """Thresholds and depth of the recurrent labelling stack.

    ``phi_obj`` is the minimum IoU (strict) with a class seed for a
    proposal to inherit the object label; ``phi_bg`` the lower edge of the
    background band (phi_bg < IoU < phi_obj).  No IoU exceeds 1, so
    ``phi_obj`` must stay below 1 for a seed to label even itself.
    """

    phi_obj: float = 0.5
    phi_bg: float = 0.3
    num_classifiers: int = 3

    def __post_init__(self):
        if not (0.0 <= self.phi_bg < self.phi_obj < 1.0):
            raise ValueError(
                f"need 0 <= phi_bg < phi_obj < 1, got ({self.phi_bg}, {self.phi_obj})"
            )
        if self.num_classifiers < 2:
            raise ValueError("need at least two classifiers")


def present_classes(y_img: np.ndarray) -> list[int]:
    y = np.asarray(y_img)
    classes = [int(c) for c in np.nonzero(y)[0]]
    if not classes:
        raise ValueError("image label marks no present class")
    return classes


def label_rows(
    scores: np.ndarray,
    iou: np.ndarray,
    present: np.ndarray,
    phi_obj: float | np.ndarray,
    phi_bg: float | np.ndarray,
    oicr: bool | np.ndarray,
) -> np.ndarray:
    """Pseudo labels of a stack of (C+1) x K score rows, (..., C+1, K).

    ``iou`` is the (K, K) IoU matrix of the proposals and ``present`` an
    int array of the present classes' indices, ascending and at least one;
    both are shared by every row.  ``phi_obj``, ``phi_bg`` and ``oicr`` (True for the OICR
    labeller, False for selective mining) broadcast against the rows'
    leading shape.  Per row:

    * each present class c seeds at its top proposal j_c, the lowest index
      on ties, with weight s_c = scores[c, j_c];
    * a proposal k with IoU(k, j_c) > phi_obj for some c takes the largest
      such s_c on the row of its class, ties going to the lower class;
    * a column that holds no nonzero object weight (so a seed scoring
      exactly 0.0 leaves it unlabelled) becomes background with the
      largest s_c whose band phi_bg < IoU(k, j_c) < phi_obj holds it, or
      stays all zero when no band does; under OICR it becomes background
      with the largest s_c of the row instead.

    The inputs are not checked; the one-row :func:`mine_support` checks its
    own.
    """
    obj = scores[..., present, :]
    seeds = obj.argmax(axis=-1)
    weight = obj.max(axis=-1, keepdims=True)
    overlap = iou.T[seeds]  # [..., p, k] = iou[k, seed of class p]
    phi_obj = np.asarray(phi_obj)[..., None, None]
    phi_bg = np.asarray(phi_bg)[..., None, None]

    claim = np.where(overlap > phi_obj, weight, -np.inf)
    best = claim.max(axis=-2)
    object_weight = np.where(np.isfinite(best), best, 0.0)
    winner = present[claim.argmax(axis=-2)]
    rows = np.arange(scores.shape[-2])[:, None]
    pseudo = np.where(rows == winner[..., None, :], object_weight[..., None, :], 0.0)

    band = (phi_bg < overlap) & (overlap < phi_obj)
    support = np.where(band, weight, -np.inf).max(axis=-2)
    background = np.where(np.asarray(oicr)[..., None], weight.max(axis=-2), support)
    fill = (object_weight == 0.0) & np.isfinite(background)
    pseudo[..., -1, :] = np.where(fill, background, 0.0)
    return pseudo


def mine_support(
    prev_scores: np.ndarray,
    boxes: Sequence[BBox],
    y_img: np.ndarray,
    cfg: ROLConfig,
    iou_cache: np.ndarray | None = None,
) -> np.ndarray:
    """Selective pseudo labelling of support object and background proposals.

    For each present class with seed proposal j and seed score s: proposals
    with IoU(box, box_j) > phi_obj get the class label with weight s (this
    includes j itself); proposals with IoU strictly inside (phi_bg,
    phi_obj) and no object label get the background label with weight s.
    Proposals in neither band keep an all-zero column.  Object labels beat
    background labels; among object labels the larger weight wins, ties
    going to the lower class index.  The one-row form of
    :func:`label_rows`; ``iou_cache`` may hold the pairwise IoU matrix of
    ``boxes``.
    """
    prev_scores = np.asarray(prev_scores, dtype=float)
    num_classes = prev_scores.shape[0] - 1
    k_total = prev_scores.shape[1]
    if len(boxes) != k_total:
        raise ValueError(f"{len(boxes)} boxes but {k_total} score columns")
    if len(np.asarray(y_img)) != num_classes:
        raise ValueError(
            f"image label length {len(np.asarray(y_img))} != class count {num_classes}"
        )
    present = np.array(present_classes(y_img))
    iou = pairwise_iou(boxes) if iou_cache is None else iou_cache
    return label_rows(prev_scores, iou, present, cfg.phi_obj, cfg.phi_bg, False)
