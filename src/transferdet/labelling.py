"""Pseudo-label mining for the recurrent classifier stack.

Given detached scores from the previous classifier, each present class
contributes its single most confident proposal as a seed.  Proposals
tightly overlapping a seed inherit its class; proposals with moderate
overlap become confident background; everything else stays unlabelled.
``oicr_label`` is the baseline variant that labels every leftover proposal
as background instead of leaving it out.
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
    background band (phi_bg < IoU < phi_obj).
    """

    phi_obj: float = 0.5
    phi_bg: float = 0.3
    num_classifiers: int = 3

    def __post_init__(self):
        if not (0.0 <= self.phi_bg < self.phi_obj <= 1.0):
            raise ValueError(
                f"need 0 <= phi_bg < phi_obj <= 1, got ({self.phi_bg}, {self.phi_obj})"
            )
        if self.num_classifiers < 2:
            raise ValueError("need at least two classifiers")


def present_classes(y_img: np.ndarray) -> list[int]:
    y = np.asarray(y_img)
    classes = [int(c) for c in np.nonzero(y)[0]]
    if not classes:
        raise ValueError("image label marks no present class")
    return classes


def top_proposal(scores: np.ndarray, class_index: int) -> int:
    """Index of the most confident proposal for an object class.

    Ties keep the lowest proposal index.  The background row may not be
    queried.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError(f"expected (C+1) x K scores with K >= 1, got {scores.shape}")
    num_object_rows = scores.shape[0] - 1
    if not (0 <= class_index < num_object_rows):
        raise ValueError(
            f"class index {class_index} is not an object row (0..{num_object_rows - 1})"
        )
    return int(np.argmax(scores[class_index, :]))


def _class_seeds(
    prev_scores: np.ndarray, y_img: np.ndarray
) -> list[tuple[int, int, float]]:
    """(class, seed proposal, seed score) for every present class."""
    return [
        (c, j, float(prev_scores[c, j]))
        for c in present_classes(y_img)
        for j in [top_proposal(prev_scores, c)]
    ]


def _object_labels(
    prev_scores: np.ndarray,
    boxes: Sequence[BBox],
    y_img: np.ndarray,
    cfg: ROLConfig,
    iou_cache: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, int, float]], np.ndarray]:
    """Shared object-labelling step of both labellers.

    Returns the pseudo matrix with object labels filled in, the class
    seeds, and the per-proposal best background candidate weight
    (moderate-overlap band; -inf where the band never hit) for the
    selective labeller.  ``iou_cache`` may hold the precomputed pairwise
    IoU matrix of ``boxes`` to spare recomputation inside training loops.
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

    seeds = _class_seeds(prev_scores, y_img)
    seed_idx = [j for _, j, _ in seeds]
    if iou_cache is None:
        seed_cols = pairwise_iou(boxes, [boxes[j] for j in seed_idx])
    else:
        seed_cols = iou_cache[:, seed_idx]

    pseudo = np.zeros_like(prev_scores)
    # Winning object label per proposal; conflicts keep the larger weight,
    # ties the lower class index.  The class sentinel never survives because
    # any real seed beats weight -inf first.
    best_w = np.full(k_total, -np.inf)
    best_c = np.full(k_total, num_classes, dtype=int)
    bg_best = np.full(k_total, -np.inf)

    for col, (c, _, s) in enumerate(seeds):
        overlap = seed_cols[:, col]
        take = (overlap > cfg.phi_obj) & (
            (s > best_w) | ((s == best_w) & (c < best_c))
        )
        best_w[take] = s
        best_c[take] = c
        band = (cfg.phi_bg < overlap) & (overlap < cfg.phi_obj)
        np.maximum(bg_best, np.where(band, s, -np.inf), out=bg_best)

    labelled = np.nonzero(np.isfinite(best_w))[0]
    pseudo[best_c[labelled], labelled] = best_w[labelled]
    return pseudo, seeds, bg_best


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
    going to the lower class index.
    """
    pseudo, _, bg_best = _object_labels(prev_scores, boxes, y_img, cfg, iou_cache)
    bg_row = pseudo.shape[0] - 1
    support_bg = np.isfinite(bg_best) & ~pseudo.any(axis=0)
    pseudo[bg_row, support_bg] = bg_best[support_bg]
    return pseudo


def oicr_label(
    prev_scores: np.ndarray,
    boxes: Sequence[BBox],
    y_img: np.ndarray,
    cfg: ROLConfig,
    iou_cache: np.ndarray | None = None,
) -> np.ndarray:
    """Baseline labeller: background assigned without selection.

    Object labelling is identical to :func:`mine_support`, but every
    proposal left without an object label becomes background, weighted by
    the maximum seed score among present classes, so no column stays zero.
    """
    pseudo, seeds, _ = _object_labels(prev_scores, boxes, y_img, cfg, iou_cache)
    bg_row = pseudo.shape[0] - 1
    bg_weight = max(s for _, _, s in seeds)
    pseudo[bg_row, ~pseudo.any(axis=0)] = bg_weight
    return pseudo
