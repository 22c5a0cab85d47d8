"""Axis-aligned box arithmetic: area, IoU, greedy non-maximum suppression,
and which grid cells a box covers.

Boxes live in normalized scene coordinates, so every coordinate is in
[0, 1] and all overlap logic is resolution independent.  A box covers a
grid cell when the cell's center lies inside the box (boundary included);
scene painting, ROI pooling and the background mask all use this one test,
batched over boxes by :func:`coverage_masks`.

:func:`pairwise_iou` is elementwise and bitwise symmetric (``min``, ``max``
and ``+`` commute), so a large IoU matrix may be assembled from blocks and
transposed blocks without changing a bit.  :func:`nms` visits boxes in
descending score order and reads only the kept boxes' columns of the IoU
matrix.  Its form follows the shape of the scores: one score vector
suppresses with one vector step per kept box, and a stack of score rows
(every class of every model on every scene of an evaluation) advances all
rows in lockstep, one rank step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box (x1, y1, x2, y2) with x1 < x2 and y1 < y2.

    Degenerate (zero-area) boxes are rejected at construction: IoU is
    undefined for them and nothing in the pipeline produces them.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise ValueError(
                f"invalid box ({self.x1}, {self.y1}, {self.x2}, {self.y2}): "
                "need 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def intersection_area(a: BBox, b: BBox) -> float:
    w = min(a.x2, b.x2) - max(a.x1, b.x1)
    h = min(a.y2, b.y2) - max(a.y1, b.y1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    return inter / union


Boxes = Sequence[BBox] | np.ndarray


def box_corners(boxes: Boxes) -> np.ndarray:
    """(n, 4) float array of (x1, y1, x2, y2) rows of a box sequence; an
    array of corner rows passes through."""
    if isinstance(boxes, np.ndarray):
        return np.asarray(boxes, dtype=float).reshape(-1, 4)
    return np.array([b.as_tuple() for b in boxes], dtype=float).reshape(-1, 4)


def pairwise_iou(rows: Boxes, cols: Boxes | None = None) -> np.ndarray:
    """IoU matrix between two box sets (square when ``cols`` is None).

    Either set may be a sequence of boxes or an (n, 4) array of corner
    rows.  Entry [i, j] is bit-identical to ``iou(rows[i], cols[j])``: the
    batched arithmetic applies the same operations in the same order, so
    callers may mix the scalar and batched forms freely.
    """
    a = box_corners(rows)
    b = a if cols is None else box_corners(cols)
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((w <= 0.0) | (h <= 0.0), 0.0, w * h)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(inter == 0.0, 0.0, inter / union)


def nms(
    scores: Sequence[float] | np.ndarray,
    iou_matrix: np.ndarray,
    overlap_threshold: float,
    max_keep: int,
) -> list[int] | np.ndarray:
    """Greedy suppression in descending score order.

    A box is kept iff its IoU with every previously kept box is at most
    ``overlap_threshold``; ``iou_matrix[c, k]`` is the IoU of candidate c
    with box k, and only the columns of kept boxes are read.  Boxes are
    visited by descending score; equal scores visit the lower index first.

    The form is chosen by the shape of ``scores``:

    * (K,) scores and a (K, K) matrix return the list of at most
      ``max_keep`` kept indices in visit order.  One vector step per kept
      box suppresses its overlaps.
    * (..., K) scores are rows suppressed independently, each against the
      matrix of its batch index; the matrices' batch shape broadcasts
      against the rows', so a (S, K, K) stack serves (M, C, S, K) rows.
      All rows advance in lockstep, one rank step at a time.  Returns a
      (..., min(K, max_keep)) int array: each row's kept indices in visit
      order, padded with -1.  Row r equals the 1-D call on row r.
    """
    if not (0.0 <= overlap_threshold <= 1.0):
        raise ValueError(f"overlap_threshold {overlap_threshold} outside [0, 1]")
    if max_keep < 1:
        raise ValueError(f"max_keep must be >= 1, got {max_keep}")
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 0:
        raise ValueError("nms needs a score vector or rows of them")
    count = scores.shape[-1]
    iou_matrix = np.asarray(iou_matrix)
    if iou_matrix.ndim < 2 or iou_matrix.shape[-2:] != (count, count):
        raise ValueError(
            f"{count} scores per row but an IoU matrix of shape {iou_matrix.shape}"
        )
    order = np.argsort(-scores, axis=-1, kind="stable")
    if scores.ndim == 1:
        if iou_matrix.ndim != 2:
            raise ValueError(
                f"one score row but a stack of IoU matrices {iou_matrix.shape}"
            )
        # Each kept box i suppresses, in one vector step, every candidate c
        # with iou_matrix[c, i] above the threshold.
        alive = np.ones(count, dtype=bool)
        kept: list[int] = []
        for i in order:
            if alive[i]:
                kept.append(int(i))
                if len(kept) >= max_keep:
                    break
                alive &= iou_matrix[:, i] <= overlap_threshold
        return kept

    batch, matrix_batch = scores.shape[:-1], iou_matrix.shape[:-2]
    matrix_count = int(np.prod(matrix_batch))
    try:
        matrix_of_row = np.broadcast_to(
            np.arange(matrix_count).reshape(matrix_batch), batch
        ).ravel()
    except ValueError:
        raise ValueError(
            f"IoU matrices of batch shape {matrix_batch} do not broadcast "
            f"to score rows of batch shape {batch}"
        ) from None
    # Which pairs may coexist, as booleans: an eighth of the IoU bytes.
    compatible = (iou_matrix <= overlap_threshold).reshape(matrix_count, count, count)
    order = order.reshape(matrix_of_row.size, count)
    rows = np.arange(order.shape[0])
    alive = np.ones(order.shape, dtype=bool)
    kept_rows = np.full((order.shape[0], min(count, max_keep)), -1)
    kept_count = np.zeros(order.shape[0], dtype=int)
    for rank in range(count):
        i = order[:, rank]
        take = alive[rows, i] & (kept_count < max_keep)
        r, i = rows[take], i[take]
        kept_rows[r, kept_count[r]] = i
        kept_count[r] += 1
        alive[r] &= compatible[matrix_of_row[r], :, i]
    return kept_rows.reshape(batch + (kept_rows.shape[-1],))


def cell_centers(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized x and y coordinates of the cell centers of an H x W grid."""
    ys = (np.arange(height) + 0.5) / height
    xs = (np.arange(width) + 0.5) / width
    return xs, ys


def coverage_masks(height: int, width: int, boxes: Sequence[BBox]) -> np.ndarray:
    """Boolean K x H x W masks of the cells whose center lies inside each box."""
    xs, ys = cell_centers(height, width)
    coords = box_corners(boxes)
    in_x = (xs[None, :] >= coords[:, 0:1]) & (xs[None, :] <= coords[:, 2:3])
    in_y = (ys[None, :] >= coords[:, 1:2]) & (ys[None, :] <= coords[:, 3:4])
    return in_y[:, :, None] & in_x[:, None, :]
