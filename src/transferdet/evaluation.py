"""Detection evaluation: greedy matching at an IoU threshold, per-class
average precision, and mAP.

Matching follows the classic protocol: detections are processed in
descending score order and claim their best-overlapping still-unmatched
ground-truth box; duplicates on an already-matched box count as false
positives.  AP defaults to the 11-point interpolation; the all-points
precision-envelope integral is available behind a flag.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import BBox, iou

AP_METHODS = ("voc07_11point", "all_points")


@dataclass(frozen=True)
class Detection:
    scene_id: int
    class_index: int
    box: BBox
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError(f"non-finite detection score {self.score}")


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5
    ap_method: str = "voc07_11point"

    def __post_init__(self):
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if self.ap_method not in AP_METHODS:
            raise ValueError(f"ap_method must be one of {AP_METHODS}")


class DetectionsFormatError(ValueError):
    """Malformed detections file; carries the 1-based offending line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def match_detections(
    dets: Sequence[Detection],
    gts: dict[int, list[BBox]],
    cfg: EvalConfig = EvalConfig(),
) -> list[bool]:
    """TP/FP flags for one class, in descending score order.

    ``gts`` maps scene id to that scene's ground-truth boxes of the class
    under evaluation.  Each ground-truth box matches at most one detection.
    Score ties keep insertion order (stable sort).
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    matched: dict[int, list[bool]] = {
        scene: [False] * len(boxes) for scene, boxes in gts.items()
    }
    flags: list[bool] = []
    for i in order:
        det = dets[i]
        boxes = gts.get(det.scene_id, [])
        best_iou = 0.0
        best_g = -1
        for g, gt_box in enumerate(boxes):
            if matched[det.scene_id][g]:
                continue
            overlap = iou(det.box, gt_box)
            if overlap > best_iou:
                best_iou = overlap
                best_g = g
        if best_g >= 0 and best_iou > cfg.iou_threshold:
            matched[det.scene_id][best_g] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def average_precision(
    flags: Sequence[bool], total_gt: int, cfg: EvalConfig = EvalConfig()
) -> float:
    """AP from ordered TP/FP flags against ``total_gt`` ground-truth boxes."""
    if total_gt < 1:
        raise ValueError("average_precision needs at least one ground-truth box")
    if len(flags) == 0:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1e-12)

    if cfg.ap_method == "voc07_11point":
        ap = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            mask = recall >= t - 1e-12
            ap += float(precision[mask].max()) if mask.any() else 0.0
        return ap / 11.0

    # All-points method: integrate the monotone precision envelope.
    r = np.concatenate(([0.0], recall, [recall[-1]]))
    p = np.concatenate(([0.0], precision, [0.0]))
    for i in range(p.size - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.nonzero(r[1:] != r[:-1])[0]
    return float(np.sum((r[steps + 1] - r[steps]) * p[steps + 1]))


def mean_ap(per_class_aps: Sequence[float | None]) -> float:
    """Arithmetic mean of the included (non-None) per-class APs."""
    included = [a for a in per_class_aps if a is not None]
    if not included:
        raise ValueError("every class was excluded from mAP")
    return float(np.mean(included))


def evaluate_detections(
    detections: Iterable[Detection],
    ground_truths: dict[int, list[tuple[int, BBox]]],
    num_classes: int,
    cfg: EvalConfig = EvalConfig(),
) -> tuple[list[float | None], float]:
    """Per-class AP (None for classes with no ground truth) and mAP.

    ``ground_truths`` maps scene id to (class index, box) pairs.  A
    detection whose class index lies outside ``[0, num_classes)`` raises
    ValueError.
    """
    detections = list(detections)
    for d in detections:
        if not 0 <= d.class_index < num_classes:
            raise ValueError(
                f"detection in scene {d.scene_id} has class {d.class_index}, "
                f"outside [0, {num_classes})"
            )
    per_class: list[float | None] = []
    for c in range(num_classes):
        class_gts = {
            scene: [box for cls, box in entries if cls == c]
            for scene, entries in ground_truths.items()
        }
        total_gt = sum(len(v) for v in class_gts.values())
        if total_gt == 0:
            per_class.append(None)
            continue
        class_dets = [d for d in detections if d.class_index == c]
        flags = match_detections(class_dets, class_gts, cfg)
        per_class.append(average_precision(flags, total_gt, cfg))
    return per_class, mean_ap(per_class)


# --- file formats -----------------------------------------------------------

DETECTIONS_HEADER = ["scene_id", "class", "x1", "y1", "x2", "y2", "score"]


def write_detections_csv(path, detections: Iterable[Detection]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTIONS_HEADER)
        for d in detections:
            writer.writerow(
                [d.scene_id, d.class_index]
                + [repr(float(v)) for v in d.box.as_tuple()]
                + [repr(float(d.score))]
            )


def read_detections_csv(path) -> list[Detection]:
    detections = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_number, row in enumerate(reader, start=1):
            if line_number == 1:
                if row != DETECTIONS_HEADER:
                    raise DetectionsFormatError(
                        line_number, f"expected header {DETECTIONS_HEADER}, got {row}"
                    )
                continue
            if not row:
                continue
            if len(row) != 7:
                raise DetectionsFormatError(
                    line_number, f"expected 7 fields, got {len(row)}"
                )
            try:
                scene_id = int(row[0])
                class_index = int(row[1])
                x1, y1, x2, y2, score = (float(v) for v in row[2:])
                box = BBox(x1, y1, x2, y2)
            except ValueError as exc:
                raise DetectionsFormatError(line_number, str(exc)) from exc
            detections.append(Detection(scene_id, class_index, box, score))
    return detections


def write_eval_csv(path, per_class_aps: Sequence[float | None], map_value: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "ap"])
        for c, ap in enumerate(per_class_aps):
            writer.writerow([c, "excluded" if ap is None else repr(float(ap))])
        writer.writerow(["mAP", repr(float(map_value))])
