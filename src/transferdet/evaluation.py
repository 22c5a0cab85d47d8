"""Detection evaluation: greedy matching at an IoU threshold, per-class
average precision, and mAP.

Matching follows the classic protocol: detections are processed in
descending score order and claim their best-overlapping still-unmatched
ground-truth box; duplicates on an already-matched box count as false
positives.  AP defaults to the 11-point interpolation; the all-points
precision-envelope integral is available behind a flag.

Detections are columns from detector or file to AP: the batched detector
:func:`transferdet.pipeline.detections` returns one :class:`Detections`
(scene ids, classes, (n, 4) corner boxes, scores) per model, and
:func:`read_detections_csv` parses a detections file into one;
:func:`evaluate_detections` and :func:`match_detections` take it.  Both
the experiments (:func:`transferdet.pipeline.evaluate_model`) and the
``eval`` command score detections with :func:`evaluate_detections`.
:class:`Detection` is the one-detection type that
:func:`transferdet.pipeline.detect` and :func:`write_detections_csv`
use; ``Detections.of`` turns a list of them into columns.

One greedy matcher, :func:`match_rows`, works on each detection's row of
IoUs against its scene's ground-truth boxes of the class.  Its skip rule:
a detection whose best IoU over all of those boxes is at most the
threshold is a false positive that changes no matching state, so only the
detections above it enter the per-box loop.  :func:`gt_iou_rows` gives
every row from one elementwise IoU of the detections against a padded
per-scene ground-truth array.  It applies the operations of the scalar
:func:`~transferdet.geometry.iou` in its order, so every row entry is the
scalar IoU bit for bit.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .geometry import BBox, box_corners, elementwise_iou
from .textfile import named_decode_errors

AP_METHODS = ("voc07_11point", "all_points")

# IoU row entry past a scene's ground-truth count: below any real overlap,
# so it never matches and never wins a best-overlap scan.
NO_GT = -1.0


@dataclass(frozen=True)
class Detection:
    scene_id: int
    class_index: int
    box: BBox
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError(f"non-finite detection score {self.score}")


@dataclass(frozen=True, eq=False)
class Detections:
    """n detections as columns: int64 scene ids and classes, an (n, 4)
    float array of (x1, y1, x2, y2) corner rows, and float scores.  Row i
    is one detection; rows keep the order they were read or built in."""

    scene_ids: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        n = len(self.scores)
        shapes = (self.scene_ids.shape, self.classes.shape, self.boxes.shape,
                  self.scores.shape)
        if shapes != ((n,), (n,), (n, 4), (n,)):
            raise ValueError(
                f"detection columns of shapes {shapes}: need (n,), (n,), (n, 4), (n,)"
            )

    @classmethod
    def of(cls, detections: Iterable[Detection]) -> "Detections":
        """Columns of a sequence of :class:`Detection` objects, in order."""
        detections = list(detections)
        return cls(
            scene_ids=np.array([d.scene_id for d in detections], dtype=np.int64),
            classes=np.array([d.class_index for d in detections], dtype=np.int64),
            boxes=box_corners([d.box for d in detections]),
            scores=np.array([d.score for d in detections], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, index) -> "Detections":
        """The rows an index array or boolean mask selects, in its order."""
        return Detections(
            self.scene_ids[index], self.classes[index], self.boxes[index],
            self.scores[index],
        )


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


def match_rows(
    scores: Sequence[float] | np.ndarray,
    scenes: Sequence[Hashable],
    rows: np.ndarray,
    threshold: float,
) -> list[bool]:
    """The greedy matcher: TP/FP flags for one class, in descending score
    order (score ties keep input order).

    Detection i lies in scene ``scenes[i]``; ``rows[i, g]`` is its IoU
    with ground-truth box g of the class in that scene, in a fixed GT
    order, and entries past a scene's GT count hold :data:`NO_GT`.  A
    detection claims its best-overlapping still-unmatched box (the first on
    ties) when that overlap exceeds ``threshold``.

    Skip rule: a detection whose best IoU over *all* its scene's boxes is
    at most ``threshold`` cannot match one of them, so it is a false
    positive and changes no matching state; only the others enter the
    per-box loop.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or len(rows) != len(order) or len(scenes) != len(order):
        raise ValueError(
            f"{len(order)} scores, {len(scenes)} scenes and IoU rows of shape "
            f"{rows.shape}: need one scene and one row per score"
        )
    hits = rows.max(axis=1, initial=NO_GT) > threshold
    flags = [False] * len(order)
    matched: dict[Hashable, list[bool]] = {}
    for position in np.flatnonzero(hits[order]).tolist():
        i = order[position]
        taken = matched.setdefault(scenes[i], [False] * rows.shape[1])
        best_iou = 0.0
        best_g = -1
        for g, overlap in enumerate(rows[i].tolist()):
            if not taken[g] and overlap > best_iou:
                best_iou = overlap
                best_g = g
        if best_g >= 0 and best_iou > threshold:
            taken[best_g] = True
            flags[position] = True
    return flags


def gt_iou_rows(dets: Detections, gts: dict[int, list[BBox]]) -> np.ndarray:
    """IoU rows of ``dets`` against their scenes' boxes in ``gts``, as
    :func:`match_rows` takes them.

    The boxes of ``gts`` go into one (scenes, widest scene, 4) array padded
    with zero boxes; each detection gathers its scene's slice of it and one
    :func:`~transferdet.geometry.elementwise_iou` gives every row.  Entries
    past a scene's box count, and every entry of a detection whose scene is
    not a key of ``gts``, hold :data:`NO_GT`.
    """
    keys = np.array(sorted(gts), dtype=np.int64)
    boxes = [gts[k] for k in keys.tolist()]
    counts = np.array([len(b) for b in boxes] + [0], dtype=np.int64)
    # One slot per scene, and a last one without boxes for unknown scenes.
    table = np.zeros((len(counts), int(counts.max()), 4))
    slot_of_box = np.repeat(np.arange(len(counts)), counts)
    first_of_slot = np.cumsum(counts) - counts
    rank_of_box = np.arange(slot_of_box.size) - first_of_slot[slot_of_box]
    table[slot_of_box, rank_of_box] = box_corners([b for bs in boxes for b in bs])
    slot = np.searchsorted(keys, dets.scene_ids)
    known = (slot < len(keys)) & (np.append(keys, 0)[slot] == dets.scene_ids)
    slot[~known] = len(keys)
    rows = elementwise_iou(dets.boxes[:, None, :], table[slot])
    rows[np.arange(table.shape[1]) >= counts[slot][:, None]] = NO_GT
    return rows


def match_detections(
    dets: Detections,
    gts: dict[int, list[BBox]],
    cfg: EvalConfig = EvalConfig(),
) -> list[bool]:
    """TP/FP flags for one class, in descending score order.

    ``gts`` maps scene id to that scene's ground-truth boxes of the class
    under evaluation; a detection in a scene without a key matches nothing.
    Each ground-truth box matches at most one detection.  Score ties keep
    row order (stable sort).  :func:`gt_iou_rows` gives the IoU rows and
    :func:`match_rows` matches them.
    """
    return match_rows(
        dets.scores, dets.scene_ids, gt_iou_rows(dets, gts), cfg.iou_threshold
    )


def average_precision(
    flags: Sequence[bool], total_gt: int, cfg: EvalConfig = EvalConfig()
) -> float:
    """AP from ordered TP/FP flags against ``total_gt`` ground-truth boxes."""
    if total_gt < 1:
        raise ValueError("average_precision needs at least one ground-truth box")
    if len(flags) == 0:
        return 0.0
    hits = np.asarray(flags, dtype=float)
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
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
    detections: Detections,
    ground_truths: dict[int, list[tuple[int, BBox]]],
    num_classes: int,
    cfg: EvalConfig = EvalConfig(),
) -> tuple[list[float | None], float]:
    """Per-class AP (None for classes with no ground truth) and mAP.

    ``ground_truths`` maps scene id to (class index, box) pairs.  A
    detection whose class index lies outside ``[0, num_classes)``, or whose
    scene id is not a key of ``ground_truths``, raises ValueError naming
    the first such detection.
    """
    classes, scene_ids = detections.classes, detections.scene_ids
    bad_class = (classes < 0) | (classes >= num_classes)
    if bad_class.any():
        i = int(np.argmax(bad_class))
        raise ValueError(
            f"detection in scene {scene_ids[i]} has class {classes[i]}, "
            f"outside [0, {num_classes})"
        )
    unknown = ~np.isin(scene_ids, np.array(list(ground_truths), dtype=np.int64))
    if unknown.any():
        raise ValueError(
            f"detection in scene {scene_ids[np.argmax(unknown)]}, which the "
            f"ground truth of {len(ground_truths)} scene(s) does not hold"
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
        flags = match_detections(detections.take(classes == c), class_gts, cfg)
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


# One detections row as numpy's C reader parses it.
_ROW_DTYPE = np.dtype([
    ("scene_id", np.int64), ("class", np.int64),
    ("box", np.float64, (4,)), ("score", np.float64),
])
_INT64 = np.iinfo(np.int64)


def read_detections_csv(path) -> Detections:
    """The detections of a file written by :func:`write_detections_csv`.

    One ``np.loadtxt`` call parses every row, and the box bounds and score
    finiteness are checked on whole columns.  When that parse or a check
    fails, or the file holds what only the csv module reads (quoted fields,
    say), the row parser reads the file again: it raises
    :class:`DetectionsFormatError` naming the first bad line, or returns
    the same columns.  Blank lines are skipped.  A file that is not text
    in the reading encoding raises :class:`DetectionsFormatError` naming
    the file and its first undecodable line.
    """
    with named_decode_errors(path, DetectionsFormatError):
        detections = _read_detections_bulk(path)
        return detections if detections is not None else _read_detections_rows(path)


def _read_detections_bulk(path) -> Detections | None:
    """Columns from one C-level parse, or None when the file needs the row
    parser.  ``np.loadtxt`` rounds correctly, so its floats are those of
    ``float()``."""
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(DETECTIONS_HEADER):
            return None
        try:
            with warnings.catch_warnings():
                # a file without rows warns; the row parser reads it
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1
                )
        except (ValueError, Warning):
            return None
    boxes = np.ascontiguousarray(table["box"])
    x1, y1, x2, y2 = boxes.T
    in_bounds = (
        (0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
    )
    scores = np.ascontiguousarray(table["score"])
    if not (in_bounds.all() and np.isfinite(scores).all()):
        return None
    return Detections(
        np.ascontiguousarray(table["scene_id"]), np.ascontiguousarray(table["class"]),
        boxes, scores,
    )


def _int64(text: str) -> int:
    value = int(text)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{text!r} is outside the int64 range")
    return value


def _read_detections_rows(path) -> Detections:
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
                scene_id = _int64(row[0])
                class_index = _int64(row[1])
                x1, y1, x2, y2, score = (float(v) for v in row[2:])
                detections.append(
                    Detection(scene_id, class_index, BBox(x1, y1, x2, y2), score)
                )
            except ValueError as exc:
                raise DetectionsFormatError(line_number, str(exc)) from exc
    return Detections.of(detections)


def write_eval_csv(path, per_class_aps: Sequence[float | None], map_value: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "ap"])
        for c, ap in enumerate(per_class_aps):
            writer.writerow([c, "excluded" if ap is None else repr(float(ap))])
        writer.writerow(["mAP", repr(float(map_value))])
