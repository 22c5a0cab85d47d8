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
:func:`evaluate_detections` takes it, with ground truth by scene position.
Both the experiments (:func:`transferdet.pipeline.evaluate_model`) and the
``eval`` command score detections with :func:`evaluate_detections`.
:class:`Detection` is the one-detection type that
:func:`transferdet.pipeline.detect` and :func:`write_detections_csv`
use; ``Detections.of`` turns a list of them into columns.

One matcher path: :func:`gt_table` pads each scene's ground truth into one
table (the proposal labels of :func:`transferdet.pipeline.block_labels`
use it too); :func:`gt_iou_rows` gives each detection's row of IoUs
against its scene's boxes, bit for bit the scalar
:func:`~transferdet.geometry.iou`, with :data:`NO_GT` on padding and on
other classes' boxes; the greedy :func:`match_rows` takes the rows.  Its
skip rule: a detection whose best IoU is at most the threshold is a false
positive that changes no matching state, so only the others enter the
per-box loop.
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

# IoU row entry on padding or on another class's box: below any real
# overlap, so it never matches and never wins a best-overlap scan.
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
    with ground-truth box g of that scene, in a fixed GT order, and
    entries that are not a box of the class hold :data:`NO_GT`.  A
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


def gt_table(
    ground_truths: Sequence[Sequence[tuple[int, BBox]]],
) -> tuple[np.ndarray, np.ndarray]:
    """The ground truth of S scenes as one table: (S, G, 4) corners and
    (S, G) int64 classes, G the largest scene's box count.

    ``ground_truths[s]`` holds scene s's (class, box) pairs; they fill
    row s in their order.  The rows past a scene's count hold all-zero
    corners, which overlap nothing, and class -1.
    """
    counts = np.array([len(gt) for gt in ground_truths], dtype=np.int64)
    scene = np.repeat(np.arange(len(counts)), counts)  # the scene of each box
    rank = np.arange(scene.size) - (np.cumsum(counts) - counts)[scene]
    corners = np.zeros((len(counts), counts.max(initial=0), 4))
    classes = np.full(corners.shape[:2], -1, dtype=np.int64)
    entries = [entry for gt in ground_truths for entry in gt]
    corners[scene, rank] = box_corners([box for _, box in entries])
    classes[scene, rank] = [cls for cls, _ in entries]
    return corners, classes


def gt_iou_rows(dets: Detections, corners: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """IoU rows of ``dets`` against their scenes' rows of a :func:`gt_table`,
    as :func:`match_rows` takes them: one
    :func:`~transferdet.geometry.elementwise_iou`, with :data:`NO_GT` on
    padding and on boxes of another class than the detection's."""
    rows = elementwise_iou(dets.boxes[:, None, :], corners[dets.scene_ids])
    rows[classes[dets.scene_ids] != dets.classes[:, None]] = NO_GT
    return rows


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
    p = np.maximum.accumulate(p[::-1])[::-1]
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
    ground_truths: Sequence[Sequence[tuple[int, BBox]]],
    num_classes: int,
    cfg: EvalConfig = EvalConfig(),
) -> tuple[list[float | None], float]:
    """Per-class AP (None for classes with no ground truth) and mAP.

    ``ground_truths[s]`` holds the (class index, box) pairs of scene id s.
    A detection whose class index lies outside ``[0, num_classes)``, or
    whose scene id is not a position of ``ground_truths``, raises
    ValueError naming the first such detection.
    """
    classes, scene_ids = detections.classes, detections.scene_ids
    bad_class = (classes < 0) | (classes >= num_classes)
    if bad_class.any():
        i = int(np.argmax(bad_class))
        raise ValueError(
            f"detection in scene {scene_ids[i]} has class {classes[i]}, "
            f"outside [0, {num_classes})"
        )
    unknown = (scene_ids < 0) | (scene_ids >= len(ground_truths))
    if unknown.any():
        raise ValueError(
            f"detection in scene {scene_ids[np.argmax(unknown)]}, which the "
            f"ground truth of {len(ground_truths)} scene(s) does not hold"
        )
    corners, gt_classes = gt_table(ground_truths)
    totals = np.bincount(gt_classes[gt_classes >= 0], minlength=num_classes)
    per_class: list[float | None] = []
    for c in range(num_classes):
        if totals[c] == 0:
            per_class.append(None)
            continue
        dets = detections.take(classes == c)
        rows = gt_iou_rows(dets, corners, gt_classes)
        flags = match_rows(dets.scores, dets.scene_ids, rows, cfg.iou_threshold)
        per_class.append(average_precision(flags, int(totals[c]), cfg))
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
