"""Evaluation tests: greedy matching, AP interpolation, mAP, CSV formats."""

import csv

import numpy as np
import pytest

from transferdet.evaluation import (
    Detection,
    DetectionsFormatError,
    EvalConfig,
    average_precision,
    evaluate_detections,
    match_detections,
    mean_ap,
    read_detections_csv,
    write_detections_csv,
    write_eval_csv,
)
from transferdet.geometry import BBox

from reference import random_boxes, ref_ap, ref_match

CFG_11 = EvalConfig()
CFG_ALL = EvalConfig(ap_method="all_points")


def det(scene, cls, box, score):
    return Detection(scene, cls, BBox(*box), score)


def strip(x, width):
    # unit-height strips: IoU of two strips with equal width w offset by d
    # is (w - d) / (w + d), handy for exact overlap values
    return (x, 0.0, x + width, 1.0)


def test_detection_rejects_nonfinite_score():
    with pytest.raises(ValueError, match="non-finite"):
        det(0, 0, (0.1, 0.1, 0.4, 0.4), float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        det(0, 0, (0.1, 0.1, 0.4, 0.4), float("inf"))


def test_eval_config_validation():
    EvalConfig(iou_threshold=1.0)  # boundary is legal
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        EvalConfig(iou_threshold=1.5)
    with pytest.raises(ValueError):
        EvalConfig(ap_method="coco")


def test_match_single_detection_above_threshold():
    # strips of width 0.4 offset by 0.1 -> IoU 0.3/0.5 = 0.6
    gts = {0: [BBox(*strip(0.0, 0.4))]}
    flags = match_detections([det(0, 0, strip(0.1, 0.4), 0.9)], gts, CFG_11)
    assert flags == [True]


def test_match_below_threshold_is_fp():
    # width 0.35 offset 0.15 -> IoU 0.2/0.5 = 0.4
    gts = {0: [BBox(*strip(0.0, 0.35))]}
    flags = match_detections([det(0, 0, strip(0.15, 0.35), 0.9)], gts, CFG_11)
    assert flags == [False]


def test_match_exactly_at_threshold_is_fp():
    # IoU is exactly 0.5; the rule is strict
    gts = {0: [BBox(0.0, 0.0, 1.0, 1.0)]}
    flags = match_detections([det(0, 0, (0.0, 0.0, 0.5, 1.0), 0.9)], gts, CFG_11)
    assert flags == [False]


def test_match_duplicate_detections_tp_then_fp():
    gts = {0: [BBox(0.2, 0.2, 0.6, 0.6)]}
    dets = [
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9),
        det(0, 0, (0.21, 0.2, 0.61, 0.6), 0.8),
    ]
    assert match_detections(dets, gts, CFG_11) == [True, False]


def test_match_prefers_best_overlapping_gt():
    # D1 overlaps both GTs and must claim the better one (G1), leaving G2
    # for D2; claiming greedily by list order would make D2 a FP.
    gts = {0: [BBox(*strip(0.0, 0.4)), BBox(*strip(0.2, 0.4))]}
    dets = [
        det(0, 0, strip(0.05, 0.4), 0.9),
        det(0, 0, strip(0.15, 0.4), 0.8),
    ]
    assert match_detections(dets, gts, CFG_11) == [True, True]


def test_match_ignores_other_scenes():
    gts = {0: [BBox(0.2, 0.2, 0.6, 0.6)]}
    flags = match_detections([det(1, 0, (0.2, 0.2, 0.6, 0.6), 0.9)], gts, CFG_11)
    assert flags == [False]


def test_match_processes_in_descending_score_order():
    # the low-score duplicate appears first in the list but must lose
    gts = {0: [BBox(0.2, 0.2, 0.6, 0.6)]}
    dets = [
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.3),
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9),
    ]
    assert match_detections(dets, gts, CFG_11) == [True, False]


def test_ap_trivial_cases():
    for cfg in (CFG_11, CFG_ALL):
        assert average_precision([True], 1, cfg) == pytest.approx(1.0)
        assert average_precision([False], 1, cfg) == 0.0
        assert average_precision([], 3, cfg) == 0.0
    with pytest.raises(ValueError):
        average_precision([True], 0, CFG_11)


def test_ap_worked_example_11point():
    expected = (6.0 * 1.0 + 5.0 * (2.0 / 3.0)) / 11.0
    ap = average_precision([True, False, True], 2, CFG_11)
    assert abs(ap - expected) < 1e-9
    assert abs(ap - 0.8485) < 5e-4


def test_ap_worked_example_all_points():
    # envelope: precision 1 up to recall 0.5, then 2/3 up to recall 1
    ap = average_precision([True, False, True], 2, CFG_ALL)
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_ap_matches_reference_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_scenes = int(rng.integers(1, 6))
        gts = {}
        gt_flat = []
        dets = []
        det_flat = []
        for scene in range(n_scenes):
            boxes = random_boxes(rng, int(rng.integers(0, 4)), lo=0.1, hi=0.5)
            gts[scene] = [BBox(*b) for b in boxes]
            gt_flat.extend((scene, b) for b in boxes)
            for b in random_boxes(rng, int(rng.integers(0, 5)), lo=0.1, hi=0.5):
                if rng.random() < 0.4:
                    score = float(rng.integers(0, 5)) / 4.0  # force ties
                else:
                    score = float(rng.random())
                dets.append(det(scene, 0, b, score))
                det_flat.append((scene, score, b))
        flags = match_detections(dets, gts, CFG_11)
        assert flags == ref_match(det_flat, gt_flat, 0.5)
        total_gt = len(gt_flat)
        if total_gt == 0:
            continue
        ap11 = average_precision(flags, total_gt, CFG_11)
        assert ap11 == pytest.approx(ref_ap(flags, total_gt, "voc07_11point"), abs=1e-12)
        ap_all = average_precision(flags, total_gt, CFG_ALL)
        assert ap_all == pytest.approx(ref_ap(flags, total_gt, "all_points"), abs=1e-12)


def test_matching_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(12)
    for _ in range(50):
        boxes = random_boxes(rng, 6, lo=0.1, hi=0.5)
        gt = {0: [BBox(*b) for b in random_boxes(rng, 3, lo=0.1, hi=0.5)]}
        scores = [float(rng.integers(1, 5)) / 4.0 for _ in boxes]
        base = match_detections(
            [det(0, 0, b, s) for b, s in zip(boxes, scores)], gt, CFG_11
        )
        for transform in (lambda s: 0.5 * s + 2.0, lambda s: s**3):
            moved = match_detections(
                [det(0, 0, b, transform(s)) for b, s in zip(boxes, scores)],
                gt,
                CFG_11,
            )
            assert moved == base


def test_ap_fp_at_bottom_never_increases_and_tp_at_top_never_decreases():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        flags = [bool(rng.random() < 0.5) for _ in range(n)]
        total_gt = sum(flags) + int(rng.integers(1, 4))
        for cfg in (CFG_11, CFG_ALL):
            base = average_precision(flags, total_gt, cfg)
            assert average_precision(flags + [False], total_gt, cfg) <= base + 1e-12
            assert average_precision([True] + flags, total_gt, cfg) >= base - 1e-12


def test_mean_ap():
    assert mean_ap([0.7]) == pytest.approx(0.7)
    assert mean_ap([1.0, 0.0]) == pytest.approx(0.5)
    assert mean_ap([0.3] * 20) == pytest.approx(0.3, rel=1e-12)
    assert mean_ap([None, 0.5, None]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="excluded"):
        mean_ap([None, None])


def test_evaluate_detections_excludes_absent_classes():
    gt_box = BBox(0.2, 0.2, 0.6, 0.6)
    dets = [
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9),
        det(0, 1, (0.5, 0.5, 0.9, 0.9), 0.8),  # class 1 has no ground truth
    ]
    per_class, mean = evaluate_detections(dets, {0: [(0, gt_box)]}, 2)
    assert per_class[0] == pytest.approx(1.0)
    assert per_class[1] is None
    assert mean == pytest.approx(1.0)


def test_evaluate_detections_rejects_out_of_range_class():
    gt = {0: [(0, BBox(0.2, 0.2, 0.6, 0.6))]}
    for cls in (-1, 2, 9):
        with pytest.raises(ValueError, match=f"class {cls}"):
            evaluate_detections([det(0, cls, (0.2, 0.2, 0.6, 0.6), 0.9)], gt, 2)


def test_evaluate_detections_empty_class_gets_zero():
    gt = {0: [(0, BBox(0.2, 0.2, 0.6, 0.6)), (1, BBox(0.2, 0.2, 0.6, 0.6))]}
    per_class, mean = evaluate_detections(
        [det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9)], gt, 2
    )
    assert per_class == [pytest.approx(1.0), 0.0]
    assert mean == pytest.approx(0.5)


def test_detections_csv_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    dets = [
        det(int(rng.integers(0, 5)), int(rng.integers(0, 4)), b, float(rng.random()))
        for b in random_boxes(rng, 25)
    ]
    path = tmp_path / "dets.csv"
    write_detections_csv(path, dets)
    assert read_detections_csv(path) == dets


def test_read_detections_rejects_bad_header(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("scene,cls,x1,y1,x2,y2,score\n")
    with pytest.raises(DetectionsFormatError, match="line 1"):
        read_detections_csv(path)


def test_read_detections_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("scene_id,class,x1,y1,x2,y2,score\n0,1,0.1,0.2,0.3,0.4\n")
    with pytest.raises(DetectionsFormatError, match="line 2"):
        read_detections_csv(path)


def test_read_detections_rejects_bad_values_with_line_number(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        "0,0,0.1,0.1,0.4,0.4,0.9\n"
        "0,0,0.1,0.1,0.4,0.4,high\n"
    )
    with pytest.raises(DetectionsFormatError, match="line 3") as excinfo:
        read_detections_csv(path)
    assert excinfo.value.line_number == 3

    path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        "0,0,0.4,0.1,0.1,0.4,0.9\n"  # x2 < x1
    )
    with pytest.raises(DetectionsFormatError, match="line 2"):
        read_detections_csv(path)


def test_read_detections_skips_blank_lines(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        "0,0,0.1,0.1,0.4,0.4,0.9\n"
        "\n"
        "1,2,0.2,0.2,0.5,0.5,0.25\n"
    )
    parsed = read_detections_csv(path)
    assert len(parsed) == 2
    assert parsed[1].scene_id == 1 and parsed[1].class_index == 2


def test_write_eval_csv_format(tmp_path):
    path = tmp_path / "eval.csv"
    write_eval_csv(path, [0.5, None, 0.25], 0.375)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["class", "ap"],
        ["0", "0.5"],
        ["1", "excluded"],
        ["2", "0.25"],
        ["mAP", "0.375"],
    ]
