"""Evaluation tests: greedy matching, AP interpolation, mAP, CSV formats."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.evaluation import (
    NO_GT,
    Detection,
    Detections,
    DetectionsFormatError,
    EvalConfig,
    average_precision,
    evaluate_detections,
    gt_iou_rows,
    gt_table,
    match_rows,
    mean_ap,
    read_detections_csv,
    write_detections_csv,
    write_eval_csv,
)
from transferdet.geometry import BBox, iou

from reference import random_boxes, ref_ap, ref_evaluate_flags, ref_iou, ref_match

CFG_11 = EvalConfig()
CFG_ALL = EvalConfig(ap_method="all_points")


def det(scene, cls, box, score):
    return Detection(scene, cls, BBox(*box), score)


def assert_same_columns(got, want):
    """Two Detections hold the same columns, dtypes and bits."""
    for name in ("scene_ids", "classes", "boxes", "scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def match(dets, gts, cfg=CFG_11):
    """TP/FP flags of class-0 detections against ``gts[s]``, the class-0
    boxes of scene s: :func:`match_rows` on the rows :func:`gt_iou_rows`
    gives against their :func:`gt_table`."""
    table = gt_table([[(0, box) for box in boxes] for boxes in gts])
    rows = gt_iou_rows(dets, *table)
    return match_rows(dets.scores, dets.scene_ids, rows, cfg.iou_threshold)


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
    gts = [[BBox(*strip(0.0, 0.4))]]
    dets = Detections.of([det(0, 0, strip(0.1, 0.4), 0.9)])
    flags = match(dets, gts, CFG_11)
    assert flags == [True]


def test_match_below_threshold_is_fp():
    # width 0.35 offset 0.15 -> IoU 0.2/0.5 = 0.4
    gts = [[BBox(*strip(0.0, 0.35))]]
    dets = Detections.of([det(0, 0, strip(0.15, 0.35), 0.9)])
    flags = match(dets, gts, CFG_11)
    assert flags == [False]


def test_match_exactly_at_threshold_is_fp():
    # IoU is exactly 0.5; the rule is strict
    gts = [[BBox(0.0, 0.0, 1.0, 1.0)]]
    dets = Detections.of([det(0, 0, (0.0, 0.0, 0.5, 1.0), 0.9)])
    flags = match(dets, gts, CFG_11)
    assert flags == [False]


def test_match_duplicate_detections_tp_then_fp():
    gts = [[BBox(0.2, 0.2, 0.6, 0.6)]]
    dets = [
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9),
        det(0, 0, (0.21, 0.2, 0.61, 0.6), 0.8),
    ]
    assert match(Detections.of(dets), gts, CFG_11) == [True, False]


def test_match_prefers_best_overlapping_gt():
    # D1 overlaps both GTs and must claim the better one (G1), leaving G2
    # for D2; claiming greedily by list order would make D2 a FP.
    gts = [[BBox(*strip(0.0, 0.4)), BBox(*strip(0.2, 0.4))]]
    dets = [
        det(0, 0, strip(0.05, 0.4), 0.9),
        det(0, 0, strip(0.15, 0.4), 0.8),
    ]
    assert match(Detections.of(dets), gts, CFG_11) == [True, True]


def test_match_ignores_other_scenes():
    gts = [[BBox(0.2, 0.2, 0.6, 0.6)], []]
    dets = Detections.of([det(1, 0, (0.2, 0.2, 0.6, 0.6), 0.9)])
    flags = match(dets, gts, CFG_11)
    assert flags == [False]


def test_match_processes_in_descending_score_order():
    # the low-score duplicate appears first in the list but must lose
    gts = [[BBox(0.2, 0.2, 0.6, 0.6)]]
    dets = [
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.3),
        det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9),
    ]
    assert match(Detections.of(dets), gts, CFG_11) == [True, False]


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
        gts = []
        gt_flat = []
        dets = []
        det_flat = []
        for scene in range(n_scenes):
            boxes = random_boxes(rng, int(rng.integers(0, 4)), lo=0.1, hi=0.5)
            gts.append([BBox(*b) for b in boxes])
            gt_flat.extend((scene, b) for b in boxes)
            for b in random_boxes(rng, int(rng.integers(0, 5)), lo=0.1, hi=0.5):
                if rng.random() < 0.4:
                    score = float(rng.integers(0, 5)) / 4.0  # force ties
                else:
                    score = float(rng.random())
                dets.append(det(scene, 0, b, score))
                det_flat.append((scene, score, b))
        flags = match(Detections.of(dets), gts, CFG_11)
        assert flags == ref_match(det_flat, gt_flat, 0.5)
        total_gt = len(gt_flat)
        if total_gt == 0:
            continue
        ap11 = average_precision(flags, total_gt, CFG_11)
        assert ap11 == pytest.approx(ref_ap(flags, total_gt, "voc07_11point"), abs=1e-12)
        ap_all = average_precision(flags, total_gt, CFG_ALL)
        assert ap_all == pytest.approx(ref_ap(flags, total_gt, "all_points"), abs=1e-12)


def test_match_rows_equals_reference_matcher():
    # Detections cluster on GT boxes, so several compete for one box and
    # later ones meet it already matched; duplicated GT boxes tie on IoU.
    rng = np.random.default_rng(14)
    for _ in range(300):
        threshold = float(rng.choice([0.1, 0.5, 0.7]))
        gts = []
        for _ in range(int(rng.integers(1, 5))):
            boxes = random_boxes(rng, int(rng.integers(0, 4)), lo=0.1, hi=0.5)
            if len(boxes) > 1 and rng.random() < 0.4:
                boxes[1] = boxes[0]
            gts.append(boxes)
        det_flat = []
        for scene, boxes in enumerate(gts):
            for _ in range(int(rng.integers(0, 7))):
                if boxes and rng.random() < 0.7:
                    x1, y1, x2, y2 = boxes[int(rng.integers(len(boxes)))]
                    dx, dy = rng.uniform(-0.05, 0.05, size=2)
                    box = (
                        max(x1 + dx, 0.0), max(y1 + dy, 0.0),
                        min(x2 + dx, 1.0), min(y2 + dy, 1.0),
                    )
                else:
                    box = random_boxes(rng, 1, lo=0.1, hi=0.5)[0]
                score = float(rng.integers(0, 5)) / 4.0  # ties
                det_flat.append((scene, score, box))
        width = max(len(boxes) for boxes in gts)
        rows = np.full((len(det_flat), width), NO_GT)
        for i, (scene, _, box) in enumerate(det_flat):
            for g, gt_box in enumerate(gts[scene]):
                rows[i, g] = ref_iou(box, gt_box)
        flags = match_rows(
            [score for _, score, _ in det_flat], [scene for scene, _, _ in det_flat],
            rows, threshold,
        )
        gt_flat = [(scene, b) for scene, boxes in enumerate(gts) for b in boxes]
        assert flags == ref_match(det_flat, gt_flat, threshold)


def test_match_rows_needs_one_scene_and_row_per_score():
    assert match_rows([], [], np.empty((0, 2)), 0.5) == []
    with pytest.raises(ValueError, match="one scene and one row"):
        match_rows([0.5], [0], np.zeros((2, 1)), 0.5)
    with pytest.raises(ValueError, match="one scene and one row"):
        match_rows([0.5], [], np.zeros((1, 1)), 0.5)
    with pytest.raises(ValueError, match="one scene and one row"):
        match_rows([0.5], [0], np.zeros(1), 0.5)


def test_matching_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(12)
    for _ in range(50):
        boxes = random_boxes(rng, 6, lo=0.1, hi=0.5)
        gt = [[BBox(*b) for b in random_boxes(rng, 3, lo=0.1, hi=0.5)]]
        scores = [float(rng.integers(1, 5)) / 4.0 for _ in boxes]
        base = match(
            Detections.of([det(0, 0, b, s) for b, s in zip(boxes, scores)]),
            gt,
            CFG_11,
        )
        for transform in (lambda s: 0.5 * s + 2.0, lambda s: s**3):
            moved = match(
                Detections.of(
                    [det(0, 0, b, transform(s)) for b, s in zip(boxes, scores)]
                ),
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
    per_class, mean = evaluate_detections(
        Detections.of(dets), [[(0, gt_box)]], 2
    )
    assert per_class[0] == pytest.approx(1.0)
    assert per_class[1] is None
    assert mean == pytest.approx(1.0)


def test_evaluate_detections_rejects_out_of_range_class():
    gt = [[(0, BBox(0.2, 0.2, 0.6, 0.6))]]
    for cls in (-1, 2, 9):
        with pytest.raises(ValueError, match=f"class {cls}"):
            dets = Detections.of([det(0, cls, (0.2, 0.2, 0.6, 0.6), 0.9)])
            evaluate_detections(dets, gt, 2)


def test_evaluate_detections_empty_class_gets_zero():
    gt = [[(0, BBox(0.2, 0.2, 0.6, 0.6)), (1, BBox(0.2, 0.2, 0.6, 0.6))]]
    per_class, mean = evaluate_detections(
        Detections.of([det(0, 0, (0.2, 0.2, 0.6, 0.6), 0.9)]), gt, 2
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
    assert_same_columns(read_detections_csv(path), Detections.of(dets))


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
    assert parsed.scene_ids.tolist() == [0, 1]
    assert parsed.classes.tolist() == [0, 2]
    assert parsed.boxes.tolist() == [[0.1, 0.1, 0.4, 0.4], [0.2, 0.2, 0.5, 0.5]]
    assert parsed.scores.tolist() == [0.9, 0.25]


# --- columnar reader and evaluation ------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def detections(draw, min_size=0):
    """Valid Detection objects: any int64 ids, boxes anywhere in the unit
    square (endpoints and -0.0 included), any finite score."""
    dets = []
    for _ in range(draw(st.integers(min_size, 6))):
        corner = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)
        xs, ys = sorted(draw(corner)), sorted(draw(corner))
        score = draw(st.floats(allow_nan=False, allow_infinity=False))
        dets.append(
            Detection(draw(INT64), draw(INT64), BBox(xs[0], ys[0], xs[1], ys[1]), score)
        )
    return dets


def detections_lines(tmp_path, dets):
    path = tmp_path / "dets.csv"
    write_detections_csv(path, dets)
    return path, path.read_text().splitlines()


@settings(max_examples=80, deadline=None)
@given(dets=detections(), data=st.data())
def test_read_detections_round_trip_property(tmp_path_factory, dets, data):
    # blank lines anywhere after the header are skipped
    path, lines = detections_lines(tmp_path_factory.mktemp("rt"), dets)
    blanks = data.draw(st.lists(st.integers(1, len(lines)), max_size=4), label="blanks")
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    path.write_text("".join(ln + "\n" for ln in lines))
    assert_same_columns(read_detections_csv(path), Detections.of(dets))


def replace_field(k, value):
    return lambda f: f[:k] + [value] + f[k + 1:]


# Ways to make one valid row invalid: fields of the row in, fields out.
CORRUPTIONS = {
    **{f"non-numeric field {k}": replace_field(k, "x1") for k in range(7)},
    "empty field": replace_field(3, ""),
    "float class": replace_field(1, "1.0"),
    **{f"{v} score": replace_field(6, v) for v in ("nan", "inf", "-inf", "1e400")},
    **{
        f"coordinate {k - 2} at {v}": replace_field(k, v)
        for k in range(2, 6) for v in ("-0.25", "1.5", "nan")
    },
    "inverted x": lambda f: f[:2] + [f[4], f[3], f[2]] + f[5:],
    "inverted y": lambda f: f[:3] + [f[5], f[4], f[3]] + f[6:],
    "6 fields": lambda f: f[:6],
    "8 fields": lambda f: f + ["0.5"],
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@settings(max_examples=8, deadline=None)
@given(dets=detections(min_size=1), data=st.data())
def test_read_detections_names_the_corrupted_line(
    tmp_path_factory, corruption, dets, data
):
    path, lines = detections_lines(tmp_path_factory.mktemp("bad"), dets)
    if data.draw(st.booleans(), label="blank line after the header"):
        lines.insert(1, "")
    rows = [i for i, ln in enumerate(lines) if i and ln]
    row = data.draw(st.sampled_from(rows), label="row")
    lines[row] = ",".join(CORRUPTIONS[corruption](lines[row].split(",")))
    path.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(DetectionsFormatError) as excinfo:
        read_detections_csv(path)
    assert excinfo.value.line_number == row + 1
    assert f"line {row + 1}:" in str(excinfo.value)


def test_read_detections_accepts_what_the_csv_module_reads(tmp_path):
    # quoted fields and CRLF line ends go through the row parser
    path = tmp_path / "dets.csv"
    path.write_bytes(
        b'scene_id,class,x1,y1,x2,y2,score\r\n"3",1,0.1,"0.2",0.3,0.4,0.5\r\n'
    )
    want = Detections.of([Detection(3, 1, BBox(0.1, 0.2, 0.3, 0.4), 0.5)])
    assert_same_columns(read_detections_csv(path), want)
    path.write_bytes(b"scene_id,class,x1,y1,x2,y2,score\r\n3,1,0.1,0.2,0.3,0.4,0.5\r\n")
    assert_same_columns(read_detections_csv(path), want)


def test_read_detections_rejects_ids_outside_int64(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        f"{2**63},0,0.1,0.1,0.4,0.4,0.9\n"
    )
    with pytest.raises(DetectionsFormatError, match="line 2"):
        read_detections_csv(path)


def test_detections_of_and_take():
    dets = [det(4, 1, (0.1, 0.2, 0.3, 0.4), 0.5), det(2, 0, (0.5, 0.5, 0.9, 0.8), 0.25)]
    cols = Detections.of(dets)
    assert len(cols) == 2
    assert cols.scene_ids.dtype == cols.classes.dtype == np.int64
    assert cols.boxes.tolist() == [[0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.9, 0.8]]
    assert_same_columns(cols.take(np.array([False, True])), Detections.of(dets[1:]))
    empty = Detections.of([])
    assert len(empty) == 0 and empty.boxes.shape == (0, 4)
    with pytest.raises(ValueError, match="shapes"):
        Detections(cols.scene_ids, cols.classes, cols.boxes[:1], cols.scores)


def random_evaluation(rng, num_classes):
    """Detections and ground truth by position over eight scenes, with
    score ties, scenes without GT or detections, classes without GT and
    detections clustered on GT boxes so that several compete for one."""
    ground_truths = [[] for _ in range(8)]
    dets = []
    present = [c for c in range(num_classes) if rng.random() < 0.7]
    for scene in rng.permutation(8)[: int(rng.integers(1, 6))].tolist():
        ground_truths[scene] = [
            (int(rng.choice(present)), b)
            for b in random_boxes(rng, int(rng.integers(0, 4)) if present else 0,
                                  lo=0.1, hi=0.5)
        ]
        for _ in range(int(rng.integers(0, 8))):
            if ground_truths[scene] and rng.random() < 0.6:
                cls, (x1, y1, x2, y2) = ground_truths[scene][
                    int(rng.integers(len(ground_truths[scene])))
                ]
                dx, dy = rng.uniform(-0.05, 0.05, size=2)
                box = (max(x1 + dx, 0.0), max(y1 + dy, 0.0),
                       min(x2 + dx, 1.0), min(y2 + dy, 1.0))
            else:
                cls, box = int(rng.integers(num_classes)), random_boxes(rng, 1)[0]
            dets.append((scene, cls, float(rng.integers(0, 5)) / 4.0, box))
    return dets, ground_truths


def test_columnar_evaluation_equals_scalar_iou_oracle():
    rng = np.random.default_rng(15)
    for _ in range(200):
        num_classes = int(rng.integers(1, 4))
        flat_dets, flat_gts = random_evaluation(rng, num_classes)
        cols = Detections.of(
            det(scene, cls, box, score) for scene, cls, score, box in flat_dets
        )
        ground_truths = [[(cls, BBox(*b)) for cls, b in gt] for gt in flat_gts]
        for threshold in (0.1, 0.5, 0.7):
            expected = ref_evaluate_flags(
                flat_dets, dict(enumerate(flat_gts)), num_classes, threshold
            )
            if all(e is None for e in expected):
                continue
            for method in ("voc07_11point", "all_points"):
                cfg = EvalConfig(iou_threshold=threshold, ap_method=method)
                aps = [
                    None if e is None else average_precision(e[0], e[1], cfg)
                    for e in expected
                ]
                got = evaluate_detections(cols, ground_truths, num_classes, cfg)
                assert got == (aps, mean_ap(aps))


def test_gt_iou_rows_are_the_scalar_iou():
    # entries on padding or on a box of another class are NO_GT
    rng = np.random.default_rng(16)
    for _ in range(50):
        gts = [
            [(int(rng.integers(3)), BBox(*b))
             for b in random_boxes(rng, int(rng.integers(0, 5)))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        dets = [
            det(int(rng.integers(len(gts))), int(rng.integers(3)), b, 0.5)
            for b in random_boxes(rng, int(rng.integers(0, 9)))
        ]
        corners, classes = gt_table(gts)
        rows = gt_iou_rows(Detections.of(dets), corners, classes)
        width = max(len(gt) for gt in gts)
        assert corners.shape == (len(gts), width, 4)
        assert classes.tolist() == [
            [cls for cls, _ in gt] + [-1] * (width - len(gt)) for gt in gts
        ]
        want = np.full((len(dets), width), NO_GT)
        for i, d in enumerate(dets):
            for g, (cls, gt_box) in enumerate(gts[d.scene_id]):
                if cls == d.class_index:
                    want[i, g] = iou(d.box, gt_box)
        assert rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()


def test_evaluate_detections_rejects_unknown_scene():
    gt = [[(0, BBox(0.2, 0.2, 0.6, 0.6))], []]
    for scene in (7, 2, -1):
        dets = Detections.of([
            det(1, 0, (0.2, 0.2, 0.6, 0.6), 0.9), det(scene, 0, (0.2, 0.2, 0.6, 0.6), 0.5)
        ])
        with pytest.raises(ValueError, match=f"scene {scene}"):
            evaluate_detections(dets, gt, 1)


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
