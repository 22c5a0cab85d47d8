import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.geometry import (
    BBox,
    coverage_masks,
    intersection_area,
    iou,
    nms,
    pairwise_iou,
)

from reference import random_boxes, ref_iou, ref_nms


def box(t):
    return BBox(*t)


def run_nms(boxes, scores, threshold, max_keep):
    return nms(scores, pairwise_iou(boxes), threshold, max_keep)


def test_bbox_rejects_degenerate_and_out_of_range():
    with pytest.raises(ValueError):
        BBox(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        BBox(0.6, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        BBox(-0.1, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, 0.5, 1.1)


def test_bbox_area_and_containment():
    b = BBox(0.25, 0.25, 0.75, 1.0)
    assert b.area == pytest.approx(0.375)
    # 4x4 cell centers at 0.125, 0.375, 0.625, 0.875; the edges of this box
    # pass through centers, and boundary centers count as covered
    edge = BBox(0.375, 0.125, 0.625, 0.875)
    expected = np.zeros((4, 4), dtype=bool)
    expected[:, 1:3] = True
    inner = BBox(0.13, 0.13, 0.37, 0.37)
    masks = coverage_masks(4, 4, [edge, inner])
    assert masks.shape == (2, 4, 4)
    assert np.array_equal(masks[0], expected)
    assert not masks[1].any()
    assert coverage_masks(4, 4, []).shape == (0, 4, 4)


def test_nms_demands_parallel_scores_and_iou():
    boxes = [BBox(0, 0, 0.5, 0.5)]
    with pytest.raises(ValueError):
        nms([0.4, 0.2], pairwise_iou(boxes), 0.5, 4)
    with pytest.raises(ValueError):
        nms([0.4], pairwise_iou(boxes, boxes + boxes), 0.5, 4)


def test_nms_reads_candidate_rows_of_kept_columns():
    # iou_matrix[candidate, kept] decides; the transposed entry is never read
    iou_matrix = np.array([[1.0, 0.9], [0.1, 1.0]])
    assert nms([0.9, 0.8], iou_matrix, 0.5, 4) == [0, 1]
    assert nms([0.8, 0.9], iou_matrix, 0.5, 4) == [1]


def test_pairwise_iou_is_bitwise_symmetric_and_blockwise():
    rng = np.random.default_rng(11)
    rows = [box(t) for t in random_boxes(rng, 20)]
    cols = [box(t) for t in random_boxes(rng, 7)]
    full = pairwise_iou(rows + cols)
    assert np.array_equal(full, full.T)
    assert np.array_equal(full[:20, 20:], pairwise_iou(rows, cols))
    assert np.array_equal(full[20:, :20], pairwise_iou(rows, cols).T)


def test_iou_identical_boxes():
    b = BBox(0.0, 0.0, 1.0, 1.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes():
    assert iou(BBox(0, 0, 0.2, 0.2), BBox(0.5, 0.5, 0.7, 0.7)) == 0.0


def test_iou_shared_edge_is_zero():
    assert iou(BBox(0, 0, 0.5, 0.5), BBox(0.5, 0, 1.0, 0.5)) == 0.0


def test_iou_one_third_case():
    # inter 0.1*0.2 = 0.02, union 0.04 + 0.04 - 0.02 = 0.06
    a = BBox(0.0, 0.0, 0.2, 0.2)
    b = BBox(0.1, 0.0, 0.3, 0.2)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert intersection_area(a, b) == pytest.approx(0.02, abs=1e-15)


def test_iou_symmetry_and_bounds_random():
    rng = np.random.default_rng(0)
    boxes = [box(t) for t in random_boxes(rng, 400)]
    for _ in range(5000):
        i, j = rng.integers(0, len(boxes), size=2)
        v = iou(boxes[i], boxes[j])
        assert iou(boxes[j], boxes[i]) == v
        assert 0.0 <= v <= 1.0
    for b in boxes[:50]:
        assert iou(b, b) == 1.0


def test_pairwise_iou_bitwise_matches_scalar():
    rng = np.random.default_rng(1)
    rows = [box(t) for t in random_boxes(rng, 40)]
    cols = [box(t) for t in random_boxes(rng, 25)]
    matrix = pairwise_iou(rows, cols)
    assert matrix.shape == (40, 25)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            assert matrix[i, j] == iou(a, b)
    square = pairwise_iou(rows)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert square[i, j] == iou(a, b)


def test_pairwise_iou_corner_arrays_match_box_sequences():
    rng = np.random.default_rng(5)
    rows = [box(t) for t in random_boxes(rng, 30)]
    cols = [box(t) for t in random_boxes(rng, 12)]
    row_arr = np.array([b.as_tuple() for b in rows])
    col_arr = np.array([b.as_tuple() for b in cols])
    expect = pairwise_iou(rows, cols)
    assert np.array_equal(pairwise_iou(row_arr, col_arr), expect)
    assert np.array_equal(pairwise_iou(row_arr, cols), expect)
    assert np.array_equal(pairwise_iou(rows, col_arr), expect)
    assert np.array_equal(pairwise_iou(row_arr), pairwise_iou(rows))
    assert pairwise_iou(np.empty((0, 4)), cols).shape == (0, 12)


def test_nms_single_box():
    kept = run_nms([BBox(0, 0, 0.5, 0.5)], [0.3], 0.5, 8)
    assert kept == [0]


def test_nms_worked_example():
    boxes = [BBox(0, 0, 1, 1), BBox(0, 0, 1, 1), BBox(0.8, 0.8, 1, 1)]
    kept = run_nms(boxes, [0.9, 0.8, 0.5], 0.75, 8)
    assert kept == [0, 2]


def test_nms_disjoint_boxes_all_kept():
    boxes = [BBox(0, 0, 0.3, 0.3), BBox(0.6, 0.6, 0.9, 0.9)]
    assert run_nms(boxes, [0.2, 0.9], 0.75, 8) == [1, 0]


def test_nms_empty_input():
    assert run_nms([], [], 0.5, 4) == []


def test_nms_tie_keeps_lower_index():
    boxes = [BBox(0, 0, 0.5, 0.5), BBox(0, 0, 0.5, 0.5)]
    assert run_nms(boxes, [0.7, 0.7], 0.5, 8) == [0]
    disjoint = [BBox(0, 0, 0.3, 0.3), BBox(0.5, 0.5, 0.8, 0.8)]
    assert run_nms(disjoint, [0.7, 0.7], 0.5, 8) == [0, 1]


def test_nms_max_keep_truncates():
    rng = np.random.default_rng(2)
    boxes = [box(t) for t in random_boxes(rng, 12)]
    scores = rng.uniform(size=12)
    full = run_nms(boxes, scores, 0.9, 12)
    short = run_nms(boxes, scores, 0.9, 3)
    assert short == full[:3]


def test_nms_rejects_bad_threshold_and_max_keep():
    boxes = [BBox(0, 0, 0.5, 0.5)]
    with pytest.raises(ValueError):
        run_nms(boxes, [0.5], 1.5, 4)
    with pytest.raises(ValueError):
        run_nms(boxes, [0.5], -0.1, 4)
    with pytest.raises(ValueError):
        run_nms(boxes, [0.5], 0.5, 0)


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(250):
        count = int(rng.integers(1, 9))
        tuples = random_boxes(rng, count, lo=0.1, hi=0.6)
        if count > 1 and rng.uniform() < 0.3:
            tuples[-1] = tuples[0]  # force duplicate boxes
        # coarse scores make exact ties common
        scores = rng.integers(0, 4, size=count) / 4.0
        threshold = float(rng.choice([0.0, 0.3, 0.5, 0.75, 1.0]))
        max_keep = int(rng.integers(1, count + 1))
        boxes = [box(t) for t in tuples]
        got = run_nms(boxes, scores, threshold, max_keep)
        assert got == ref_nms(tuples, list(scores), threshold, max_keep)


def test_nms_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(50):
        count = int(rng.integers(2, 16))
        boxes = [box(t) for t in random_boxes(rng, count)]
        scores = rng.uniform(size=count)
        kept = run_nms(boxes, scores, 0.5, count)
        again = run_nms(
            [boxes[i] for i in kept], [scores[i] for i in kept], 0.5, count
        )
        assert again == list(range(len(kept)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 3),
    scenes=st.integers(1, 3),
    count=st.integers(0, 9),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0]),
    max_keep=st.integers(1, 10),
)
def test_stacked_nms_rows_equal_the_1d_call_and_oracle(
    seed, rows, scenes, count, threshold, max_keep
):
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(scenes):
        scene = random_boxes(rng, count, lo=0.1, hi=0.6)
        if count > 1 and rng.uniform() < 0.5:
            scene[-1] = scene[0]  # duplicate boxes
        tuples.append(scene)
    iou = np.stack([pairwise_iou(np.array(t).reshape(-1, 4)) for t in tuples])
    # coarse scores make exact ties common
    scores = rng.integers(0, 4, size=(rows, scenes, count)) / 4.0
    kept = nms(scores, iou, threshold, max_keep)
    assert kept.shape == (rows, scenes, min(count, max_keep))
    for r in range(rows):
        for s in range(scenes):
            row = kept[r, s].tolist()
            got = [k for k in row if k >= 0]
            assert row == got + [-1] * (len(row) - len(got))  # padding trails
            assert got == nms(scores[r, s], iou[s], threshold, max_keep)
            assert got == ref_nms(tuples[s], list(scores[r, s]), threshold, max_keep)


def test_stacked_nms_validates_like_the_1d_call():
    iou = pairwise_iou([BBox(0, 0, 0.5, 0.5), BBox(0.5, 0.5, 1, 1)])
    stack = np.stack([iou, iou, iou])
    with pytest.raises(ValueError, match="outside"):
        nms(np.ones((3, 2)), stack, 1.5, 4)
    with pytest.raises(ValueError, match="max_keep"):
        nms(np.ones((3, 2)), stack, 0.5, 0)
    with pytest.raises(ValueError, match="IoU matrix"):
        nms(np.ones((3, 3)), stack, 0.5, 4)
    with pytest.raises(ValueError, match="broadcast"):
        nms(np.ones((2, 2)), stack, 0.5, 4)
    with pytest.raises(ValueError, match="stack"):
        nms(np.ones(2), stack, 0.5, 4)
    # one matrix serves every row
    assert nms(np.array([[0.2, 0.9], [0.9, 0.2]]), iou, 0.5, 4).tolist() == [
        [1, 0], [0, 1],
    ]
