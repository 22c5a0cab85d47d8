import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.geometry import BBox, iou, pairwise_iou
from transferdet.labelling import (
    ROLConfig,
    label_rows,
    mine_support,
    present_classes,
)

from reference import check_pseudo_matrix, random_boxes, ref_label

CFG = ROLConfig()


def strip(x, width):
    # unit-height strips make IoU easy to place: iou = (w - x) / (w + x)
    return BBox(x, 0.0, x + width, 1.0)


def oicr_rows(scores, boxes, y, cfg, iou_cache=None):
    """The OICR labels of one score row through :func:`label_rows`."""
    iou_matrix = pairwise_iou(boxes) if iou_cache is None else iou_cache
    return label_rows(
        np.asarray(scores, dtype=float), iou_matrix, np.flatnonzero(y),
        cfg.phi_obj, cfg.phi_bg, oicr=True,
    )


def random_instance(rng, num_classes=None, count=None):
    num_classes = num_classes or int(rng.integers(1, 5))
    count = count or int(rng.integers(1, 12))
    boxes = [BBox(*t) for t in random_boxes(rng, count, lo=0.1, hi=0.6)]
    scores = rng.uniform(0.05, 1.0, size=(num_classes + 1, count))
    scores /= scores.sum(axis=0, keepdims=True)
    y = np.zeros(num_classes)
    y[rng.choice(num_classes, size=int(rng.integers(1, num_classes + 1)), replace=False)] = 1
    return scores, boxes, y


def test_rol_config_defaults_and_validation():
    assert (CFG.phi_obj, CFG.phi_bg, CFG.num_classifiers) == (0.5, 0.3, 3)
    with pytest.raises(ValueError):
        ROLConfig(phi_obj=0.3, phi_bg=0.5)
    with pytest.raises(ValueError):
        ROLConfig(phi_obj=1.2)
    # no IoU exceeds 1, so phi_obj = 1 would leave even the seed unlabelled
    with pytest.raises(ValueError, match="phi_obj < 1"):
        ROLConfig(phi_obj=1.0)
    with pytest.raises(ValueError):
        ROLConfig(num_classifiers=1)


def test_check_pseudo_matrix():
    check_pseudo_matrix(np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="2 nonzero"):
        check_pseudo_matrix(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        check_pseudo_matrix(np.array([[-0.5], [0.0]]))
    with pytest.raises(ValueError):
        check_pseudo_matrix(np.array([[1.5], [0.0]]))


def test_present_classes():
    assert present_classes(np.array([0, 1, 1])) == [1, 2]
    with pytest.raises(ValueError):
        present_classes(np.zeros(3))


def test_seed_is_the_first_top_proposal():
    # class 0 ties at columns 1 and 2, each far from the other: the seed is
    # column 1, so only it is object-labelled
    boxes = [strip(0.0, 0.2), strip(0.3, 0.2), strip(0.7, 0.2)]
    scores = np.array([[0.1, 0.6, 0.6], [0.9, 0.4, 0.4]])
    mined = mine_support(scores, boxes, np.array([1.0]), CFG)
    np.testing.assert_array_equal(mined, [[0.0, 0.6, 0.0], [0.0, 0.0, 0.0]])


def test_zero_score_seed_leaves_its_column_unlabelled():
    # class 1 scores 0.0 everywhere, so its seed (column 0) weighs 0.0: the
    # column counts as unlabelled and class 0's band makes it background
    boxes = [strip(0.0, 0.5), strip(0.215, 0.5)]
    assert 0.3 < iou(boxes[0], boxes[1]) < 0.5
    scores = np.array([[0.2, 0.7], [0.0, 0.0], [0.8, 0.3]])
    y = np.array([1.0, 1.0])
    expected = [[0.0, 0.7], [0.0, 0.0], [0.7, 0.0]]
    np.testing.assert_array_equal(mine_support(scores, boxes, y, CFG), expected)
    np.testing.assert_array_equal(oicr_rows(scores, boxes, y, CFG), expected)


def test_worked_band_example():
    # seed A scores 0.8; B in the object band, C in the background band,
    # D too far away to be labelled at all
    boxes = [strip(0.0, 0.5), strip(0.125, 0.5), strip(0.215, 0.5), strip(0.41, 0.5)]
    assert iou(boxes[0], boxes[1]) > 0.5
    assert 0.3 < iou(boxes[0], boxes[2]) < 0.5
    assert iou(boxes[0], boxes[3]) < 0.3
    scores = np.array([[0.8, 0.5, 0.3, 0.1], [0.2, 0.5, 0.7, 0.9]])
    y = np.array([1.0])

    mined = mine_support(scores, boxes, y, CFG)
    expected = np.array([[0.8, 0.8, 0.0, 0.0], [0.0, 0.0, 0.8, 0.0]])
    np.testing.assert_array_equal(mined, expected)

    baseline = oicr_rows(scores, boxes, y, CFG)
    expected[1, 3] = 0.8
    np.testing.assert_array_equal(baseline, expected)


def test_single_proposal_single_class():
    boxes = [BBox(0.2, 0.2, 0.6, 0.6)]
    scores = np.array([[0.7], [0.3]])
    y = np.array([1.0])
    expected = np.array([[0.7], [0.0]])
    np.testing.assert_array_equal(mine_support(scores, boxes, y, CFG), expected)
    np.testing.assert_array_equal(oicr_rows(scores, boxes, y, CFG), expected)


def test_conflicting_classes_keep_larger_weight():
    # both classes' top proposal is column 0; class 0 carries more weight
    boxes = [BBox(0.1, 0.1, 0.5, 0.5), BBox(0.6, 0.6, 0.9, 0.9)]
    scores = np.array([
        [0.90, 0.05],
        [0.07, 0.05],
        [0.03, 0.90],
    ])
    y = np.array([1.0, 1.0])
    mined = mine_support(scores, boxes, y, CFG)
    assert mined[0, 0] == 0.9
    assert mined[1, 0] == 0.0


def test_conflicting_classes_tie_keeps_lower_index():
    boxes = [BBox(0.1, 0.1, 0.5, 0.5)]
    scores = np.array([[0.45], [0.45], [0.10]])
    y = np.array([1.0, 1.0])
    mined = mine_support(scores, boxes, y, CFG)
    assert mined[0, 0] == 0.45
    assert mined[1, 0] == 0.0


def test_object_labels_beat_background():
    # column 1 sits in class 0's object band and class 1's background band
    boxes = [strip(0.0, 0.5), strip(0.1, 0.5), strip(0.3, 0.5)]
    assert iou(boxes[0], boxes[1]) > 0.5
    assert 0.3 < iou(boxes[2], boxes[1]) < 0.5
    scores = np.array([
        [0.60, 0.10, 0.05],
        [0.05, 0.10, 0.90],
        [0.35, 0.80, 0.05],
    ])
    y = np.array([1.0, 1.0])
    mined = mine_support(scores, boxes, y, CFG)
    assert mined[0, 1] == 0.6  # object label wins even though 0.9 > 0.6
    assert mined[2, 1] == 0.0


def test_matches_reference_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        scores, boxes, y = random_instance(rng)
        tuples = [b.as_tuple() for b in boxes]
        np.testing.assert_array_equal(
            mine_support(scores, boxes, y, CFG),
            ref_label(scores, tuples, y, CFG.phi_obj, CFG.phi_bg, "support"),
        )
        np.testing.assert_array_equal(
            oicr_rows(scores, boxes, y, CFG),
            ref_label(scores, tuples, y, CFG.phi_obj, CFG.phi_bg, "oicr"),
        )


def test_invariants_by_recomputation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        scores, boxes, y = random_instance(rng)
        mined = check_pseudo_matrix(mine_support(scores, boxes, y, CFG))
        baseline = check_pseudo_matrix(oicr_rows(scores, boxes, y, CFG))
        bg = scores.shape[0] - 1
        present = [c for c in range(bg) if y[c]]
        seeds = {c: int(np.argmax(scores[c])) for c in present}
        top_scores = {scores[c, j] for c, j in seeds.items()}

        # seed columns always end up object-labelled in both labellers
        for c, j in seeds.items():
            assert mined[:bg, j].max() > 0.0
            assert baseline[:bg, j].max() > 0.0

        # object rows agree between the labellers
        np.testing.assert_array_equal(mined[:bg], baseline[:bg])
        # baseline never leaves a zero column
        assert (baseline != 0.0).any(axis=0).all()
        # every weight equals some top-proposal score
        for v in np.concatenate([mined[mined > 0], baseline[baseline > 0]]):
            assert v in top_scores

        for k in range(len(boxes)):
            overlaps = {c: iou(boxes[k], boxes[j]) for c, j in seeds.items()}
            labelled = np.nonzero(mined[:, k])[0]
            if labelled.size and labelled[0] < bg:
                assert overlaps[labelled[0]] > CFG.phi_obj
            elif labelled.size:  # background label
                assert any(
                    CFG.phi_bg < overlaps[c] < CFG.phi_obj for c in present
                )
            else:  # zero column: no band applies once objects are excluded
                assert all(overlaps[c] <= CFG.phi_obj for c in present)
                assert not any(
                    CFG.phi_bg < overlaps[c] < CFG.phi_obj for c in present
                )


def test_joint_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        scores, boxes, y = random_instance(rng)
        for labeller in (mine_support, oicr_rows):
            base = labeller(scores, boxes, y, CFG)
            perm = rng.permutation(len(boxes))
            permuted = labeller(
                scores[:, perm], [boxes[i] for i in perm], y, CFG
            )
            np.testing.assert_array_equal(permuted, base[:, perm])


def test_iou_cache_is_equivalent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores, boxes, y = random_instance(rng)
        cache = pairwise_iou(boxes)
        for labeller in (mine_support, oicr_rows):
            np.testing.assert_array_equal(
                labeller(scores, boxes, y, CFG, iou_cache=cache),
                labeller(scores, boxes, y, CFG),
            )


def test_shape_mismatch_rejected():
    boxes = [BBox(0.1, 0.1, 0.5, 0.5)]
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        mine_support(scores, boxes, np.array([1.0]), CFG)
    with pytest.raises(ValueError):
        mine_support(scores[:, :1], boxes, np.array([1.0, 0.0]), CFG)


# (phi_obj, phi_bg) pairs
BANDS = [(0.5, 0.3), (0.5, 0.0), (0.7, 0.1), (0.5, 0.45), (0.05, 0.0), (0.99, 0.6)]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(1, 4),
    count=st.integers(1, 10),
    depth=st.integers(1, 3),
    members=st.integers(1, 4),
    subset=st.integers(1, 15),
)
def test_stacked_labeller_rows_equal_one_row_forms_and_oracle(
    seed, num_classes, count, depth, members, subset
):
    rng = np.random.default_rng(seed)
    tuples = random_boxes(rng, count, lo=0.1, hi=0.6)
    if count > 1 and rng.uniform() < 0.5:
        tuples[-1] = tuples[0]  # duplicate boxes
    boxes = [BBox(*t) for t in tuples]
    # coarse scores make tied seeds, tied claims and zero-score seeds common
    scores = rng.integers(0, 4, size=(depth, members, num_classes + 1, count)) / 4.0
    if rng.uniform() < 0.5:
        scores[..., rng.integers(0, num_classes), :] = 0.0
    y = np.array([(subset >> c) & 1 for c in range(num_classes)], dtype=float)
    if not y.any():
        y[subset % num_classes] = 1.0
    cfgs = [ROLConfig(*BANDS[i]) for i in rng.integers(0, len(BANDS), size=members)]
    oicr = rng.uniform(size=members) < 0.5
    cache = pairwise_iou(boxes)

    stacked = label_rows(
        scores, cache, np.flatnonzero(y),
        np.array([c.phi_obj for c in cfgs]), np.array([c.phi_bg for c in cfgs]), oicr,
    )
    assert stacked.shape == scores.shape
    for d in range(depth):
        for m, cfg in enumerate(cfgs):
            row = scores[d, m]
            labeller = oicr_rows if oicr[m] else mine_support
            mode = "oicr" if oicr[m] else "support"
            got = stacked[d, m]
            assert np.array_equal(got, labeller(row, boxes, y, cfg, iou_cache=cache))
            assert np.array_equal(got, labeller(row, boxes, y, cfg))
            assert np.array_equal(
                got, ref_label(row, tuples, y, cfg.phi_obj, cfg.phi_bg, mode)
            )
