import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.geometry import BBox, pairwise_iou
from transferdet.losses import (
    LossWeights,
    bd_loss,
    bd_mask,
    check_labels,
    check_pseudo,
    check_score_matrix,
    image_multilabel_loss,
    proposal_cls_loss,
    proposal_targets,
    rol_classifier_loss,
    sdk_loss,
    sdk_target,
)
from transferdet.labelling import ROLConfig
from transferdet.model import head_backward, head_logits
from transferdet.numerics import column_softmax, grad_check, sigmoid
from transferdet.pipeline import ScenePack, StageConfig, lstd_scene_loss, wstd_scene_loss

LN2 = math.log(2.0)


def random_score_matrix(rng, rows, cols):
    m = rng.uniform(0.05, 1.0, size=(rows, cols))
    return m / m.sum(axis=0, keepdims=True)


# --- weights and validation ---------------------------------------------------


def test_default_weights():
    w = LossWeights()
    assert (w.lambda_bd, w.lambda_sdk) == (0.5, 0.5)
    assert (w.lambda_wstd_sdk, w.lambda_wstd_rol) == (150.0, 50.0)


def test_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(lambda_bd=-0.1)


def test_check_score_matrix():
    good = np.array([[0.3, 1.0], [0.7, 0.0]])
    check_score_matrix(good)
    with pytest.raises(ValueError, match="column 1"):
        check_score_matrix(np.array([[0.3, 0.8], [0.7, 0.0]]))
    with pytest.raises(ValueError):
        check_score_matrix(np.array([[-0.1, 1.0], [1.1, 0.0]]))
    with pytest.raises(ValueError, match="column 0"):
        check_score_matrix(np.array([[0.6], [0.6]]))


# --- background depression ----------------------------------------------------


def test_bd_mask_full_cover():
    mask = bd_mask(2, 2, [BBox(0, 0, 1, 1)])
    assert not mask.any()


def test_bd_mask_no_boxes():
    assert bd_mask(2, 2, []).all()


def test_bd_mask_half_cover():
    # centers (0.25, .) inside the box, (0.75, .) outside -> right column bg
    mask = bd_mask(2, 2, [BBox(0, 0, 0.5, 1.0)])
    expected = np.array([[False, True], [False, True]])
    np.testing.assert_array_equal(mask, expected)


def test_bd_loss_zero_grid():
    value, grad = bd_loss(np.zeros((3, 3, 2)), np.ones((3, 3), dtype=bool))
    assert value == 0.0
    assert not grad.any()


def test_bd_loss_all_foreground():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((3, 4, 2))
    value, grad = bd_loss(grid, np.zeros((3, 4), dtype=bool))
    assert value == 0.0
    assert not grad.any()


def test_bd_loss_hand_case():
    grid = np.ones((2, 2, 1))
    mask = np.array([[False, True], [False, True]])
    value, grad = bd_loss(grid, mask)
    assert value == 2.0
    np.testing.assert_array_equal(grad[:, 1, 0], [2.0, 2.0])
    np.testing.assert_array_equal(grad[:, 0, 0], [0.0, 0.0])


def test_bd_loss_foreground_gradient_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        grid = rng.standard_normal((4, 5, 3))
        mask = rng.uniform(size=(4, 5)) < 0.5
        _, grad = bd_loss(grid, mask)
        assert not grad[~mask].any()


def test_bd_loss_shape_mismatch():
    with pytest.raises(ValueError):
        bd_loss(np.zeros((2, 2, 1)), np.zeros((3, 2), dtype=bool))


# --- distillation ---------------------------------------------------------------


def test_sdk_loss_one_hot_teacher_matched():
    teacher = np.array([[1.0], [0.0]])
    logits = np.array([[40.0], [0.0]])
    value, _ = sdk_loss(*sdk_target(teacher), logits)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_sdk_loss_uniform_pair():
    teacher = np.array([[0.5], [0.5]])
    logits = np.zeros((2, 1))
    value, _ = sdk_loss(*sdk_target(teacher), logits)
    assert value == pytest.approx(LN2, abs=1e-12)
    weighted, _ = sdk_loss(*sdk_target(teacher, weighted=True), logits)
    assert weighted == pytest.approx(0.5 * LN2, abs=1e-12)


def test_sdk_loss_minimum_at_teacher():
    rng = np.random.default_rng(2)
    for _ in range(20):
        teacher = random_score_matrix(rng, 5, 6)
        logits = np.log(teacher)  # softmax recovers the teacher exactly
        _, grad = sdk_loss(*sdk_target(teacher), logits)
        assert np.linalg.norm(grad) < 1e-8


# --- image-level losses ---------------------------------------------------------


# The image score p = sigmoid(z) of the object rows' logit sums z shows in
# the multilabel gradient: with all-zero labels, each column of object row
# c carries p_c.


def test_image_score_zero_logits():
    value, grad = image_multilabel_loss(np.zeros((4, 3)), np.zeros(3))
    np.testing.assert_allclose(grad[:-1], 0.5)
    assert value == pytest.approx(3 * LN2, abs=1e-12)


def test_image_score_single_proposal():
    logits = np.zeros((3, 1))
    logits[1, 0] = 1.7
    _, grad = image_multilabel_loss(logits, np.zeros(2))
    assert grad[1, 0] == pytest.approx(sigmoid(1.7), abs=1e-15)
    assert grad[0, 0] == 0.5


def test_image_score_sums_logits():
    logits = np.zeros((2, 2))
    logits[0] = [1.0, 2.0]
    _, grad = image_multilabel_loss(logits, np.zeros(1))
    np.testing.assert_allclose(grad[0], sigmoid(3.0), atol=1e-15)


def test_image_score_excludes_background_row():
    logits = np.zeros((3, 2))
    logits[2] = [9.0, 9.0]
    with pytest.raises(ValueError, match="label shape"):
        image_multilabel_loss(logits, np.zeros(3))
    value, grad = image_multilabel_loss(logits, np.zeros(2))
    np.testing.assert_allclose(grad[:-1], 0.5)
    assert value == pytest.approx(2 * LN2, abs=1e-12)


def test_image_score_no_proposals():
    with pytest.raises(ValueError, match="at least one proposal"):
        image_multilabel_loss(np.zeros((3, 0)), np.zeros(2))


def _logits_with_row_sums(z):
    """(C+1) x 2 logits whose object rows sum to ``z``."""
    logits = np.zeros((len(z) + 1, 2))
    logits[:-1, 0] = z
    return logits


def test_multilabel_loss_matched_one_hot():
    y = np.array([1.0, 0.0, 0.0])
    value, _ = image_multilabel_loss(_logits_with_row_sums([40.0, -40.0, -40.0]), y)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_multilabel_loss_uniform_negatives():
    value, _ = image_multilabel_loss(np.zeros((21, 3)), np.zeros(20))
    assert value == pytest.approx(20 * LN2, abs=1e-12)


def test_multilabel_loss_single_positive():
    value, _ = image_multilabel_loss(np.zeros((2, 3)), np.array([1.0]))
    assert value == pytest.approx(LN2, abs=1e-12)


def test_multilabel_loss_exact_when_saturated():
    # softplus form: no clamp, no log(1 - p) cancellation
    logits = _logits_with_row_sums([50.0, -50.0, 800.0])
    value, grad = image_multilabel_loss(logits, np.array([0.0, 1.0, 1.0]))
    assert value == 100.0
    assert np.all(np.isfinite(grad))
    with pytest.raises(ValueError):
        image_multilabel_loss(logits, np.zeros(2))


def test_image_multilabel_background_row_gradient_zero():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((4, 5))
    y = np.array([1.0, 0.0, 1.0])
    _, grad = image_multilabel_loss(logits, y)
    assert not grad[-1].any()


# --- pseudo-label cross entropy --------------------------------------------------


def test_rol_loss_zero_pseudo():
    probs = column_softmax(np.ones((3, 4)))
    value, grad = rol_classifier_loss(probs, np.zeros((3, 4)))
    assert value == 0.0
    assert not grad.any()


def test_rol_loss_soft_weight():
    logits = np.zeros((2, 1))
    pseudo = np.array([[0.8], [0.0]])
    value, _ = rol_classifier_loss(column_softmax(logits), pseudo)
    assert value == pytest.approx(0.8 * LN2, abs=1e-12)


def test_rol_loss_matched_one_hot():
    pseudo = np.array([[1.0], [0.0]])
    value, _ = rol_classifier_loss(column_softmax(np.array([[40.0], [0.0]])), pseudo)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_rol_loss_rejects_negative_pseudo():
    # pseudo labels from outside the labeller are checked on entry
    pseudo = check_pseudo([[0.5], [0.0]], (2, 1))
    assert pseudo.dtype == float
    with pytest.raises(ValueError, match="nonnegative"):
        check_pseudo(np.array([[-0.1], [0.0]]), (2, 1))
    with pytest.raises(ValueError, match="shape"):
        check_pseudo(np.zeros((2, 1)), (2, 2))


def test_rol_loss_permutation_invariant():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((4, 7))
    pseudo = np.zeros((4, 7))
    for k in range(7):
        if k % 3 != 0:
            pseudo[rng.integers(0, 4), k] = rng.uniform(0.1, 1.0)
    base, base_grad = rol_classifier_loss(column_softmax(logits), pseudo)
    for _ in range(10):
        perm = rng.permutation(7)
        value, grad = rol_classifier_loss(
            column_softmax(logits[:, perm]), pseudo[:, perm]
        )
        assert value == pytest.approx(base, rel=1e-12)
        np.testing.assert_allclose(grad, base_grad[:, perm], atol=1e-12)


def test_proposal_cls_loss_and_labels():
    logits = np.zeros((3, 2))
    targets = proposal_targets(np.array([0, 2]), 3)
    assert targets.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    value, grad = proposal_cls_loss(logits, targets)
    assert value == pytest.approx(2 * math.log(3.0), abs=1e-12)
    # one target matrix per member of a stack, and no other target shape
    stacked = np.zeros((2, 3, 2))
    values, _ = proposal_cls_loss(
        stacked, proposal_targets(np.array([[0, 2], [1, 1]]), 3)
    )
    assert values.shape == (2,)
    for labels, logits_ in (
        (np.array([[0, 2]]), logits),
        (np.array([[0, 2], [1, 1], [0, 0]]), stacked),
        (np.array([[0, 2, 1], [1, 1, 0]]), stacked),
    ):
        with pytest.raises(ValueError, match="does not match"):
            proposal_cls_loss(logits_, proposal_targets(labels, 3))
    with pytest.raises(ValueError, match="does not match"):
        proposal_cls_loss(logits, proposal_targets(np.array([0, 2]), 4))
    # labels are checked where they enter, against the logits' rows
    assert check_labels([[0, 2], [1, 1]], 3).dtype == int
    for labels in ([0, 3], [[0, 2], [1, 3]], [-1, 0]):
        with pytest.raises(ValueError, match="outside class range"):
            check_labels(np.array(labels), 3)


def test_proposal_cls_loss_on_targets_is_the_label_gather_bit_for_bit():
    # (probs * targets).sum over classes adds one probability and exact
    # zeros, and probs - targets subtracts 1.0 at the label alone
    rng = np.random.default_rng(21)
    for members in (None, 3):
        shape = (5, 9) if members is None else (members, 5, 9)
        logits = 3.0 * rng.standard_normal(shape)
        labels = rng.integers(0, 5, size=shape[:-2] + (9,))
        value, grad = proposal_cls_loss(logits, proposal_targets(labels, 5))
        probs = column_softmax(logits)
        rows = np.indices(labels.shape)
        index = (*rows[:-1], labels, rows[-1])
        picked = np.ascontiguousarray(probs[index])
        want = -np.log(np.maximum(picked, 1e-12)).sum(axis=-1)
        want_grad = probs.copy()
        want_grad[index] -= 1.0
        assert np.array_equal(value, want)
        assert np.array_equal(grad, want_grad)


# --- stage totals ----------------------------------------------------------------
#
# The scene losses in the pipeline sum the weighted stage totals; these tests
# hold them to the weighted sum of the components they report.  The scene
# losses take parameters with a leading member axis and one config per
# member.


def grads_for(params):
    """One gradient array per parameter block, for a scene loss to fill."""
    return {k: np.empty_like(v) for k, v in params.items()}


def stacked(params, members=1):
    """Each block repeated ``members`` times along its member axis: the
    leading one, or the second of the (N, M, C+1, D+1) ``rol_heads``."""
    axis = {k: int(k == "rol_heads") for k in params}
    return {
        k: np.repeat(np.expand_dims(v, axis[k]), members, axis=axis[k])
        for k, v in params.items()
    }


def lstd_instance(rng, num_target=3, num_source=4, dim=4, k=5):
    raw_means = rng.standard_normal((k, dim))
    raw_grid = rng.standard_normal((3, 3, dim))
    labels = rng.integers(0, num_target + 1, size=k)
    background_mask = rng.uniform(size=(3, 3)) < 0.5
    teacher = random_score_matrix(rng, num_source + 1, k)
    pack = ScenePack(
        raw_means=raw_means,
        raw_grid=raw_grid,
        targets=proposal_targets(labels, num_target + 1),
        background_mask=background_mask,
        teacher=teacher,
        sdk=sdk_target(teacher),
    )
    params = {
        "backbone": rng.standard_normal((dim, dim)),
        "main_head": rng.standard_normal((num_target + 1, dim + 1)),
        "sdk_head": rng.standard_normal((num_source + 1, dim + 1)),
    }
    return pack, params


def wstd_instance(rng, classifiers=3, num_target=3, num_source=4, dim=4, k=6):
    boxes = [
        BBox(x, y, x + 0.3, y + 0.3)
        for x, y in rng.uniform(0.0, 0.7, size=(k, 2))
    ]
    y_img = np.zeros(num_target)
    y_img[rng.integers(0, num_target)] = 1.0
    raw_means = rng.standard_normal((k, dim))
    teacher = random_score_matrix(rng, num_source + 1, k)
    pack = ScenePack(
        raw_means=raw_means,
        teacher=teacher,
        sdk=sdk_target(teacher),
        y_img=y_img,
        iou=pairwise_iou(boxes),
        present=np.flatnonzero(y_img),
    )
    params = {
        "backbone": 0.5 * rng.standard_normal((dim, dim)),
        "sdk_head": rng.standard_normal((num_source + 1, dim + 1)),
        "rol_heads": rng.standard_normal((classifiers, num_target + 1, dim + 1)),
    }
    return pack, params


def test_rol_total():
    rng = np.random.default_rng(7)
    for classifiers in (2, 3):
        pack, params = wstd_instance(rng, classifiers)
        cfg = StageConfig(rol=ROLConfig(num_classifiers=classifiers))
        comps, _ = wstd_scene_loss(
            stacked(params), pack, [cfg], grads_for(stacked(params))
        )
        per = [comps[f"rol_{i + 1}"][0] for i in range(classifiers)]
        assert comps["rol"][0] == float(sum(per))
        assert all(v >= 0.0 for v in per)
    with pytest.raises(ValueError):
        ROLConfig(num_classifiers=1)


def test_lstd_total_cases():
    pack, params = lstd_instance(np.random.default_rng(8))
    cfgs = [
        StageConfig(weights=w)
        for w in (
            LossWeights(),
            LossWeights(0.0, 0.0, 0.0, 0.0),
            LossWeights(lambda_bd=0.0, lambda_sdk=0.0),
            LossWeights(lambda_bd=0.0),
            LossWeights(lambda_sdk=0.0),
        )
    ]
    # all cases as the members of one call
    members = stacked(params, len(cfgs))
    comps = lstd_scene_loss(members, pack, cfgs, grads_for(members))
    for m, cfg in enumerate(cfgs):
        w = cfg.weights
        assert comps["total"][m] == (
            comps["main"][m] + w.lambda_bd * comps["bd"][m]
            + w.lambda_sdk * comps["sdk"][m]
        )
        if w.lambda_bd == 0.0:
            assert comps["bd"][m] == 0.0
    # the main loss has unit weight: with both regularizers off it is the total
    main_only = lstd_scene_loss(
        stacked(params), pack,
        [StageConfig(weights=LossWeights(lambda_bd=0.0, lambda_sdk=0.0))],
        grads_for(stacked(params)),
    )
    assert main_only["total"][0] == main_only["main"][0] > 0.0


def test_wstd_total_cases():
    pack, params = wstd_instance(np.random.default_rng(9))
    cfgs = [
        StageConfig(weights=w)
        for w in (
            LossWeights(),
            LossWeights(lambda_wstd_sdk=0.0),
            LossWeights(lambda_sdk=0.0, lambda_wstd_sdk=0.0),
            LossWeights(lambda_wstd_rol=0.0),
            LossWeights(0.0, 0.0, 0.0, 0.0),
        )
    ]
    members = stacked(params, len(cfgs))
    comps, _ = wstd_scene_loss(members, pack, cfgs, grads_for(members))
    for m, cfg in enumerate(cfgs):
        w = cfg.weights
        assert comps["total"][m] == (
            w.lambda_wstd_sdk * comps["sdk"][m] + w.lambda_wstd_rol * comps["rol"][m]
        )
    no_sdk, _ = wstd_scene_loss(
        stacked(params), pack, [StageConfig(weights=LossWeights(lambda_wstd_sdk=0.0))],
        grads_for(stacked(params)),
    )
    assert no_sdk["total"][0] == 50.0 * no_sdk["rol"][0]


def test_totals_are_linear():
    # Components do not depend on the weights, so each total is linear in
    # them, past the unit-weight main loss of fine-tuning.
    rng = np.random.default_rng(5)
    lstd_pack, lstd_params = lstd_instance(rng)
    wstd_pack, wstd_params = wstd_instance(rng)

    def totals(weights):
        cfgs = [StageConfig(weights=LossWeights(*weights))]
        lstd_members, wstd_members = stacked(lstd_params), stacked(wstd_params)
        lstd = lstd_scene_loss(lstd_members, lstd_pack, cfgs, grads_for(lstd_members))
        wstd, _ = wstd_scene_loss(
            wstd_members, wstd_pack, cfgs, grads_for(wstd_members)
        )
        return np.array([lstd["total"][0] - lstd["main"][0], wstd["total"][0]])

    for _ in range(10):
        a = rng.uniform(0.1, 3.0, size=4)
        b = rng.uniform(0.1, 3.0, size=4)
        t = rng.uniform(0.1, 4.0)
        np.testing.assert_allclose(totals(t * a), t * totals(a), rtol=1e-12)
        np.testing.assert_allclose(totals(a + b), totals(a) + totals(b), rtol=1e-12)


# --- losses are nonnegative and gradients check ----------------------------------


def test_losses_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(1, 10))
        logits = rng.standard_normal((rows, cols))
        teacher = random_score_matrix(rng, rows, cols)
        assert sdk_loss(*sdk_target(teacher), logits)[0] >= 0.0
        assert sdk_loss(*sdk_target(teacher, weighted=True), logits)[0] >= 0.0
        pseudo = np.zeros((rows, cols))
        pseudo[rng.integers(0, rows), 0] = rng.uniform(0.0, 1.0)
        assert rol_classifier_loss(column_softmax(logits), pseudo)[0] >= 0.0
        grid = rng.standard_normal((3, 3, 2))
        mask = rng.uniform(size=(3, 3)) < 0.5
        assert bd_loss(grid, mask)[0] >= 0.0
        y = (rng.uniform(size=rows - 1) < 0.5).astype(float)
        assert image_multilabel_loss(logits, y)[0] >= 0.0


def test_gradients_pass_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(1, 10))
        logits = rng.standard_normal((rows, cols))

        teacher = random_score_matrix(rng, rows, cols)
        for weighted in (False, True):
            target, mass = sdk_target(teacher, weighted=weighted)
            _, grad = sdk_loss(target, mass, logits)
            report = grad_check(
                lambda z: sdk_loss(target, mass, z)[0], grad, logits
            )
            assert report.passed, report

        pseudo = np.zeros((rows, cols))
        for k in range(cols):
            if rng.uniform() < 0.7:
                pseudo[rng.integers(0, rows), k] = rng.uniform(0.1, 1.0)
        _, grad = rol_classifier_loss(column_softmax(logits), pseudo)
        report = grad_check(
            lambda z: rol_classifier_loss(column_softmax(z), pseudo)[0], grad, logits
        )
        assert report.passed, report

        targets = proposal_targets(rng.integers(0, rows, size=cols), rows)
        _, grad = proposal_cls_loss(logits, targets)
        report = grad_check(lambda z: proposal_cls_loss(z, targets)[0], grad, logits)
        assert report.passed, report

        y = (rng.uniform(size=rows - 1) < 0.5).astype(float)
        small = 0.4 * rng.standard_normal((rows, cols))
        _, grad = image_multilabel_loss(small, y)
        report = grad_check(lambda z: image_multilabel_loss(z, y)[0], grad, small)
        assert report.passed, report

        grid = rng.standard_normal((3, 4, 2))
        mask = rng.uniform(size=(3, 4)) < 0.5
        _, grad = bd_loss(grid, mask)
        report = grad_check(lambda g: bd_loss(g, mask)[0], grad, grid)
        assert report.passed, report


# --- the member axis ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    members=st.integers(1, 3),
    rows=st.integers(2, 6),
    cols=st.integers(1, 9),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_member_slices_equal_unstacked_calls(members, rows, cols, dim, seed):
    # Each member of a (M, ...) stack gets bit for bit what the unstacked
    # call on its slice gives; a one-member stack is the 2-D call.
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((members, rows, cols))
    weights = rng.standard_normal((members, rows, dim + 1))
    features = rng.standard_normal((members, cols, dim))
    teacher = random_score_matrix(rng, rows, cols)
    flags = list(rng.uniform(size=members) < 0.5)
    labels = rng.integers(0, rows, size=cols)
    label_rows = rng.integers(0, rows, size=(members, cols))
    y = (rng.uniform(size=rows - 1) < 0.5).astype(float)
    pseudo = rng.uniform(size=(members, rows, cols)) * (
        rng.uniform(size=(members, rows, cols)) < 0.3
    )
    grid = rng.standard_normal((members, 3, 4, dim))
    mask = rng.uniform(size=(3, 4)) < 0.5

    stacked = {
        "softmax": (column_softmax(logits),),
        "logits": (head_logits(weights, features),),
        "shared_logits": (head_logits(weights, features[0]),),
        "backward": head_backward(weights, features, logits),
        "backward_out": head_backward(
            weights, features, logits, out=np.empty_like(weights)
        ),
        "sdk": sdk_loss(*sdk_target(teacher, weighted=flags), logits),
        "proposal": proposal_cls_loss(logits, proposal_targets(labels, rows)),
        "proposal_rows": proposal_cls_loss(logits, proposal_targets(label_rows, rows)),
        "image": image_multilabel_loss(logits, y),
        "rol": rol_classifier_loss(column_softmax(logits), pseudo),
        "bd": bd_loss(grid, mask),
    }
    for m in range(members):
        single = {
            "softmax": (column_softmax(logits[m]),),
            "logits": (head_logits(weights[m], features[m]),),
            "shared_logits": (head_logits(weights[m], features[0]),),
            "backward": head_backward(weights[m], features[m], logits[m]),
            "backward_out": head_backward(weights[m], features[m], logits[m]),
            "sdk": sdk_loss(*sdk_target(teacher, weighted=flags[m]), logits[m]),
            "proposal": proposal_cls_loss(logits[m], proposal_targets(labels, rows)),
            "proposal_rows": proposal_cls_loss(
                logits[m], proposal_targets(label_rows[m], rows)
            ),
            "image": image_multilabel_loss(logits[m], y),
            "rol": rol_classifier_loss(column_softmax(logits[m]), pseudo[m]),
            "bd": bd_loss(grid[m], mask),
        }
        for name, outputs in single.items():
            for got, want in zip(stacked[name], outputs):
                if isinstance(want, float):
                    assert got.shape == (members,), name
                assert np.array_equal(got[m], want), name
