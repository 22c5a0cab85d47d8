import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.geometry import BBox
from transferdet.losses import (
    LossWeights,
    bd_loss,
    bd_mask,
    check_score_matrix,
    image_multilabel_loss,
    image_score,
    proposal_cls_loss,
    rol_classifier_loss,
    sdk_loss,
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
    assert (w.lambda_main, w.lambda_bd, w.lambda_sdk) == (1.0, 0.5, 0.5)
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
    value, _ = sdk_loss(teacher, logits)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_sdk_loss_uniform_pair():
    teacher = np.array([[0.5], [0.5]])
    logits = np.zeros((2, 1))
    value, _ = sdk_loss(teacher, logits)
    assert value == pytest.approx(LN2, abs=1e-12)
    weighted, _ = sdk_loss(teacher, logits, weighted=True)
    assert weighted == pytest.approx(0.5 * LN2, abs=1e-12)


def test_sdk_loss_rejects_invalid_teacher():
    with pytest.raises(ValueError):
        sdk_loss(np.array([[0.6], [0.6]]), np.zeros((2, 1)))


def test_sdk_loss_minimum_at_teacher():
    rng = np.random.default_rng(2)
    for _ in range(20):
        teacher = random_score_matrix(rng, 5, 6)
        logits = np.log(teacher)  # softmax recovers the teacher exactly
        _, grad = sdk_loss(teacher, logits)
        assert np.linalg.norm(grad) < 1e-8


# --- image-level losses ---------------------------------------------------------


def test_image_score_zero_logits():
    np.testing.assert_allclose(image_score(np.zeros((4, 3))), 0.5)


def test_image_score_single_proposal():
    logits = np.zeros((3, 1))
    logits[1, 0] = 1.7
    scores = image_score(logits)
    assert scores[1] == pytest.approx(sigmoid(1.7), abs=1e-15)
    assert scores[0] == 0.5


def test_image_score_sums_logits():
    logits = np.zeros((2, 2))
    logits[0] = [1.0, 2.0]
    assert image_score(logits)[0] == pytest.approx(sigmoid(3.0), abs=1e-15)


def test_image_score_excludes_background_row():
    logits = np.zeros((3, 2))
    logits[2] = [9.0, 9.0]
    assert image_score(logits).shape == (2,)
    np.testing.assert_allclose(image_score(logits), 0.5)


def test_image_score_no_proposals():
    with pytest.raises(ValueError):
        image_score(np.zeros((3, 0)))


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
    value, grad = rol_classifier_loss(np.ones((3, 4)), np.zeros((3, 4)))
    assert value == 0.0
    assert not grad.any()


def test_rol_loss_soft_weight():
    logits = np.zeros((2, 1))
    pseudo = np.array([[0.8], [0.0]])
    value, _ = rol_classifier_loss(logits, pseudo)
    assert value == pytest.approx(0.8 * LN2, abs=1e-12)


def test_rol_loss_matched_one_hot():
    pseudo = np.array([[1.0], [0.0]])
    value, _ = rol_classifier_loss(np.array([[40.0], [0.0]]), pseudo)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_rol_loss_rejects_negative_pseudo():
    with pytest.raises(ValueError):
        rol_classifier_loss(np.zeros((2, 1)), np.array([[-0.1], [0.0]]))


def test_rol_loss_permutation_invariant():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((4, 7))
    pseudo = np.zeros((4, 7))
    for k in range(7):
        if k % 3 != 0:
            pseudo[rng.integers(0, 4), k] = rng.uniform(0.1, 1.0)
    base, base_grad = rol_classifier_loss(logits, pseudo)
    for _ in range(10):
        perm = rng.permutation(7)
        value, grad = rol_classifier_loss(logits[:, perm], pseudo[:, perm])
        assert value == pytest.approx(base, rel=1e-12)
        np.testing.assert_allclose(grad, base_grad[:, perm], atol=1e-12)


def test_proposal_cls_loss_and_labels():
    logits = np.zeros((3, 2))
    value, grad = proposal_cls_loss(logits, np.array([0, 2]))
    assert value == pytest.approx(2 * math.log(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        proposal_cls_loss(logits, np.array([0, 3]))


# --- stage totals ----------------------------------------------------------------
#
# The scene losses in the pipeline sum the weighted stage totals; these tests
# hold them to the weighted sum of the components they report.  The scene
# losses take parameters with a leading member axis and one config per
# member.


def stacked(params, members=1):
    return {k: np.repeat(v[None], members, axis=0) for k, v in params.items()}


def lstd_instance(rng, num_target=3, num_source=4, dim=4, k=5):
    pack = ScenePack(
        boxes=[],
        raw_means=rng.standard_normal((k, dim)),
        raw_grid=rng.standard_normal((3, 3, dim)),
        labels=rng.integers(0, num_target + 1, size=k),
        background_mask=rng.uniform(size=(3, 3)) < 0.5,
        teacher=random_score_matrix(rng, num_source + 1, k),
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
    pack = ScenePack(
        boxes=boxes,
        raw_means=rng.standard_normal((k, dim)),
        teacher=random_score_matrix(rng, num_source + 1, k),
        y_img=y_img,
    )
    params = {
        "backbone": 0.5 * rng.standard_normal((dim, dim)),
        "sdk_head": rng.standard_normal((num_source + 1, dim + 1)),
    }
    for i in range(classifiers):
        params[f"rol_head_{i}"] = rng.standard_normal((num_target + 1, dim + 1))
    return pack, params


def test_rol_total():
    rng = np.random.default_rng(7)
    for classifiers in (2, 3):
        pack, params = wstd_instance(rng, classifiers)
        cfg = StageConfig(rol=ROLConfig(num_classifiers=classifiers))
        comps, _, _ = wstd_scene_loss(stacked(params), pack, [cfg])
        per = [comps[f"rol_{i + 1}"][0] for i in range(classifiers)]
        assert comps["rol"][0] == float(sum(per))
        assert all(v >= 0.0 for v in per)
    with pytest.raises(ValueError):
        ROLConfig(num_classifiers=1)


def test_lstd_total_cases():
    pack, params = lstd_instance(np.random.default_rng(8))
    cfgs = [
        StageConfig(weights=w, **flags)
        for w, flags in (
            (LossWeights(), {}),
            (LossWeights(0.0, 0.0, 0.0, 0.0, 0.0), {}),
            (LossWeights(lambda_bd=0.0, lambda_sdk=0.0), {}),
            (LossWeights(), {"enable_bd": False}),
            (LossWeights(), {"enable_sdk": False}),
        )
    ]
    # all cases as the members of one call
    comps, _ = lstd_scene_loss(stacked(params, len(cfgs)), pack, cfgs)
    for m, cfg in enumerate(cfgs):
        w = cfg.weights
        lam_bd = w.lambda_bd if cfg.enable_bd else 0.0
        lam_sdk = w.lambda_sdk if cfg.enable_sdk else 0.0
        assert comps["total"][m] == (
            w.lambda_main * comps["main"][m] + lam_bd * comps["bd"][m]
            + lam_sdk * comps["sdk"][m]
        )
        if lam_bd == 0.0:
            assert comps["bd"][m] == 0.0
    zero, _ = lstd_scene_loss(
        stacked(params), pack, [StageConfig(weights=LossWeights(0.0, 0.0, 0.0, 0.0, 0.0))]
    )
    assert zero["total"][0] == 0.0
    main_only, _ = lstd_scene_loss(
        stacked(params), pack,
        [StageConfig(weights=LossWeights(lambda_bd=0.0, lambda_sdk=0.0))],
    )
    assert main_only["total"][0] == main_only["main"][0] > 0.0


def test_wstd_total_cases():
    pack, params = wstd_instance(np.random.default_rng(9))
    cfgs = [
        StageConfig(weights=w, **flags)
        for w, flags in (
            (LossWeights(), {}),
            (LossWeights(lambda_wstd_sdk=0.0), {}),
            (LossWeights(), {"enable_sdk": False}),
            (LossWeights(0.0, 0.0, 0.0, 0.0, 0.0), {}),
        )
    ]
    comps, _, _ = wstd_scene_loss(stacked(params, len(cfgs)), pack, cfgs)
    for m, cfg in enumerate(cfgs):
        w = cfg.weights
        lam_sdk = w.lambda_wstd_sdk if cfg.enable_sdk else 0.0
        assert comps["total"][m] == (
            lam_sdk * comps["sdk"][m] + w.lambda_wstd_rol * comps["rol"][m]
        )
    no_sdk, _, _ = wstd_scene_loss(
        stacked(params), pack, [StageConfig(weights=LossWeights(lambda_wstd_sdk=0.0))]
    )
    assert no_sdk["total"][0] == 50.0 * no_sdk["rol"][0]


def test_totals_are_linear():
    # Components do not depend on the weights, so each total is linear in them.
    rng = np.random.default_rng(5)
    lstd_pack, lstd_params = lstd_instance(rng)
    wstd_pack, wstd_params = wstd_instance(rng)

    def totals(weights):
        cfgs = [StageConfig(weights=LossWeights(*weights))]
        lstd, _ = lstd_scene_loss(stacked(lstd_params), lstd_pack, cfgs)
        wstd, _, _ = wstd_scene_loss(stacked(wstd_params), wstd_pack, cfgs)
        return np.array([lstd["total"][0], wstd["total"][0]])

    for _ in range(10):
        a = rng.uniform(0.1, 3.0, size=5)
        b = rng.uniform(0.1, 3.0, size=5)
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
        assert sdk_loss(teacher, logits)[0] >= 0.0
        assert sdk_loss(teacher, logits, weighted=True)[0] >= 0.0
        pseudo = np.zeros((rows, cols))
        pseudo[rng.integers(0, rows), 0] = rng.uniform(0.0, 1.0)
        assert rol_classifier_loss(logits, pseudo)[0] >= 0.0
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
            _, grad = sdk_loss(teacher, logits, weighted=weighted)
            report = grad_check(
                lambda z: sdk_loss(teacher, z, weighted=weighted)[0], grad, logits
            )
            assert report.passed, report

        pseudo = np.zeros((rows, cols))
        for k in range(cols):
            if rng.uniform() < 0.7:
                pseudo[rng.integers(0, rows), k] = rng.uniform(0.1, 1.0)
        _, grad = rol_classifier_loss(logits, pseudo)
        report = grad_check(lambda z: rol_classifier_loss(z, pseudo)[0], grad, logits)
        assert report.passed, report

        labels = rng.integers(0, rows, size=cols)
        _, grad = proposal_cls_loss(logits, labels)
        report = grad_check(lambda z: proposal_cls_loss(z, labels)[0], grad, logits)
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
        "sdk": sdk_loss(teacher, logits, weighted=flags),
        "proposal": proposal_cls_loss(logits, labels),
        "image": image_multilabel_loss(logits, y),
        "rol": rol_classifier_loss(logits, pseudo),
        "bd": bd_loss(grid, mask),
    }
    for m in range(members):
        single = {
            "softmax": (column_softmax(logits[m]),),
            "logits": (head_logits(weights[m], features[m]),),
            "shared_logits": (head_logits(weights[m], features[0]),),
            "backward": head_backward(weights[m], features[m], logits[m]),
            "sdk": sdk_loss(teacher, logits[m], weighted=flags[m]),
            "proposal": proposal_cls_loss(logits[m], labels),
            "image": image_multilabel_loss(logits[m], y),
            "rol": rol_classifier_loss(logits[m], pseudo[m]),
            "bd": bd_loss(grid[m], mask),
        }
        for name, outputs in single.items():
            for got, want in zip(stacked[name], outputs):
                if isinstance(want, float):
                    assert got.shape == (members,), name
                assert np.array_equal(got[m], want), name
