"""Stage orchestration tests: scene packing, training determinism, the
frozen-teacher contracts, and the experiment runner's artifacts."""

import json
from dataclasses import replace

import numpy as np
import pytest

from transferdet import pipeline
from transferdet.evaluation import evaluate_detections, mean_ap
from transferdet.geometry import BBox, pairwise_iou
from transferdet.model import (
    extract_sdk,
    head_logits,
    init_backbone,
    init_head,
    pool_raw_means,
)
from transferdet.numerics import column_softmax
from transferdet.pipeline import (
    EXPERIMENTS,
    INFERENCE_NMS_THRESHOLD,
    PROPOSAL_LABEL_IOU,
    Members,
    RunReport,
    StageConfig,
    UnknownExperimentError,
    anchor_boxes,
    apply_overrides,
    collect_class_scenes,
    detect,
    evaluate_model,
    experiment_output_paths,
    lstd_finetune,
    lstd_scene_loss,
    pack_lstd_scene,
    pack_weak_scenes,
    pack_wstd_scene,
    proposal_labels,
    run_experiment,
    train_source,
    warmup_proposals,
    write_experiment_csv,
    write_summary_csv,
    wstd_scene_loss,
    wstd_train,
)
from transferdet.losses import LossWeights
from transferdet.model import OptimizerConfig
from transferdet.synthworld import (
    PROPOSAL_NMS_THRESHOLD,
    Scene,
    WorldConfig,
    make_world,
    sample_scenes,
    substream,
)

from reference import (
    ref_adam_train,
    ref_ap,
    ref_match,
    ref_nms,
    ref_pool,
    ref_proposal_labels,
)

# Short stage lengths keep each fixture under a second while still moving
# every parameter block away from its initialization.
TINY = StageConfig(
    shots_per_class=1,
    weak_scenes_per_class=3,
    source_scenes=40,
    source_epochs=6,
    lstd_epochs=30,
    wstd_epochs=4,
    eval_scenes=8,
    seed=11,
)


@pytest.fixture(scope="module")
def world():
    return make_world(WorldConfig(seed=5))


@pytest.fixture(scope="module")
def source_model(world):
    return train_source(world, TINY)


@pytest.fixture(scope="module")
def warmup(world, source_model):
    (model,) = lstd_finetune(source_model, world, [TINY])
    return model


@pytest.fixture(scope="module")
def student(world, warmup):
    (model,) = wstd_train(warmup, world, [TINY])
    return model


@pytest.fixture(scope="module")
def weak_scene(world):
    return sample_scenes(world, "target", "weak", substream(99, "weak"), 1)[0]


def model_params(model):
    out = {"backbone": model.backbone.map, "main": model.main_head.weights}
    if model.sdk_head is not None:
        out["sdk"] = model.sdk_head.weights
    for i, head in enumerate(model.rol_heads):
        out[f"rol_{i}"] = head.weights
    return out


def assert_same_params(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


# --- configuration ------------------------------------------------------


def test_stage_config_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        StageConfig(shots_per_class=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        StageConfig(weak_scenes_per_class=-2)
    with pytest.raises(ValueError, match="nonnegative"):
        StageConfig(lstd_epochs=-1)
    with pytest.raises(ValueError, match="scene counts"):
        StageConfig(source_scenes=0)
    with pytest.raises(ValueError, match="labeller"):
        StageConfig(labeller="midl")
    assert StageConfig(shots_per_class=0).shots_per_class == 0


def test_run_report_set_result():
    report = RunReport(seed=0)
    report.set_result([0.5, None, 1.0], 0.75)
    assert report.per_class_aps == [0.5, None, 1.0]
    assert report.mean_ap == 0.75
    with pytest.raises(ValueError, match="does not equal"):
        report.set_result([0.5, 0.5], 0.6)
    with pytest.raises(ValueError, match="finite"):
        report.set_result([0.5], float("nan"))


def test_apply_overrides():
    cfg = apply_overrides(TINY, {"shots_per_class": 9, "rol.phi_obj": 0.45})
    assert cfg.shots_per_class == 9
    assert cfg.rol.phi_obj == 0.45
    assert TINY.shots_per_class == 1 and TINY.rol.phi_obj == 0.5
    with pytest.raises(ValueError, match="unknown config field 'bogus'"):
        apply_overrides(TINY, {"bogus": 1})
    with pytest.raises(ValueError, match="unknown config field 'rol.bogus'"):
        apply_overrides(TINY, {"rol.bogus": 1})
    with pytest.raises(ValueError, match="unknown config field 'seed.x'"):
        apply_overrides(TINY, {"seed.x": 1})
    for group in ("weights", "rol", "optimizer"):
        with pytest.raises(ValueError, match=f"'{group}' is a group"):
            apply_overrides(TINY, {group: getattr(TINY, group)})
    for cfg in (TINY, WorldConfig()):
        with pytest.raises(ValueError, match="'seed'.*--seed or --seeds"):
            apply_overrides(cfg, {"seed": 5})
    with pytest.raises(ValueError, match="'shots_per_class'.*nonnegative"):
        apply_overrides(TINY, {"shots_per_class": -1})


def test_apply_overrides_coerces_strings():
    cfg = apply_overrides(TINY, {
        "shots_per_class": "4", "rol.phi_obj": "0.45", "labeller": "oicr",
        "enable_bd": "off", "freeze_backbone": "Yes", "optimizer.beta1": "0.5",
    })
    assert (cfg.shots_per_class, cfg.rol.phi_obj, cfg.labeller) == (4, 0.45, "oicr")
    assert (cfg.enable_bd, cfg.freeze_backbone, cfg.optimizer.beta1) == (False, True, 0.5)
    assert type(cfg.shots_per_class) is int and type(cfg.rol.phi_obj) is float
    for raw, expected in (("2,4", (2, 4)), ("2:4", (2, 4)), (" 3 , 3 ", (3, 3))):
        world_cfg = apply_overrides(WorldConfig(), {"objects_per_scene": raw})
        assert world_cfg.objects_per_scene == expected
    for key, raw in (
        ("enable_bd", "maybe"), ("shots_per_class", "1.5"),
        ("rol.phi_obj", "high"), ("labeller", "greedy"),
    ):
        with pytest.raises(ValueError, match=f"config field '{key}'"):
            apply_overrides(TINY, {key: raw})
    for raw in ("a", "2", "1,2,3"):
        with pytest.raises(ValueError, match="config field 'objects_per_scene'"):
            apply_overrides(WorldConfig(), {"objects_per_scene": raw})


def test_registry_cells_apply_to_the_defaults():
    for experiment in EXPERIMENTS.values():
        for cell in experiment.cells:
            cfg = apply_overrides(StageConfig(), dict(cell.overrides))
            world_cfg = apply_overrides(WorldConfig(), dict(cell.world_overrides))
            for key, value in cell.overrides:
                assert _field(cfg, key) == value, (experiment.name, cell.cell_id)
            for key, value in cell.world_overrides:
                assert _field(world_cfg, key) == value, (experiment.name, cell.cell_id)


def _field(cfg, dotted):
    for part in dotted.split("."):
        cfg = getattr(cfg, part)
    return cfg


def _changed(cfg, field, value):
    """``cfg`` with one field set; a whole group or the seed, which
    ``apply_overrides`` refuses, is set with ``replace``."""
    if "." in field:
        return apply_overrides(cfg, {field: value})
    return replace(cfg, **{field: value})


# --- scene packing ------------------------------------------------------


def test_proposal_labels_threshold():
    gt_box = BBox(0.1, 0.1, 0.4, 0.4)
    proposals = (
        gt_box,                        # IoU 1 with the GT
        BBox(0.6, 0.6, 0.9, 0.9),      # disjoint
        BBox(0.1, 0.1, 0.4, 0.55),     # IoU 2/3, above threshold
    )
    scene = Scene(
        raw_grid=np.zeros((4, 4, 3)),
        gt=((2, gt_box),),
        proposals=proposals,
        annotation_mode="full",
        image_label=np.array([0, 0, 1, 0]),
        domain="target",
    )
    labels = proposal_labels(scene, 4)
    assert labels.tolist() == [2, 4, 2]
    # exactly at the threshold stays background: the rule is strict
    half = BBox(0.1, 0.1, 0.4, 0.4 + 0.3)
    scene2 = replace(scene, proposals=(half,))
    assert proposal_labels(scene2, 4, iou_threshold=0.5).tolist() == [2]
    assert proposal_labels(scene2, 4, iou_threshold=2 / 3).tolist() == [4]


def test_proposal_labels_match_scalar_oracle(world):
    scenes = sample_scenes(world, "source", "full", substream(8, "labels"), 300)
    num_classes = world.config.classes_in("source")
    for scene in scenes:
        proposals = [b.as_tuple() for b in scene.proposals]
        gt = [(cls, b.as_tuple()) for cls, b in scene.gt]
        for threshold in (PROPOSAL_LABEL_IOU, 0.3):
            labels = proposal_labels(scene, num_classes, threshold)
            assert labels.dtype == int
            assert labels.tolist() == ref_proposal_labels(
                proposals, gt, num_classes, threshold
            )


def test_pack_lstd_scene_shapes(world, source_model):
    scene = sample_scenes(world, "target", "full", substream(3, "s"), 1)[0]
    pack = pack_lstd_scene(scene, world, source_model)
    k = len(scene.proposals)
    assert len(pack.boxes) == k
    assert pack.raw_means.shape == (k, world.config.raw_dim)
    assert pack.labels.shape == (k,)
    assert pack.background_mask.shape == (
        world.config.grid_height, world.config.grid_width
    )
    assert pack.teacher.shape == (world.config.classes_in("source") + 1, k)
    assert np.allclose(pack.teacher.sum(axis=0), 1.0, atol=1e-12)


def test_anchor_boxes_layout():
    anchors = anchor_boxes(8, 8)
    assert len(anchors) == 8 * 8 * 6
    for box in anchors:
        assert 0.0 <= box.x1 < box.x2 <= 1.0
        assert 0.0 <= box.y1 < box.y2 <= 1.0
    assert anchor_boxes(8, 8) == anchors
    assert len(anchor_boxes(3, 5)) == 3 * 5 * 6


def test_warmup_proposals_properties(warmup, weak_scene):
    selection = warmup_proposals(warmup, weak_scene, 20)
    kept = selection.boxes
    assert 0 < len(kept) == len(selection) <= 20
    candidates = {
        b.as_tuple() for b in weak_scene.proposals
    } | {b.as_tuple() for b in anchor_boxes(8, 8)}
    assert all(b.as_tuple() in candidates for b in kept)
    overlaps = pairwise_iou(kept)
    off_diag = overlaps[~np.eye(len(kept), dtype=bool)]
    assert np.all(off_diag <= 0.75 + 1e-12)
    again = warmup_proposals(warmup, weak_scene, 20).boxes
    assert [b.as_tuple() for b in again] == [b.as_tuple() for b in kept]


def test_warmup_proposals_match_full_matrix_oracle(warmup, world):
    # per-box pooling over proposals plus anchors, then greedy suppression
    # over the full pairwise candidate overlaps
    anchors = [b.as_tuple() for b in anchor_boxes(8, 8)]
    for scene in sample_scenes(world, "target", "weak", substream(7, "oracle"), 5):
        candidates = [b.as_tuple() for b in scene.proposals] + anchors
        features = ref_pool(scene.raw_grid, candidates) @ warmup.backbone.map.T
        probs = column_softmax(head_logits(warmup.main_head.weights, features))
        objectness = list(1.0 - probs[-1, :])
        for max_keep in (8, 32, 64):
            keep = ref_nms(candidates, objectness, PROPOSAL_NMS_THRESHOLD, max_keep)
            got = warmup_proposals(warmup, scene, max_keep).boxes
            assert [b.as_tuple() for b in got] == [candidates[i] for i in keep]


def test_pack_wstd_scene(warmup, weak_scene):
    pack = pack_wstd_scene(weak_scene, warmup, TINY)
    expect = warmup_proposals(warmup, weak_scene, len(weak_scene.proposals)).boxes
    assert [b.as_tuple() for b in pack.boxes] == [b.as_tuple() for b in expect]
    assert pack.teacher.shape == (warmup.source_classes + 1, len(pack.boxes))
    assert np.array_equal(pack.y_img, weak_scene.image_label.astype(float))
    assert np.array_equal(pack.iou, pairwise_iou(pack.boxes))
    assert pack.labels is None


@pytest.mark.parametrize("k", [16, 32, 64])
def test_pack_wstd_scene_reuses_warmup_rows_bit_exactly(warmup, k):
    # the kept rows of the warm-up step's means and IoU, and the teacher
    # scored from them, equal pooling, overlapping and distilling the kept
    # boxes afresh
    world = make_world(WorldConfig(seed=5, proposals_per_scene=k))
    for scene in sample_scenes(world, "target", "weak", substream(k, "reuse"), 6):
        pack = pack_wstd_scene(scene, warmup, TINY)
        assert np.array_equal(pack.raw_means, pool_raw_means(scene.raw_grid, pack.boxes))
        assert np.array_equal(pack.iou, pairwise_iou(pack.boxes))
        assert np.array_equal(pack.teacher, extract_sdk(warmup, scene.raw_grid, pack.boxes))


def test_pack_wstd_scene_arrays_reject_writes(warmup, weak_scene):
    pack = pack_wstd_scene(weak_scene, warmup, TINY)
    for array in (pack.raw_means, pack.teacher, pack.y_img, pack.iou):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_collect_class_scenes_coverage(world):
    scenes = collect_class_scenes(world, "target", "weak", substream(7, "c"), 2)
    num_classes = world.config.classes_in("target")
    counts = np.zeros(num_classes, dtype=int)
    for scene in scenes:
        counts += np.asarray(scene.image_label, dtype=int)
    assert np.all(counts >= 2)
    assert len(scenes) <= 2 * num_classes
    again = collect_class_scenes(world, "target", "weak", substream(7, "c"), 2)
    assert len(again) == len(scenes)
    assert all(
        np.array_equal(a.raw_grid, b.raw_grid) for a, b in zip(again, scenes)
    )


# --- stage training -----------------------------------------------------


def test_train_source_deterministic(world, source_model):
    again = train_source(world, TINY)
    assert_same_params(model_params(source_model), model_params(again))
    assert source_model.source_classes == world.config.classes_in("source")
    assert source_model.sdk_head is None and not source_model.rol_heads


def test_train_source_zero_epochs_is_initialization(world):
    cfg = replace(TINY, source_epochs=0)
    model = train_source(world, cfg)
    rng = substream(cfg.seed, "source", "init")
    dim = world.config.raw_dim
    backbone = init_backbone(dim, dim, rng)
    head = init_head(world.config.classes_in("source"), dim, rng)
    assert np.array_equal(model.backbone.map, backbone.map)
    assert np.array_equal(model.main_head.weights, head.weights)


def test_train_source_report_curves(world):
    report = RunReport(seed=TINY.seed)
    train_source(world, TINY, report)
    steps = TINY.source_epochs * TINY.source_scenes
    for key in ("source.total", "source.main"):
        assert len(report.curves[key]) == steps
        assert np.all(np.isfinite(report.curves[key]))


def test_train_source_single_form_equals_list_form(world, source_model):
    report, listed = RunReport(seed=TINY.seed), RunReport(seed=TINY.seed)
    single = train_source(world, TINY, report)
    (model,) = train_source([world], [TINY], [listed])
    assert_same_params(model_params(single), model_params(model))
    assert_same_params(model_params(single), model_params(source_model))
    assert report.curves == listed.curves


def test_source_scenes_drawn_one_at_a_time_match_one_draw(world):
    cfg = replace(TINY, source_scenes=12)
    scenes = sample_scenes(
        world, "source", "full", substream(cfg.seed, "source", "scenes"), 12
    )
    packs = [pipeline.pack_source_scene(scene, world) for scene in scenes]
    means, labels = pipeline._stacked_source_scenes(world, cfg)
    assert np.array_equal(means, np.stack([p.raw_means for p in packs]))
    assert np.array_equal(labels, np.stack([p.labels for p in packs]))


def test_flat_adam_training_matches_per_block_adam(world, source_model):
    # three parameter blocks of a two-member group, trained through one
    # flat buffer, equal Adam run block by block, in every step's loss
    cfgs = [TINY, replace(TINY, enable_bd=False, weights=LossWeights(lambda_sdk=2.0))]
    members = Members.of(cfgs)
    support = collect_class_scenes(
        world, "target", "full", substream(TINY.seed, "lstd", "support"), 2
    )
    packs = [pack_lstd_scene(scene, world, source_model) for scene in support]
    rng = np.random.default_rng(31)
    columns = world.config.raw_dim + 1
    params = {
        "backbone": np.stack([source_model.backbone.map] * 2),
        "main_head": 0.1 * rng.standard_normal(
            (2, world.config.classes_in("target") + 1, columns)
        ),
        "sdk_head": 0.1 * rng.standard_normal(
            (2, world.config.classes_in("source") + 1, columns)
        ),
    }
    before = {name: p.copy() for name, p in params.items()}
    order = rng.integers(0, len(packs), size=60)
    opt = OptimizerConfig(learning_rate=5e-3)

    def loss(p, i):
        return lstd_scene_loss(p, packs[i], members)

    reports = [RunReport(seed=0), RunReport(seed=1)]
    got = pipeline._train(params, loss, order, opt, reports, "lstd")
    want, history = ref_adam_train(params, loss, order, opt)
    assert_same_params(params, before)
    assert_same_params(got, want)
    for m, report in enumerate(reports):
        for key in history[0]:
            want_curve = [float(comps[key][m]) for comps in history]
            assert report.curves[f"lstd.{key}"] == want_curve, key


@pytest.mark.parametrize("k", [16, 32, 64])
def test_train_source_lockstep_matches_single_trainings(k):
    # one member per seed, each on its own world
    cfgs = [replace(TINY, seed=s) for s in (11, 12, 13)]
    worlds = {
        cfg.seed: make_world(WorldConfig(seed=cfg.seed, proposals_per_scene=k))
        for cfg in cfgs
    }

    def train(group, reports):
        return train_source([worlds[c.seed] for c in group], group, reports)

    for count in (1, 2, 3):
        assert_lockstep_matches_singles(train, cfgs[:count])


@pytest.mark.parametrize(
    "field, value",
    [
        ("proposals_per_scene", 16),
        ("source_epochs", 5),
        ("source_scenes", 41),
        ("optimizer", OptimizerConfig(learning_rate=1e-3)),
        ("weights.lambda_main", 2.0),
    ],
)
def test_train_source_rejects_non_siblings(world, field, value):
    other_world = make_world(WorldConfig(seed=12))
    other = replace(TINY, seed=12)
    if field == "proposals_per_scene":
        other_world = make_world(WorldConfig(seed=12, proposals_per_scene=value))
    else:
        other = _changed(other, field, value)
    with pytest.raises(ValueError, match="not siblings"):
        train_source([world, other_world], [TINY, other])


def test_train_source_group_needs_one_world_each(world):
    with pytest.raises(ValueError, match="1 worlds for 2 configs"):
        train_source([world], [TINY, replace(TINY, seed=12)])
    with pytest.raises(ValueError, match="at least one config"):
        train_source([], [])


def test_lstd_requires_source_and_shots(world):
    with pytest.raises(ValueError, match="trained source model"):
        lstd_finetune(None, world, [TINY])
    with pytest.raises(ValueError, match="shots_per_class >= 1"):
        lstd_finetune(
            train_source(world, replace(TINY, source_epochs=0)),
            world,
            [replace(TINY, shots_per_class=0)],
        )


def test_lstd_structure_and_determinism(world, source_model, warmup):
    dim = world.config.raw_dim
    assert warmup.main_head.weights.shape == (
        world.config.classes_in("target") + 1, dim + 1
    )
    assert warmup.sdk_head.weights.shape == (
        world.config.classes_in("source") + 1, dim + 1
    )
    assert warmup.sdk_head.role == "sdk_branch"
    assert not warmup.rol_heads
    assert not np.array_equal(warmup.backbone.map, source_model.backbone.map)
    (again,) = lstd_finetune(source_model, world, [TINY])
    assert_same_params(model_params(warmup), model_params(again))
    # a single config trains one model and returns it
    assert_same_params(
        model_params(warmup), model_params(lstd_finetune(source_model, world, TINY))
    )


def test_zero_lambda_matches_disabled_flags(world, source_model):
    flags_off = replace(TINY, enable_bd=False, enable_sdk=False)
    zeroed = replace(
        TINY, weights=replace(LossWeights(), lambda_bd=0.0, lambda_sdk=0.0)
    )
    (a,) = lstd_finetune(source_model, world, [flags_off])
    (b,) = lstd_finetune(source_model, world, [zeroed])
    assert_same_params(model_params(a), model_params(b))


def test_sdk_loss_decreases_over_first_epoch(world, source_model):
    deltas = []
    for seed in range(10):
        report = RunReport(seed=seed)
        cfg = replace(TINY, seed=seed, shots_per_class=3, lstd_epochs=1)
        lstd_finetune(source_model, world, [cfg], [report])
        curve = report.curves["lstd.sdk"]
        assert len(curve) >= 2
        deltas.append(curve[0] - curve[-1])
    assert np.mean(deltas) > 0.0


def test_wstd_requires_sdk_branch(world, source_model):
    with pytest.raises(ValueError, match="SDK branch"):
        wstd_train(source_model, world, [TINY])


def test_wstd_zero_weak_scenes_reheads_warmup(world, warmup):
    (student,) = wstd_train(warmup, world, [replace(TINY, weak_scenes_per_class=0)])
    assert np.array_equal(student.backbone.map, warmup.backbone.map)
    assert np.array_equal(student.main_head.weights, warmup.main_head.weights)
    assert np.array_equal(student.sdk_head.weights, warmup.sdk_head.weights)
    assert len(student.rol_heads) == TINY.rol.num_classifiers
    for head in student.rol_heads:
        assert head.role == "rol_classifier"
        assert np.array_equal(head.weights, warmup.main_head.weights)
        assert not np.shares_memory(head.weights, warmup.main_head.weights)
    assert not np.shares_memory(student.backbone.map, warmup.backbone.map)


def test_wstd_zero_epochs_keeps_reheaded_params(world, warmup):
    (student,) = wstd_train(warmup, world, [replace(TINY, wstd_epochs=0)])
    assert np.array_equal(student.backbone.map, warmup.backbone.map)
    assert np.array_equal(student.sdk_head.weights, warmup.sdk_head.weights)
    for head in student.rol_heads:
        assert np.array_equal(head.weights, warmup.main_head.weights)


def test_wstd_never_touches_warmup(world, warmup):
    before = {k: v.copy() for k, v in model_params(warmup).items()}
    wstd_train(warmup, world, [TINY])
    assert_same_params(model_params(warmup), before)


def test_wstd_student_structure(world, warmup, student):
    assert len(student.rol_heads) == TINY.rol.num_classifiers
    assert np.array_equal(student.main_head.weights, warmup.main_head.weights)
    assert not np.array_equal(student.backbone.map, warmup.backbone.map)
    for head in student.rol_heads:
        assert not np.array_equal(head.weights, warmup.main_head.weights)
    (again,) = wstd_train(warmup, world, [TINY])
    assert_same_params(model_params(student), model_params(again))


def test_wstd_freeze_backbone(world, warmup):
    (student,) = wstd_train(warmup, world, [replace(TINY, freeze_backbone=True)])
    assert np.array_equal(student.backbone.map, warmup.backbone.map)
    for head in student.rol_heads:
        assert not np.array_equal(head.weights, warmup.main_head.weights)


def test_pseudo_labels_are_detached(warmup, weak_scene):
    pack = pack_wstd_scene(weak_scene, warmup, TINY)
    params = {
        "backbone": warmup.backbone.map[None].copy(),
        "sdk_head": warmup.sdk_head.weights[None].copy(),
    }
    for i in range(TINY.rol.num_classifiers):
        params[f"rol_head_{i}"] = warmup.main_head.weights[None].copy()
    comps, grads, pseudo = wstd_scene_loss(params, pack, [TINY])
    assert len(pseudo) == TINY.rol.num_classifiers - 1

    # pinning the recomputed labels is a no-op at the same parameters
    comps_f, grads_f, _ = wstd_scene_loss(params, pack, [TINY], fixed_pseudo=pseudo)
    assert comps_f.keys() == comps.keys()
    for key in comps:
        assert np.array_equal(comps_f[key], comps[key]), key
    for key in grads:
        assert np.array_equal(grads_f[key], grads[key]), key

    # a classifier-1 perturbation reaches later classifiers only through
    # their labels, so with labels held fixed the later losses are unmoved
    shifted = {k: v.copy() for k, v in params.items()}
    shifted["rol_head_0"] = shifted["rol_head_0"] + 0.05
    comps_s, _, _ = wstd_scene_loss(shifted, pack, [TINY], fixed_pseudo=pseudo)
    assert comps_s["rol_1"][0] != comps["rol_1"][0]
    assert comps_s["rol_2"][0] == comps["rol_2"][0]
    assert comps_s["rol_3"][0] == comps["rol_3"][0]

    # while the labels themselves do respond when recomputed
    _, _, pseudo_s = wstd_scene_loss(shifted, pack, [TINY])
    assert any(
        not np.array_equal(a, b) for a, b in zip(pseudo_s, pseudo)
    )


# --- lockstep groups ----------------------------------------------------


def assert_lockstep_matches_singles(train, cfgs):
    """Members trained in one group equal one-member trainings of each
    config, in every parameter and every curve value."""
    reports = [RunReport(seed=cfg.seed) for cfg in cfgs]
    models = train(cfgs, reports)
    assert len(models) == len(cfgs)
    for cfg, model, report in zip(cfgs, models, reports):
        alone = RunReport(seed=cfg.seed)
        (single,) = train([cfg], [alone])
        assert_same_params(model_params(model), model_params(single))
        assert report.curves and report.curves.keys() == alone.curves.keys()
        for key, curve in report.curves.items():
            assert np.array_equal(curve, alone.curves[key]), key


def test_lstd_lockstep_matches_single_trainings(world, source_model):
    # the table3 cells plus zeroed and uneven regularizer weights
    cfgs = [
        replace(TINY, enable_sdk=False, enable_bd=False),
        replace(TINY, enable_bd=False),
        TINY,
        replace(TINY, weights=LossWeights(lambda_bd=0.0, lambda_sdk=0.0)),
        replace(TINY, weights=LossWeights(lambda_bd=2.0, lambda_sdk=0.0)),
    ]
    assert_lockstep_matches_singles(
        lambda group, reports: lstd_finetune(source_model, world, group, reports), cfgs
    )


WSTD_SIBLINGS = {
    "fig9_bands": [
        {}, {"rol.phi_obj": 0.4}, {"rol.phi_obj": 0.6},
        {"rol.phi_bg": 0.2}, {"rol.phi_bg": 0.4},
    ],
    "table6_labellers": [{"labeller": "rol"}, {"labeller": "oicr"}],
    "fig7_sdk_modes": [
        {"weights.lambda_wstd_sdk": 0.0}, {}, {"sdk_weighted": True},
    ],
    "frozen_backbone": [
        {"freeze_backbone": True},
        {"freeze_backbone": True, "labeller": "oicr", "weights.lambda_wstd_rol": 5.0},
    ],
}


@pytest.mark.parametrize("case", sorted(WSTD_SIBLINGS))
def test_wstd_lockstep_matches_single_trainings(world, warmup, case):
    cfgs = [apply_overrides(TINY, o) for o in WSTD_SIBLINGS[case]]
    packs = pack_weak_scenes(warmup, world, TINY)
    assert_lockstep_matches_singles(
        lambda group, reports: wstd_train(warmup, world, group, reports, packs), cfgs
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 12),
        ("source_scenes", 41),
        ("weights.lambda_main", 2.0),
        ("shots_per_class", 2),
        ("lstd_epochs", 29),
        ("optimizer", OptimizerConfig(learning_rate=1e-3)),
    ],
)
def test_lstd_rejects_non_siblings(world, source_model, field, value):
    other = _changed(TINY, field, value)
    with pytest.raises(ValueError, match="not siblings"):
        lstd_finetune(source_model, world, [TINY, other])


@pytest.mark.parametrize(
    "field, value",
    [
        ("enable_bd", False),  # another warm-up
        ("weak_scenes_per_class", 2),
        ("wstd_epochs", 3),
        ("optimizer", OptimizerConfig(learning_rate=1e-3)),
        ("rol.num_classifiers", 2),
        ("freeze_backbone", True),
    ],
)
def test_wstd_rejects_non_siblings(world, warmup, field, value):
    other = _changed(TINY, field, value)
    with pytest.raises(ValueError, match="not siblings"):
        wstd_train(warmup, world, [TINY, other])


def test_lockstep_group_needs_configs_and_one_report_each(world, source_model, warmup):
    with pytest.raises(ValueError, match="at least one config"):
        lstd_finetune(source_model, world, [])
    with pytest.raises(ValueError, match="at least one config"):
        wstd_train(warmup, world, [])
    with pytest.raises(ValueError, match="1 reports for 2 configs"):
        lstd_finetune(source_model, world, [TINY, TINY], [RunReport(seed=0)])


def test_members_gather_the_coefficients_of_each_config():
    cfgs = [
        replace(TINY, enable_bd=False),
        replace(TINY, enable_sdk=False, sdk_weighted=True),
        apply_overrides(TINY, {"weights.lambda_main": 0.5, "weights.lambda_wstd_rol": 7.0}),
    ]
    members = Members.of(cfgs)
    assert Members.of(members) is members
    assert members.cfgs == tuple(cfgs)
    expected = {
        "main": [c.weights.lambda_main for c in cfgs],
        "bd": [0.0, TINY.weights.lambda_bd, TINY.weights.lambda_bd],
        "sdk": [TINY.weights.lambda_sdk, 0.0, TINY.weights.lambda_sdk],
        "wstd_sdk": [TINY.weights.lambda_wstd_sdk, 0.0, TINY.weights.lambda_wstd_sdk],
        "wstd_rol": [TINY.weights.lambda_wstd_rol, TINY.weights.lambda_wstd_rol, 7.0],
    }
    assert members.weight.keys() == members.scale.keys() == expected.keys()
    for term, values in expected.items():
        assert np.array_equal(members.weight[term], values), term
        assert members.scale[term].shape == (3, 1, 1)
        assert np.array_equal(members.scale[term].ravel(), values), term
    assert members.sdk_weighted.tolist() == [False, True, False]


# --- inference ----------------------------------------------------------


def test_detect_structure(world, student):
    scene = sample_scenes(world, "target", "full", substream(21, "e"), 1)[0]
    detections = detect(student, scene, scene_id=4)
    assert detections == detect(student, scene, scene_id=4)
    proposal_set = {b.as_tuple() for b in scene.proposals}
    num_classes = world.config.classes_in("target")
    per_class_boxes = {}
    last_score = {}
    for det in detections:
        assert det.scene_id == 4
        assert 0 <= det.class_index < num_classes
        assert det.box.as_tuple() in proposal_set
        assert 0.0 < det.score < 1.0
        assert last_score.get(det.class_index, 1.0) >= det.score
        last_score[det.class_index] = det.score
        per_class_boxes.setdefault(det.class_index, []).append(det.box)
    for boxes in per_class_boxes.values():
        overlaps = pairwise_iou(boxes)
        off_diag = overlaps[~np.eye(len(boxes), dtype=bool)]
        assert np.all(off_diag <= INFERENCE_NMS_THRESHOLD + 1e-12)


def test_detect_classifier_selection(world, warmup, student):
    scene = sample_scenes(world, "target", "full", substream(22, "e"), 1)[0]
    last = len(student.rol_heads)
    assert detect(student, scene, 0) == detect(student, scene, 0, classifier=last)
    assert detect(student, scene, 0, classifier=1) != detect(
        student, scene, 0, classifier=last
    )
    # a model without recurrent classifiers falls back to its main head
    assert detect(warmup, scene, 0)
    with pytest.raises(ValueError, match="no recurrent classifiers"):
        detect(warmup, scene, 0, classifier=1)
    with pytest.raises(ValueError, match="out of range"):
        detect(student, scene, 0, classifier=last + 1)
    with pytest.raises(ValueError, match="out of range"):
        detect(student, scene, 0, classifier=0)


def test_evaluate_model_consistency(world, student):
    scenes = sample_scenes(world, "target", "full", substream(23, "e"), 6)
    [(per_class, map_value)] = evaluate_model([student], scenes, [None])
    assert len(per_class) == world.config.classes_in("target")
    for ap in per_class:
        assert ap is None or 0.0 <= ap <= 1.0
    assert abs(map_value - mean_ap(per_class)) <= 1e-12
    same = evaluate_model([student], scenes, [len(student.rol_heads)])
    assert same == [(per_class, map_value)]


def oracle_evaluation(model, head, scenes, method):
    """Per-class AP of one model head from the reference pooling, NMS,
    matching and AP, scene by scene and class by class."""
    num_classes = head.num_rows - 1
    dets = {c: [] for c in range(num_classes)}
    gts = {c: [] for c in range(num_classes)}
    for scene_id, scene in enumerate(scenes):
        boxes = [b.as_tuple() for b in scene.proposals]
        features = ref_pool(scene.raw_grid, boxes) @ model.backbone.map.T
        probs = column_softmax(head_logits(head.weights, features))
        for c in range(num_classes):
            scores = probs[c].tolist()
            for k in ref_nms(boxes, scores, INFERENCE_NMS_THRESHOLD, len(boxes)):
                dets[c].append((scene_id, scores[k], boxes[k]))
        for cls, box in scene.gt:
            gts[cls].append((scene_id, box.as_tuple()))
    return [
        ref_ap(ref_match(dets[c], gts[c], 0.5), len(gts[c]), method)
        if gts[c] else None
        for c in range(num_classes)
    ]


def test_evaluate_model_list_form_equals_reference_oracle(world, warmup, student):
    scenes = sample_scenes(world, "target", "full", substream(24, "e"), 8)
    models = [warmup, student, student, student]
    classifiers = [None, 1, 2, 3]
    heads = [warmup.main_head] + student.rol_heads
    assert len(heads) == len(models)
    results = evaluate_model(models, scenes, classifiers)
    assert len(results) == len(models)
    ground_truths = {i: list(scene.gt) for i, scene in enumerate(scenes)}
    for model, classifier, head, (per_class, map_value) in zip(
        models, classifiers, heads, results
    ):
        expected = oracle_evaluation(model, head, scenes, "voc07_11point")
        assert [ap is None for ap in per_class] == [ap is None for ap in expected]
        for ap, want in zip(per_class, expected):
            assert ap == pytest.approx(want, abs=1e-12)
        assert map_value == mean_ap(per_class)
        # bit for bit the Detection path it replaces
        detections = [
            d for i, scene in enumerate(scenes)
            for d in detect(model, scene, i, classifier)
        ]
        assert (per_class, map_value) == evaluate_detections(
            detections, ground_truths, head.num_rows - 1
        )
    # the same model alone, and the models in another order, agree
    assert evaluate_model([student], scenes, [2]) == [results[2]]
    assert evaluate_model(models[::-1], scenes, classifiers[::-1]) == results[::-1]


def test_evaluate_model_rejects_mismatched_inputs(world, student):
    scenes = sample_scenes(world, "target", "full", substream(25, "e"), 2)
    assert evaluate_model([], scenes, []) == []
    with pytest.raises(ValueError, match="classifiers"):
        evaluate_model([student], scenes, [])
    with pytest.raises(ValueError, match="at least one scene"):
        evaluate_model([student], [], [None])
    with pytest.raises(ValueError, match="out of range"):
        evaluate_model([student], scenes, [len(student.rol_heads) + 1])
    short = replace(scenes[1], proposals=scenes[1].proposals[:-1])
    with pytest.raises(ValueError, match="proposal count"):
        evaluate_model([student], [scenes[0], short], [None])


# --- experiment runner --------------------------------------------------


def test_registry_contents():
    assert sorted(EXPERIMENTS) == ["fig7", "fig9", "table3", "table5", "table6"]
    table3 = EXPERIMENTS["table3"]
    assert [c.cell_id for c in table3.cells] == [
        "ft_1shot", "ft_sdk_1shot", "ft_sdk_bd_1shot",
        "ft_5shot", "ft_sdk_5shot", "ft_sdk_bd_5shot",
    ]
    assert all(c.stage == "lstd" for c in table3.cells)
    assert len(table3.default_seeds) == 20

    table5 = EXPERIMENTS["table5"]
    assert [c.stage for c in table5.cells] == ["lstd", "wstd", "lstd", "wstd"]

    table6 = EXPERIMENTS["table6"]
    assert [c.classifier for c in table6.cells] == [1, 2, 3, 1, 2, 3]
    assert {dict(c.overrides)["labeller"] for c in table6.cells} == {
        "rol", "oicr"
    }

    fig7 = EXPERIMENTS["fig7"]
    assert dict(fig7.cells[0].overrides)["weights.lambda_wstd_sdk"] == 0.0
    assert len(fig7.default_seeds) == 10

    fig9 = EXPERIMENTS["fig9"]
    assert len(fig9.cells) == 7
    sweeps = {dict(c.world_overrides).get("proposals_per_scene") for c in fig9.cells}
    assert {16, 64} <= sweeps
    assert len(fig9.default_seeds) == 5


def test_unknown_experiment_lists_names():
    with pytest.raises(
        UnknownExperimentError,
        match="fig7, fig9, table3, table5, table6",
    ):
        run_experiment("table9")


def _toy_report(cell, seed, stage, shots, weak, labeller, aps, map_value):
    report = RunReport(
        seed=seed, stage=stage, cell_id=cell, shots=shots,
        weak_scenes=weak, labeller=labeller,
    )
    report.set_result(aps, map_value)
    return report


def test_write_experiment_csv_exact(tmp_path):
    reports = [
        _toy_report("a", 0, "lstd", 1, 0, "rol", [0.5, None], 0.5),
        _toy_report("a", 1, "lstd", 1, 0, "rol", [0.25, 0.75], 0.5),
        _toy_report("b", 0, "wstd", 1, 4, "oicr", [1.0, 1.0], 1.0),
    ]
    path = tmp_path / "toy.csv"
    write_experiment_csv(path, "toy", reports)
    assert path.read_text() == (
        "experiment,cell,seed,stage,shots,weak_scenes,labeller,map,ap_0,ap_1\n"
        "toy,a,0,lstd,1,0,rol,0.5,0.5,excluded\n"
        "toy,a,1,lstd,1,0,rol,0.5,0.25,0.75\n"
        "toy,b,0,wstd,1,4,oicr,1.0,1.0,1.0\n"
    )
    bad = reports + [_toy_report("c", 0, "lstd", 1, 0, "rol", [1.0], 1.0)]
    with pytest.raises(ValueError, match="inconsistent class count"):
        write_experiment_csv(path, "toy", bad)


def test_write_summary_csv_exact(tmp_path):
    reports = [
        _toy_report("a", 0, "lstd", 1, 0, "rol", [0.5, 0.5], 0.5),
        _toy_report("a", 1, "lstd", 1, 0, "rol", [0.5, 0.5], 0.5),
        _toy_report("b", 0, "wstd", 1, 4, "rol", [1.0, 1.0], 1.0),
    ]
    path = tmp_path / "toy_summary.csv"
    write_summary_csv(path, "toy", reports)
    assert path.read_text() == (
        "experiment,cell,seeds,map_mean,map_std\n"
        "toy,a,2,0.5,0.0\n"
        "toy,b,1,1.0,0.0\n"
    )


SMOKE_OVERRIDES = {
    "source_scenes": 30,
    "source_epochs": 4,
    "lstd_epochs": 12,
    "wstd_epochs": 2,
    "weak_scenes_per_class": 2,
    "eval_scenes": 6,
}


def test_run_experiment_artifacts(tmp_path):
    seeds = [0, 1]
    reports = run_experiment(
        "table6", seeds=seeds, out_dir=tmp_path / "a", overrides=SMOKE_OVERRIDES
    )
    cells = EXPERIMENTS["table6"].cells
    assert [(r.cell_id, r.seed) for r in reports] == [
        (c.cell_id, s) for c in cells for s in seeds
    ]
    for report in reports:
        assert report.mean_ap is not None and np.isfinite(report.mean_ap)
        assert report.stage == "wstd"
        assert report.config_echo["labeller"] == report.labeller
        assert report.wall_clock > 0.0

    paths = experiment_output_paths("table6", tmp_path / "a")
    assert paths["runs"].name == "table6.csv"
    runs_text = paths["runs"].read_text()
    assert runs_text.startswith(
        "experiment,cell,seed,stage,shots,weak_scenes,labeller,map,"
    )
    assert len(runs_text.strip().split("\n")) == 1 + len(reports)

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["experiment"] == "table6"
    assert manifest["seeds"] == seeds
    assert len(manifest["cells"]) == len(cells)
    assert manifest["outputs"] == ["table6.csv", "table6_summary.csv"]
    assert manifest["overrides"]["source_scenes"] == "30"

    # identical bytes on a rerun with the overrides as strings
    raw = {key: str(value) for key, value in SMOKE_OVERRIDES.items()}
    run_experiment("table6", seeds=seeds, out_dir=tmp_path / "b", overrides=raw)
    for key in ("runs", "summary"):
        text = experiment_output_paths("table6", tmp_path / "a")[key].read_text()
        assert experiment_output_paths(
            "table6", tmp_path / "b"
        )[key].read_text() == text
    rerun = experiment_output_paths("table6", tmp_path / "b")["manifest"]
    assert json.loads(rerun.read_text())["overrides"] == manifest["overrides"]


def test_fig9_packs_weak_scenes_once_per_world_and_warmup(tmp_path, monkeypatch):
    packed = []
    original_pack = pipeline.pack_wstd_scene

    def counting_pack(scene, warmup, cfg):
        packed.append(scene)
        return original_pack(scene, warmup, cfg)

    monkeypatch.setattr(pipeline, "pack_wstd_scene", counting_pack)
    seed = 3
    reports = run_experiment(
        "fig9", seeds=[seed], out_dir=tmp_path, overrides=SMOKE_OVERRIDES
    )
    monkeypatch.undo()

    base = replace(apply_overrides(StageConfig(), SMOKE_OVERRIDES), seed=seed)
    cells = EXPERIMENTS["fig9"].cells
    models = {}
    expected_packs = 0
    for cell, report in zip(cells, reports):
        world_cfg = apply_overrides(WorldConfig(seed=seed), dict(cell.world_overrides))
        if world_cfg not in models:
            world = make_world(world_cfg)
            (warmup,) = lstd_finetune(train_source(world, base), world, [base])
            models[world_cfg] = (world, warmup)
            expected_packs += len(collect_class_scenes(
                world, "target", "weak", substream(seed, "wstd", "weak"),
                base.weak_scenes_per_class,
            ))
        world, warmup = models[world_cfg]
        # a training on packs built afresh for this cell alone
        cfg = apply_overrides(base, dict(cell.overrides))
        (student,) = wstd_train(warmup, world, [cfg])
        eval_scenes = sample_scenes(
            world, "target", "full", substream(seed, "eval"), cfg.eval_scenes
        )
        [(per_class, map_value)] = evaluate_model(
            [student], eval_scenes, [cell.classifier]
        )
        assert report.per_class_aps == per_class, cell.cell_id
        assert report.mean_ap == map_value, cell.cell_id
    # seven cells on three worlds: one pack set per world and warm-up
    assert len(models) == 3
    assert len(packed) == expected_packs


@pytest.mark.parametrize(
    "name, expected",
    [
        # two shot counts, three cells each: one group per shot count
        ("table3", {"lstd_finetune": 2, "wstd_train": 0, "pack_weak_scenes": 0}),
        # three worlds; the five default-world cells share one warm-up
        ("fig9", {"lstd_finetune": 3, "wstd_train": 3, "pack_weak_scenes": 3}),
        # the weak-stage coefficients do not reach the warm-up key
        ("fig7", {"lstd_finetune": 1, "wstd_train": 1, "pack_weak_scenes": 1}),
    ],
)
def test_runner_trains_sibling_cells_in_one_call(tmp_path, monkeypatch, name, expected):
    # Counted through the module attributes, which are also what the
    # benchmark's tracer wraps.  Every report equals its cell trained alone.
    calls = dict.fromkeys(expected, 0)
    for attr in calls:
        original = getattr(pipeline, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, counting)
    seed = 2
    reports = run_experiment(
        name, seeds=[seed], out_dir=tmp_path, overrides=SMOKE_OVERRIDES
    )
    monkeypatch.undo()
    assert calls == expected

    base = replace(apply_overrides(StageConfig(), SMOKE_OVERRIDES), seed=seed)
    trained_keys = set()
    for cell, report in zip(EXPERIMENTS[name].cells, reports):
        world_cfg = apply_overrides(WorldConfig(seed=seed), dict(cell.world_overrides))
        world = make_world(world_cfg)
        cfg = apply_overrides(base, dict(cell.overrides))
        alone = RunReport(seed=seed)
        (model,) = lstd_finetune(train_source(world, cfg), world, [cfg], [alone])
        stages = [("lstd", pipeline._lstd_cache_key(cfg))]
        if cell.stage == "wstd":
            (model,) = wstd_train(model, world, [cfg], [alone])
            stages.append(("wstd", pipeline._wstd_cache_key(cfg)))
        for stage, key in stages:
            # the first cell on a model gets its curves
            if (world_cfg, key) not in trained_keys:
                trained_keys.add((world_cfg, key))
                assert report.curves[f"{stage}.total"] == alone.curves[f"{stage}.total"]
            else:
                assert f"{stage}.total" not in report.curves
        eval_scenes = sample_scenes(
            world, "target", "full", substream(seed, "eval"), cfg.eval_scenes
        )
        assert [(report.per_class_aps, report.mean_ap)] == evaluate_model(
            [model], eval_scenes, [cell.classifier]
        ), cell.cell_id


@pytest.mark.parametrize("name, sizes", [("table3", [6]), ("fig9", [5, 1, 1])])
def test_runner_evaluates_once_per_world(tmp_path, monkeypatch, name, sizes):
    # One evaluation per (seed, world, eval count) after the seed's cells
    # train, over every model evaluated on that world's scenes.
    calls = []
    original = pipeline.evaluate_model

    def counting(models, scenes, classifiers, *args, **kwargs):
        calls.append(len(models))
        return original(models, scenes, classifiers, *args, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_model", counting)
    reports = run_experiment(name, seeds=[0], out_dir=tmp_path, overrides=SMOKE_OVERRIDES)
    monkeypatch.undo()
    assert calls == sizes
    assert all(r.mean_ap is not None and r.wall_clock > 0.0 for r in reports)


def _report_fields(report):
    fields = dict(vars(report))
    del fields["wall_clock"]
    return fields


@pytest.mark.parametrize("name, calls", [("table3", 1), ("fig9", 3)])
def test_runner_trains_every_seeds_source_in_one_call(
    tmp_path, monkeypatch, name, calls
):
    # table3 has one world, fig9 three: one source group per world for
    # both seeds.  Every report equals its seed run alone, curves included.
    groups = []
    original = pipeline.train_source

    def counting(worlds, cfgs, reports=None):
        groups.append([cfg.seed for cfg in cfgs])
        return original(worlds, cfgs, reports)

    monkeypatch.setattr(pipeline, "train_source", counting)
    reports = run_experiment(name, seeds=[0, 1], out_dir=tmp_path / "both",
                             overrides=SMOKE_OVERRIDES)
    monkeypatch.undo()
    assert groups == [[0, 1]] * calls

    for seed in (0, 1):
        alone = run_experiment(name, seeds=[seed], out_dir=tmp_path / str(seed),
                               overrides=SMOKE_OVERRIDES)
        together = [r for r in reports if r.seed == seed]
        assert [_report_fields(r) for r in together] == [
            _report_fields(r) for r in alone
        ]
        assert sum("source.total" in r.curves for r in together) == calls


@pytest.mark.parametrize("seeds", [[0], [0, 0]])
def test_repeated_seed_trains_nothing_twice(tmp_path, monkeypatch, seeds):
    calls = {"lstd_finetune": 0, "wstd_train": 0}
    for attr in calls:
        original = getattr(pipeline, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, counting)
    reports = run_experiment(
        "table5", seeds=seeds, out_dir=tmp_path, overrides=SMOKE_OVERRIDES
    )
    monkeypatch.undo()
    # two shot counts: one LSTD and one WSTD group each
    assert calls == {"lstd_finetune": 2, "wstd_train": 2}
    if len(seeds) == 2:
        first, again = reports[0::2], reports[1::2]
        assert [(r.per_class_aps, r.mean_ap) for r in again] == [
            (r.per_class_aps, r.mean_ap) for r in first
        ]
        # the curves go to the first seed-0 cell that trained each model
        assert not any(r.curves for r in again)


def test_repeated_seed_gives_identical_rows(tmp_path):
    run_experiment("table3", seeds=[0, 0], out_dir=tmp_path, overrides=SMOKE_OVERRIDES)
    rows = (tmp_path / "table3.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 * len(EXPERIMENTS["table3"].cells)
    assert rows[0::2] == rows[1::2]


def test_constants_pinned():
    assert INFERENCE_NMS_THRESHOLD == 0.5
    assert PROPOSAL_LABEL_IOU == 0.5
