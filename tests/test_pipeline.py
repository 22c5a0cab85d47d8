"""Stage orchestration tests: scene packing, training determinism, the
frozen-teacher contracts, and the experiment runner's artifacts."""

import copy
import dataclasses
import weakref
from dataclasses import replace

import numpy as np
import pytest

from transferdet import losses, model, pipeline
from transferdet.evaluation import Detections, evaluate_detections, mean_ap
from transferdet.geometry import BBox, coverage_masks, pairwise_iou
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
    block_labels,
    collect_class_scenes,
    detect,
    detections,
    evaluate_model,
    experiment_output_paths,
    lstd_finetune,
    lstd_scene_loss,
    pack_lstd_scene,
    pack_weak_scenes,
    pack_wstd_scene,
    run_experiment,
    train_source,
    warmup_proposals,
    write_experiment_csv,
    write_summary_csv,
    wstd_group_pack,
    wstd_scene_loss,
    wstd_train,
)
from transferdet.labelling import ROLConfig
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
    ref_softmax,
    ref_wstd_loss,
)
from memtrace import traced

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


def grads_for(params):
    """One gradient array per parameter block, for a scene loss to fill."""
    return {k: np.empty_like(v) for k, v in params.items()}


def assert_same_model(a, b):
    """Two models with equal blocks, block by block, and source classes."""
    for name in ("backbone", "main_head", "sdk_head", "rol_heads"):
        x, y = getattr(a, name), getattr(b, name)
        assert x is y if x is None or y is None else np.array_equal(x, y), name
    assert a.source_classes == b.source_classes


def assert_same_report(got, want):
    """Two reports equal in every RunReport field, each curve by
    ``np.array_equal``."""
    assert {**vars(got), "curves": None} == {**vars(want), "curves": None}
    assert got.curves.keys() == want.curves.keys()
    for key, curve in got.curves.items():
        assert np.array_equal(curve, want.curves[key]), key


def assert_same_params(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def kept_boxes(scene, selection):
    """The boxes a warmup_proposals selection keeps: its candidates are the
    scene's proposals, then the anchor lattice of the scene's grid."""
    height, width, _ = scene.raw_grid.shape
    candidates = [BBox(*row) for row in scene.proposals.tolist()]
    candidates += anchor_boxes(height, width)
    return [candidates[i] for i in selection.keep]


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
        "sdk_weighted": "Yes", "optimizer.beta1": "0.5",
    })
    assert (cfg.shots_per_class, cfg.rol.phi_obj, cfg.labeller) == (4, 0.45, "oicr")
    assert (cfg.sdk_weighted, cfg.optimizer.beta1) == (True, 0.5)
    assert type(cfg.shots_per_class) is int and type(cfg.rol.phi_obj) is float
    for raw, expected in (("2,4", (2, 4)), ("2:4", (2, 4)), (" 3 , 3 ", (3, 3))):
        world_cfg = apply_overrides(WorldConfig(), {"objects_per_scene": raw})
        assert world_cfg.objects_per_scene == expected
    for key, raw in (
        ("sdk_weighted", "maybe"), ("shots_per_class", "1.5"),
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


def scene_labels(scene, num_classes):
    """One scene's (K,) proposal classes, from a block of one."""
    return block_labels(scene.proposals[None], [scene], num_classes)[0]


def test_proposal_labels_threshold(monkeypatch):
    gt_box = BBox(0.1, 0.1, 0.4, 0.4)
    proposals = (
        gt_box,                        # IoU 1 with the GT
        BBox(0.6, 0.6, 0.9, 0.9),      # disjoint
        BBox(0.1, 0.1, 0.4, 0.55),     # IoU 2/3, above threshold
    )
    scene = Scene(
        raw_grid=np.zeros((4, 4, 3)),
        gt=((2, gt_box),),
        proposals=[box.as_tuple() for box in proposals],
        annotation_mode="full",
        image_label=np.array([0, 0, 1, 0]),
        domain="target",
    )
    labels = scene_labels(scene, 4)
    assert labels.tolist() == [2, 4, 2]
    # exactly at the threshold stays background: the rule is strict
    half = BBox(0.1, 0.1, 0.4, 0.4 + 0.3)
    scene2 = replace(scene, proposals=[half.as_tuple()])
    assert PROPOSAL_LABEL_IOU == 0.5
    assert scene_labels(scene2, 4).tolist() == [2]
    monkeypatch.setattr(pipeline, "PROPOSAL_LABEL_IOU", 2 / 3)
    assert scene_labels(scene2, 4).tolist() == [4]


def test_proposal_labels_match_scalar_oracle(world, monkeypatch):
    scenes = sample_scenes(world, "source", "full", substream(8, "labels"), 300)
    num_classes = world.config.classes_in("source")
    for scene in scenes:
        proposals = list(map(tuple, scene.proposals.tolist()))
        gt = [(cls, b.as_tuple()) for cls, b in scene.gt]
        for threshold in (PROPOSAL_LABEL_IOU, 0.3):
            monkeypatch.setattr(pipeline, "PROPOSAL_LABEL_IOU", threshold)
            labels = scene_labels(scene, num_classes)
            assert labels.dtype == int
            assert labels.tolist() == ref_proposal_labels(
                proposals, gt, num_classes, threshold
            )


def test_pack_lstd_scene_pools_its_proposals_once(world, source_model, monkeypatch):
    # the distillation teacher scores the means the pack keeps
    scene = sample_scenes(world, "target", "full", substream(3, "s"), 1)[0]
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = model.pooling_index
    monkeypatch.setattr(model, "pooling_index", counted)
    pack = pack_lstd_scene(scene, world, source_model)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(pack.raw_means, pool_raw_means(scene.raw_grid, scene.proposals))
    assert np.array_equal(pack.teacher, extract_sdk(source_model, pack.raw_means))


def test_pack_lstd_scene_shapes(world, source_model):
    scene = sample_scenes(world, "target", "full", substream(3, "s"), 1)[0]
    pack = pack_lstd_scene(scene, world, source_model)
    k = len(scene.proposals)
    assert pack.raw_means.shape == (k, world.config.raw_dim)
    rows = world.config.classes_in("target") + 1
    labels = scene_labels(scene, rows - 1)
    assert pack.targets.shape == (rows, k)
    assert np.array_equal(pack.targets, labels == np.arange(rows)[:, None])
    assert pack.background_mask.shape == (
        world.config.grid_height, world.config.grid_width
    )
    assert pack.teacher.shape == (world.config.classes_in("source") + 1, k)
    assert np.allclose(pack.teacher.sum(axis=0), 1.0, atol=1e-12)
    # the distillation target is the teacher, with its column sums
    target, mass = pack.sdk
    assert np.array_equal(target, pack.teacher)
    assert np.array_equal(mass, pack.teacher.sum(axis=0, keepdims=True))


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
    kept = kept_boxes(weak_scene, selection)
    assert 0 < len(kept) == len(selection) <= 20
    # what it keeps of its computations is the kept candidates' share
    assert np.array_equal(selection.iou, pairwise_iou(kept))
    assert np.array_equal(
        selection.raw_means, pool_raw_means(weak_scene.raw_grid, kept)
    )
    assert len(set(selection.keep)) == len(kept)
    overlaps = pairwise_iou(kept)
    off_diag = overlaps[~np.eye(len(kept), dtype=bool)]
    assert np.all(off_diag <= 0.75 + 1e-12)
    again = warmup_proposals(warmup, weak_scene, 20).keep
    assert again == selection.keep


def test_warmup_proposals_match_full_matrix_oracle(warmup, world):
    # per-box pooling over proposals plus anchors, then greedy suppression
    # over the full pairwise candidate overlaps
    anchors = [b.as_tuple() for b in anchor_boxes(8, 8)]
    for scene in sample_scenes(world, "target", "weak", substream(7, "oracle"), 5):
        candidates = list(map(tuple, scene.proposals.tolist())) + anchors
        features = ref_pool(scene.raw_grid, candidates) @ warmup.backbone.T
        probs = column_softmax(head_logits(warmup.main_head, features))
        objectness = list(1.0 - probs[-1, :])
        for max_keep in (8, 32, 64):
            keep = ref_nms(candidates, objectness, PROPOSAL_NMS_THRESHOLD, max_keep)
            got = kept_boxes(scene, warmup_proposals(warmup, scene, max_keep))
            assert [b.as_tuple() for b in got] == [candidates[i] for i in keep]


def test_pack_wstd_scene(warmup, weak_scene):
    pack = pack_wstd_scene(weak_scene, warmup)
    boxes = kept_boxes(
        weak_scene, warmup_proposals(warmup, weak_scene, len(weak_scene.proposals))
    )
    assert np.array_equal(pack.raw_means, pool_raw_means(weak_scene.raw_grid, boxes))
    assert pack.teacher.shape == (warmup.source_classes + 1, len(boxes))
    assert np.array_equal(pack.y_img, weak_scene.image_label.astype(float))
    assert np.array_equal(pack.iou, pairwise_iou(boxes))
    assert pack.present.tolist() == np.flatnonzero(weak_scene.image_label).tolist()
    assert pack.targets is None
    # the distillation target depends on the group: wstd_group_pack sets it
    assert pack.sdk is None
    group = wstd_group_pack(pack, [TINY, replace(TINY, sdk_weighted=True)])
    target, mass = group.sdk
    assert np.array_equal(target, [pack.teacher, pack.teacher * pack.teacher])
    assert np.array_equal(mass, target.sum(axis=-2, keepdims=True))
    assert group.teacher is pack.teacher and pack.sdk is None


def test_pack_wstd_scene_checks_the_image_label_once(warmup, weak_scene):
    # the labeller reads the pack's present classes unchecked, so a label
    # marking none, or of the wrong length, is refused when packing
    empty = replace(weak_scene, image_label=np.zeros_like(weak_scene.image_label))
    with pytest.raises(ValueError, match="no present class"):
        pack_wstd_scene(empty, warmup)
    longer = replace(weak_scene, image_label=np.append(weak_scene.image_label, 1))
    with pytest.raises(ValueError, match="image label"):
        pack_wstd_scene(longer, warmup)


@pytest.mark.parametrize("k", [16, 32, 64])
def test_pack_wstd_scene_reuses_warmup_rows_bit_exactly(warmup, k):
    # the kept rows of the warm-up step's means and IoU, and the teacher
    # scored from them, equal pooling, overlapping and distilling the kept
    # boxes afresh
    world = make_world(WorldConfig(seed=5, proposals_per_scene=k))
    for scene in sample_scenes(world, "target", "weak", substream(k, "reuse"), 6):
        pack = pack_wstd_scene(scene, warmup)
        boxes = kept_boxes(scene, warmup_proposals(warmup, scene, len(scene.proposals)))
        assert np.array_equal(pack.raw_means, pool_raw_means(scene.raw_grid, boxes))
        assert np.array_equal(pack.iou, pairwise_iou(boxes))
        assert np.array_equal(
            pack.teacher, extract_sdk(warmup, pool_raw_means(scene.raw_grid, boxes))
        )


def test_weak_pack_teacher_is_extract_sdk_of_its_means(world, warmup):
    for scene in sample_scenes(world, "target", "weak", substream(4, "teacher"), 4):
        pack = pack_wstd_scene(scene, warmup)
        teacher = extract_sdk(warmup, pack.raw_means)
        assert pack.teacher.tobytes() == teacher.tobytes()
        assert pack.teacher.shape == teacher.shape


def test_pack_wstd_scene_arrays_reject_writes(warmup, weak_scene):
    pack = pack_wstd_scene(weak_scene, warmup)
    for array in (pack.raw_means, pack.teacher, pack.y_img, pack.iou, pack.present):
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
    assert_same_model(source_model, again)
    assert source_model.source_classes == world.config.classes_in("source")
    assert source_model.sdk_head is None and len(source_model.rol_heads) == 0


def test_train_source_zero_epochs_is_initialization(world):
    cfg = replace(TINY, source_epochs=0)
    model = train_source(world, cfg)
    rng = substream(cfg.seed, "source", "init")
    dim = world.config.raw_dim
    backbone = init_backbone(dim, rng)
    head = init_head(world.config.classes_in("source"), dim, rng)
    assert np.array_equal(model.backbone, backbone)
    assert np.array_equal(model.main_head, head)


def test_train_source_report_curves(world):
    report = RunReport(seed=TINY.seed)
    train_source(world, TINY, report)
    steps = TINY.source_epochs * TINY.source_scenes
    for key in ("source.total", "source.main"):
        assert len(report.curves[key]) == steps
        assert np.all(np.isfinite(report.curves[key]))


def test_training_curves_hold_8_bytes_a_value():
    # a training's curves hold 8 bytes per step, term and member; lists of
    # Python floats would hold four times that
    steps, members, terms = 4000, 2, ("total", "main", "bd")

    def loss_fn(p, g, scene):
        g["w"][...] = p["w"]
        value = (p["w"] ** 2).sum(axis=(1, 2))
        return dict.fromkeys(terms, value)

    reports = [RunReport(seed=m) for m in range(members)]
    _, _, held = traced(lambda: pipeline._train(
        {"w": np.ones((members, 2, 2))}, loss_fn, np.zeros(steps, dtype=int),
        OptimizerConfig(), reports, "toy",
    ))
    for report in reports:
        assert report.curves.keys() == {f"toy.{term}" for term in terms}
        for curve in report.curves.values():
            assert isinstance(curve, np.ndarray)
            assert curve.dtype == np.float64 and curve.shape == (steps,)
    assert held < 1.1 * steps * len(terms) * members * 8


def test_train_source_holds_one_copy_of_its_packs():
    # fig9's K = 64 source group, two seeds at the default 200 scenes: the
    # stacked (M, N, K, D0) means and (M, N, C+1, K) targets are allocated
    # once and filled a block at a time, so the peak is one copy plus one
    # block's packing (about 1.4x), where a second copy would make it 2x
    k = 64
    worlds = [make_world(WorldConfig(seed=s, proposals_per_scene=k)) for s in (0, 1)]
    cfgs = [StageConfig(seed=s, source_epochs=1) for s in (0, 1)]
    _, peak, _ = traced(lambda: train_source(worlds, cfgs))
    world_cfg = worlds[0].config
    rows = world_cfg.raw_dim + world_cfg.classes_in("source") + 1
    packs = len(cfgs) * cfgs[0].source_scenes * k * rows * 8
    assert peak < 1.5 * packs


def test_train_source_single_form_equals_list_form(world, source_model):
    report, listed = RunReport(seed=TINY.seed), RunReport(seed=TINY.seed)
    single = train_source(world, TINY, report)
    (model,) = train_source([world], [TINY], [listed])
    assert_same_model(single, model)
    assert_same_model(single, source_model)
    assert_same_report(report, listed)


@pytest.mark.parametrize(
    "overrides",
    [
        {"proposals_per_scene": 16},
        {"proposals_per_scene": 32},
        {"proposals_per_scene": 64},
        # on a 2x2 grid some proposals cover no cell center
        {"grid_height": 2, "grid_width": 2},
    ],
    ids=["k16", "k32", "k64", "grid2x2"],
)
def test_source_scenes_packed_in_blocks_equal_per_scene_packs(overrides):
    # blocks of scenes pad their pooling rows and GT further than one
    # scene does; the means and targets are still bit-identical, and the
    # draws those of one sample_scenes call
    world = make_world(WorldConfig(seed=5, **overrides))
    count = 2 * pipeline.SOURCE_PACK_BLOCK + 3  # two full blocks and a part
    cfg = replace(TINY, source_scenes=count)
    scenes = sample_scenes(
        world, "source", "full", substream(cfg.seed, "source", "scenes"), count
    )
    rows = np.arange(world.config.classes_in("source") + 1)[:, None]
    # every slot is written: a NaN left over fails the comparisons below
    k, dim = world.config.proposals_per_scene, world.config.raw_dim
    means = np.full((count, k, dim), np.nan)
    targets = np.full((count, rows.size, k), np.nan)
    pipeline._stacked_source_scenes(world, cfg, means, targets)
    for scene, scene_means, scene_targets in zip(scenes, means, targets, strict=True):
        boxes = list(map(tuple, scene.proposals.tolist()))
        gt = [(cls, b.as_tuple()) for cls, b in scene.gt]
        assert np.array_equal(scene_means, ref_pool(scene.raw_grid, boxes))
        labels = ref_proposal_labels(boxes, gt, rows.size - 1, PROPOSAL_LABEL_IOU)
        assert np.array_equal(scene_targets, np.array(labels) == rows)
    proposals = np.concatenate([scene.proposals for scene in scenes])
    cfg_w = world.config
    masks = coverage_masks(cfg_w.grid_height, cfg_w.grid_width, proposals)
    covers_none = ~masks.any(axis=(1, 2))
    assert covers_none.any() == (cfg_w.grid_height == 2)
    assert (targets[:, :-1] == 1.0).any()  # some proposals are objects


def test_flat_adam_training_matches_per_block_adam(world, source_model):
    # three parameter blocks of a two-member group, trained through one
    # flat buffer, equal Adam run block by block, in every step's loss
    cfgs = [TINY, replace(TINY, weights=LossWeights(lambda_bd=0.0, lambda_sdk=2.0))]
    members = Members.of(cfgs)
    support = collect_class_scenes(
        world, "target", "full", substream(TINY.seed, "lstd", "support"), 2
    )
    packs = [pack_lstd_scene(scene, world, source_model) for scene in support]
    rng = np.random.default_rng(31)
    columns = world.config.raw_dim + 1
    params = {
        "backbone": np.stack([source_model.backbone] * 2),
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

    def loss(p, g, i):
        return lstd_scene_loss(p, packs[i], members, g)

    reports = [RunReport(seed=0), RunReport(seed=1)]
    got = pipeline._train(params, loss, order, opt, reports, "lstd")
    want, history = ref_adam_train(params, loss, order, opt)
    assert_same_params(params, before)
    assert_same_params(got, want)
    for m, report in enumerate(reports):
        curves = {
            f"lstd.{key}": [float(comps[key][m]) for comps in history]
            for key in history[0]
        }
        assert_same_report(report, RunReport(seed=m, curves=curves))


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
    assert warmup.main_head.shape == (
        world.config.classes_in("target") + 1, dim + 1
    )
    assert warmup.sdk_head.shape == (
        world.config.classes_in("source") + 1, dim + 1
    )
    assert warmup.rol_heads.shape == (0, *warmup.main_head.shape)
    assert not np.array_equal(warmup.backbone, source_model.backbone)
    (again,) = lstd_finetune(source_model, world, [TINY])
    assert_same_model(warmup, again)
    # a single config trains one model and returns it
    assert_same_model(warmup, lstd_finetune(source_model, world, TINY))


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
    assert np.array_equal(student.backbone, warmup.backbone)
    assert np.array_equal(student.main_head, warmup.main_head)
    assert np.array_equal(student.sdk_head, warmup.sdk_head)
    assert len(student.rol_heads) == TINY.rol.num_classifiers
    for head in student.rol_heads:
        assert np.array_equal(head, warmup.main_head)
        assert not np.shares_memory(head, warmup.main_head)
    assert not np.shares_memory(student.backbone, warmup.backbone)


def test_wstd_zero_epochs_keeps_reheaded_params(world, warmup):
    (student,) = wstd_train(warmup, world, [replace(TINY, wstd_epochs=0)])
    assert np.array_equal(student.backbone, warmup.backbone)
    assert np.array_equal(student.sdk_head, warmup.sdk_head)
    for head in student.rol_heads:
        assert np.array_equal(head, warmup.main_head)


def test_wstd_never_touches_warmup(world, warmup):
    before = copy.deepcopy(warmup)
    wstd_train(warmup, world, [TINY])
    assert_same_model(warmup, before)


def test_wstd_student_structure(world, warmup, student):
    assert len(student.rol_heads) == TINY.rol.num_classifiers
    assert np.array_equal(student.main_head, warmup.main_head)
    assert not np.array_equal(student.backbone, warmup.backbone)
    for head in student.rol_heads:
        assert not np.array_equal(head, warmup.main_head)
    (again,) = wstd_train(warmup, world, [TINY])
    assert_same_model(student, again)


def test_pseudo_labels_are_detached(warmup, weak_scene):
    pack = wstd_group_pack(pack_wstd_scene(weak_scene, warmup), [TINY])
    classifiers = TINY.rol.num_classifiers
    params = {
        "backbone": warmup.backbone[None].copy(),
        "sdk_head": warmup.sdk_head[None].copy(),
        "rol_heads": np.repeat(warmup.main_head[None, None], classifiers, 0),
    }
    grads = grads_for(params)
    comps, pseudo = wstd_scene_loss(params, pack, [TINY], grads)
    assert pseudo.shape == (classifiers - 1, 1) + (
        len(warmup.main_head), len(pack.raw_means)
    )

    # pinning the recomputed labels is a no-op at the same parameters
    grads_f = grads_for(params)
    comps_f, _ = wstd_scene_loss(params, pack, [TINY], grads_f, fixed_pseudo=pseudo)
    assert comps_f.keys() == comps.keys()
    for key in comps:
        assert np.array_equal(comps_f[key], comps[key]), key
    for key in grads:
        assert np.array_equal(grads_f[key], grads[key]), key

    # a classifier-1 perturbation reaches later classifiers only through
    # their labels, so with labels held fixed the later losses are unmoved
    shifted = {k: v.copy() for k, v in params.items()}
    shifted["rol_heads"][0] += 0.05
    comps_s, _ = wstd_scene_loss(
        shifted, pack, [TINY], grads_for(shifted), fixed_pseudo=pseudo
    )
    assert comps_s["rol_1"][0] != comps["rol_1"][0]
    assert comps_s["rol_2"][0] == comps["rol_2"][0]
    assert comps_s["rol_3"][0] == comps["rol_3"][0]

    # while the labels themselves do respond when recomputed
    _, pseudo_s = wstd_scene_loss(shifted, pack, [TINY], grads_for(shifted))
    assert any(
        not np.array_equal(a, b) for a, b in zip(pseudo_s, pseudo)
    )


# The fig9 ROL bands, the default one labelled by OICR, with per-member
# weak-stage coefficients and one weighted distillation.
WSTD_GROUP = [
    replace(TINY, labeller="oicr"),
    replace(TINY, rol=ROLConfig(phi_obj=0.4), sdk_weighted=True),
    replace(
        TINY, rol=ROLConfig(phi_obj=0.6), weights=LossWeights(lambda_wstd_rol=20.0)
    ),
    replace(TINY, rol=ROLConfig(phi_bg=0.2), weights=LossWeights(lambda_wstd_sdk=0.0)),
    replace(TINY, rol=ROLConfig(phi_bg=0.4)),
]


@pytest.mark.parametrize("pinned", [False, True])
def test_stacked_wstd_loss_equals_per_classifier_oracle(world, warmup, pinned):
    # one stacked pass over every (classifier, member) equals, bit for bit,
    # each member's loss computed one classifier at a time, with the labels
    # it mines or with the oracle's labels pinned
    cfgs = WSTD_GROUP
    count, classifiers = len(cfgs), TINY.rol.num_classifiers
    rng = np.random.default_rng(21)
    def perturbed(array, scale, *lead):
        return array + scale * rng.standard_normal(lead + array.shape)

    backbone = perturbed(warmup.backbone, 0.1, count)
    sdk_head = perturbed(warmup.sdk_head, 0.1, count)
    heads = perturbed(warmup.main_head, 0.5, classifiers, count)
    params = {"backbone": backbone, "sdk_head": sdk_head, "rol_heads": heads}
    labelled = {"object": 0, "background": 0}
    weak = collect_class_scenes(
        world, "target", "weak", substream(TINY.seed, "wstd", "weak"),
        TINY.weak_scenes_per_class,
    )
    for scene in weak:
        pack = wstd_group_pack(pack_wstd_scene(scene, warmup), cfgs)
        kept = kept_boxes(scene, warmup_proposals(warmup, scene, len(scene.proposals)))
        boxes = [b.as_tuple() for b in kept]
        refs = [
            ref_wstd_loss(
                backbone[m], sdk_head[m], heads[:, m], pack.raw_means, pack.teacher,
                boxes, pack.y_img,
                {
                    "lam_sdk": cfg.weights.lambda_wstd_sdk,
                    "lam_rol": cfg.weights.lambda_wstd_rol,
                    "weighted": cfg.sdk_weighted,
                    "phi_obj": cfg.rol.phi_obj,
                    "phi_bg": cfg.rol.phi_bg,
                    "mode": "oicr" if cfg.labeller == "oicr" else "support",
                },
            )
            for m, cfg in enumerate(cfgs)
        ]
        fixed = np.stack([ref_pseudo for _, _, ref_pseudo in refs], axis=1)
        grads = grads_for(params)
        comps, pseudo = wstd_scene_loss(
            params, pack, cfgs, grads, fixed_pseudo=fixed if pinned else None
        )
        assert pseudo.shape == (classifiers - 1,) + heads.shape[1:3] + (len(boxes),)
        for m, (ref_comps, ref_grads, ref_pseudo) in enumerate(refs):
            assert comps.keys() == ref_comps.keys()
            for key, value in ref_comps.items():
                assert comps[key][m] == value, key
            assert np.array_equal(grads["backbone"][m], ref_grads["backbone"])
            assert np.array_equal(grads["sdk_head"][m], ref_grads["sdk_head"])
            for i in range(classifiers):
                assert np.array_equal(
                    grads["rol_heads"][i, m], ref_grads["rol_heads"][i]
                )
            for i in range(classifiers - 1):
                assert np.array_equal(pseudo[i, m], ref_pseudo[i])
                labelled["object"] += int((pseudo[i, m, :-1] > 0).sum())
                labelled["background"] += int((pseudo[i, m, -1] > 0).sum())
    assert labelled["object"] > 0 and labelled["background"] > 0


def count_pipeline_calls(monkeypatch, names):
    """Call counts of the functions the pipeline looks up as ``names``,
    from now to the end of the test."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    return calls


def test_wstd_step_is_one_call_per_layer_for_the_whole_stack(
    world, warmup, monkeypatch
):
    # every (classifier, member) pair of a step is scored, labelled, taken
    # the loss of and backpropagated by one call each; the losses are
    # called by the names perfbench/tracer.py wraps
    calls = count_pipeline_calls(monkeypatch, (
        "head_logits", "head_backward", "label_rows", "image_multilabel_loss",
        "rol_classifier_loss", "sdk_loss", "mine_support",
    ))
    wstd_train(warmup, world, WSTD_GROUP)
    steps = len(pack_weak_scenes(warmup, world, TINY)) * TINY.wstd_epochs
    # one head call each for the distillation branch and the ROL stack
    assert calls == {
        "head_logits": 2 * steps, "head_backward": 2 * steps, "label_rows": steps,
        "image_multilabel_loss": steps, "rol_classifier_loss": steps, "sdk_loss": steps,
        "mine_support": 0,
    }


def test_lstd_step_is_one_call_per_loss_for_the_whole_group(
    world, source_model, monkeypatch
):
    # every member of a step takes each loss in one stacked call; sdk_loss
    # and bd_loss are called by the names perfbench/tracer.py wraps
    cfgs = [
        TINY,
        replace(TINY, weights=LossWeights(lambda_bd=0.0)),
        replace(TINY, weights=LossWeights(lambda_bd=2.0, lambda_sdk=0.0)),
    ]
    calls = count_pipeline_calls(
        monkeypatch, ("sdk_loss", "proposal_cls_loss", "bd_loss")
    )
    lstd_finetune(source_model, world, cfgs)
    support = collect_class_scenes(
        world, "target", "full", substream(TINY.seed, "lstd", "support"),
        TINY.shots_per_class,
    )
    steps = len(support) * TINY.lstd_epochs
    assert calls == {"sdk_loss": steps, "proposal_cls_loss": steps, "bd_loss": steps}


def test_source_step_is_one_call_per_layer_for_the_whole_group(world, monkeypatch):
    # every member of a source step (one per seed) takes the scene loss, the
    # proposal loss and the Adam step in one call each; the scene loss and
    # the Adam step are called by the names perfbench/tracer.py wraps
    calls = count_pipeline_calls(
        monkeypatch, ("source_scene_loss", "proposal_cls_loss", "adam_step")
    )
    cfgs = [replace(TINY, seed=s, source_scenes=10, source_epochs=2) for s in (3, 4)]
    train_source([world, make_world(replace(world.config, seed=6))], cfgs)
    steps = 10 * 2
    assert calls == {
        "source_scene_loss": steps, "proposal_cls_loss": steps, "adam_step": steps,
    }


def _one_member_wstd_params(warmup):
    return {
        "backbone": warmup.backbone[None].copy(),
        "sdk_head": warmup.sdk_head[None].copy(),
        "rol_heads": np.repeat(
            warmup.main_head[None, None], TINY.rol.num_classifiers, 0
        ),
    }


@pytest.mark.parametrize("pinned", [False, True])
def test_wstd_step_softmaxes_the_rol_stack_once(warmup, weak_scene, monkeypatch, pinned):
    # one softmax for the distillation head and one for the whole ROL stack,
    # which labelling and the ROL loss share; pinned labels change neither
    pack = wstd_group_pack(pack_wstd_scene(weak_scene, warmup), [TINY])
    params = _one_member_wstd_params(warmup)
    grads = grads_for(params)
    _, pseudo = wstd_scene_loss(params, pack, [TINY], grads)
    shapes = []

    def counting(logits):
        shapes.append(np.shape(logits))
        return column_softmax(logits)

    monkeypatch.setattr(pipeline, "column_softmax", counting)
    monkeypatch.setattr(losses, "column_softmax", counting)
    wstd_scene_loss(
        params, pack, [TINY], grads, fixed_pseudo=pseudo if pinned else None
    )
    proposals = len(pack.raw_means)
    assert shapes == [
        (1, len(warmup.sdk_head), proposals),
        (TINY.rol.num_classifiers, 1, len(warmup.main_head), proposals),
    ]


def test_wstd_step_checks_pinned_pseudo_labels(warmup, weak_scene):
    pack = wstd_group_pack(pack_wstd_scene(weak_scene, warmup), [TINY])
    params = _one_member_wstd_params(warmup)
    grads = grads_for(params)
    _, pseudo = wstd_scene_loss(params, pack, [TINY], grads)
    with pytest.raises(ValueError, match="pseudo label shape"):
        wstd_scene_loss(params, pack, [TINY], grads, fixed_pseudo=pseudo[1:])
    with pytest.raises(ValueError, match="nonnegative"):
        wstd_scene_loss(params, pack, [TINY], grads, fixed_pseudo=-pseudo - 1.0)


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
        assert_same_model(model, single)
        assert report.curves
        assert_same_report(report, alone)


def test_lstd_lockstep_matches_single_trainings(world, source_model):
    # the table3 cells plus uneven regularizer weights
    cfgs = [
        replace(TINY, weights=LossWeights(lambda_bd=0.0, lambda_sdk=0.0)),
        replace(TINY, weights=LossWeights(lambda_bd=0.0)),
        TINY,
        replace(TINY, weights=LossWeights(lambda_bd=2.0, lambda_sdk=0.0)),
        replace(TINY, weights=LossWeights(lambda_bd=0.5, lambda_sdk=3.0)),
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
}


@pytest.mark.parametrize("case", sorted(WSTD_SIBLINGS))
def test_wstd_lockstep_matches_single_trainings(world, warmup, case):
    cfgs = [apply_overrides(TINY, o) for o in WSTD_SIBLINGS[case]]
    assert_lockstep_matches_singles(
        lambda group, reports: wstd_train(warmup, world, group, reports), cfgs
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 12),
        ("source_scenes", 41),
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
        ("weights.lambda_bd", 0.0),  # another warm-up
        ("weak_scenes_per_class", 2),
        ("wstd_epochs", 3),
        ("optimizer", OptimizerConfig(learning_rate=1e-3)),
        ("rol.num_classifiers", 2),
    ],
)
def test_wstd_rejects_non_siblings(world, warmup, field, value):
    other = _changed(TINY, field, value)
    with pytest.raises(ValueError, match="not siblings"):
        wstd_train(warmup, world, [TINY, other])


# The first training stage that reads each leaf field of StageConfig; None
# for a field no stage reads.
FIRST_READER = {
    "seed": "source",
    "source_scenes": "source",
    "source_epochs": "source",
    **{f"optimizer.{name}": "source" for name in (
        "learning_rate", "beta1", "beta2", "weight_decay", "lr_decay_factor",
        "epsilon",
    )},
    "shots_per_class": "lstd",
    "lstd_epochs": "lstd",
    "weights.lambda_bd": "lstd",
    "weights.lambda_sdk": "lstd",
    "weak_scenes_per_class": "wstd",
    "wstd_epochs": "wstd",
    "weights.lambda_wstd_sdk": "wstd",
    "weights.lambda_wstd_rol": "wstd",
    "rol.phi_obj": "wstd",
    "rol.phi_bg": "wstd",
    "rol.num_classifiers": "wstd",
    "sdk_weighted": "wstd",
    "labeller": "wstd",
    "eval_scenes": None,
}


def leaf_fields(cfg, prefix=""):
    """The dotted name and value of every non-group field of ``cfg``."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def test_every_config_field_reaches_a_cache_key():
    # A field a stage reads but its cache key misses would let the runner
    # merge two different cells into one model.
    stages = list(pipeline._STAGES)

    def keys(cfg):
        run = pipeline._Run(
            pipeline.ExperimentCell("cell", "wstd"), cfg,
            WorldConfig(seed=cfg.seed), RunReport(seed=cfg.seed),
        )
        return [run.key(stage) for stage in stages]

    leaves = dict(leaf_fields(TINY))
    assert sorted(leaves) == sorted(FIRST_READER)
    for name, value in leaves.items():
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, str):
            changed = next(v for v in pipeline.LABELLERS if v != value)
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = 0.9 * value
        cfg = _changed(TINY, name, changed)
        first = FIRST_READER[name]
        start = len(stages) if first is None else stages.index(first)
        expected = [i >= start for i in range(len(stages))]
        assert [a != b for a, b in zip(keys(TINY), keys(cfg))] == expected, name


def test_lockstep_group_needs_configs_and_one_report_each(world, source_model, warmup):
    with pytest.raises(ValueError, match="at least one config"):
        lstd_finetune(source_model, world, [])
    with pytest.raises(ValueError, match="at least one config"):
        wstd_train(warmup, world, [])
    with pytest.raises(ValueError, match="1 reports for 2 configs"):
        lstd_finetune(source_model, world, [TINY, TINY], [RunReport(seed=0)])


def test_members_gather_the_coefficients_of_each_config():
    cfgs = [
        apply_overrides(TINY, {"weights.lambda_bd": 0.0}),
        apply_overrides(TINY, {
            "weights.lambda_sdk": 0.0, "weights.lambda_wstd_sdk": 0.0,
            "sdk_weighted": True,
        }),
        apply_overrides(TINY, {"weights.lambda_wstd_rol": 7.0}),
    ]
    members = Members.of(cfgs)
    assert Members.of(members) is members
    assert members.cfgs == tuple(cfgs)
    expected = {
        "bd": [0.0, TINY.weights.lambda_bd, TINY.weights.lambda_bd],
        "sdk": [TINY.weights.lambda_sdk, 0.0, TINY.weights.lambda_sdk],
        "wstd_sdk": [TINY.weights.lambda_wstd_sdk, 0.0, TINY.weights.lambda_wstd_sdk],
        "wstd_rol": [TINY.weights.lambda_wstd_rol, TINY.weights.lambda_wstd_rol, 7.0],
    }
    assert members.weight.keys() == expected.keys()
    for term, values in expected.items():
        assert np.array_equal(members.weight[term], values), term
    assert members.sdk_weighted.tolist() == [False, True, False]
    # the broadcast forms scale (M, rows, K) gradients, the background term
    # only those of its active members
    for term, values in expected.items():
        assert np.array_equal(members.scale[term], np.array(values)[:, None, None])
    assert members.bd_active.tolist() == [1, 2]
    assert np.array_equal(members.bd_scale, members.scale["bd"][1:])


# --- inference ----------------------------------------------------------


def test_detect_structure(world, student):
    scene = sample_scenes(world, "target", "full", substream(21, "e"), 1)[0]
    detections = detect(student, scene, scene_id=4)
    assert detections == detect(student, scene, scene_id=4)
    proposal_set = set(map(tuple, scene.proposals.tolist()))
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


def test_detections_peak_below_one_float_iou_stack():
    # the proposal overlaps are kept as booleans: the (S, K, K) float stack
    # of 96 scenes at K = 64 alone is 3.1 MB
    scenes, count = 96, 64
    world = make_world(WorldConfig(seed=3, proposals_per_scene=count))
    eval_scenes = sample_scenes(world, "target", "full", substream(3, "mem"), scenes)
    rng = np.random.default_rng(0)
    dim = world.config.raw_dim
    detector = model.DetectorModel(
        backbone=init_backbone(dim, rng),
        main_head=init_head(world.config.classes_in("target"), dim, rng),
    )
    _, peak, _ = traced(lambda: list(detections([detector], eval_scenes, [None])))
    assert peak < scenes * count * count * 8


def test_detections_equal_reference_oracle(world, warmup, student):
    scenes = sample_scenes(world, "target", "full", substream(26, "e"), 8)
    models = [warmup, student, student, student, student]
    classifiers = [None, None, 1, 2, 3]
    heads = [warmup.main_head, student.rol_heads[-1], *student.rol_heads]
    results = list(detections(models, scenes, classifiers))
    assert len(results) == len(models)
    for model, classifier, head, dets in zip(models, classifiers, heads, results):
        assert dets.scene_ids.dtype == dets.classes.dtype == np.int64
        per_scene = []
        for scene in scenes:
            boxes = list(map(tuple, scene.proposals.tolist()))
            features = ref_pool(scene.raw_grid, boxes) @ model.backbone.T
            per_scene.append((boxes, ref_softmax(head_logits(head, features))))
        # Rows class by class, each class scene by scene, each scene by rank.
        expected = [
            (c, s, boxes[k], probs[c, k])
            for c in range(len(head) - 1)
            for s, (boxes, probs) in enumerate(per_scene)
            for k in ref_nms(boxes, probs[c].tolist(), INFERENCE_NMS_THRESHOLD, len(boxes))
        ]
        assert dets.classes.tolist() == [c for c, _, _, _ in expected]
        assert dets.scene_ids.tolist() == [s for _, s, _, _ in expected]
        assert [tuple(b) for b in dets.boxes.tolist()] == [b for _, _, b, _ in expected]
        np.testing.assert_allclose(
            dets.scores, [score for _, _, _, score in expected], rtol=0, atol=1e-12
        )
        # detect on one scene is that scene's rows of the batched call
        for i, scene in enumerate(scenes):
            rows = dets.take(dets.scene_ids == i)
            assert [
                (d.scene_id, d.class_index, d.box.as_tuple(), d.score)
                for d in detect(model, scene, i, classifier)
            ] == list(zip(
                rows.scene_ids.tolist(), rows.classes.tolist(),
                map(tuple, rows.boxes.tolist()), rows.scores.tolist(),
            ))
    assert list(detections([], scenes, [])) == []


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
    num_classes = len(head) - 1
    dets = {c: [] for c in range(num_classes)}
    gts = {c: [] for c in range(num_classes)}
    for scene_id, scene in enumerate(scenes):
        boxes = list(map(tuple, scene.proposals.tolist()))
        features = ref_pool(scene.raw_grid, boxes) @ model.backbone.T
        probs = column_softmax(head_logits(head, features))
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
    heads = [warmup.main_head, *student.rol_heads]
    assert len(heads) == len(models)
    results = evaluate_model(models, scenes, classifiers)
    assert len(results) == len(models)
    ground_truths = [scene.gt for scene in scenes]
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
            Detections.of(detections), ground_truths, len(head) - 1
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


def test_evaluate_model_holds_one_models_detections_at_a_time(
    world, warmup, student, monkeypatch
):
    # Each model's rows are scored and dropped before the next model's are
    # built; the scores are those of the models' batched detections.
    scenes = sample_scenes(world, "target", "full", substream(27, "e"), 4)
    models, classifiers = [warmup, student, student], [None, None, 1]
    scored = []
    original = pipeline.evaluate_detections

    def scoring(dets, *args):
        assert all(ref() is None for ref in scored)
        scored.append(weakref.ref(dets))
        return original(dets, *args)

    monkeypatch.setattr(pipeline, "evaluate_detections", scoring)
    results = evaluate_model(models, scenes, classifiers)
    monkeypatch.undo()
    assert len(scored) == len(models)
    ground_truths = [scene.gt for scene in scenes]
    assert results == [
        original(dets, ground_truths, world.config.num_target_classes)
        for dets in detections(models, scenes, classifiers)
    ]


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

    paths = experiment_output_paths("table6", tmp_path / "a")
    assert paths["runs"].name == "table6.csv"
    runs_text = paths["runs"].read_text()
    assert runs_text.startswith(
        "experiment,cell,seed,stage,shots,weak_scenes,labeller,map,"
    )
    assert len(runs_text.strip().split("\n")) == 1 + len(reports)

    # the two CSVs are all it writes; the CLI writes the manifest
    assert sorted(paths) == ["runs", "summary"]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "table6.csv", "table6_summary.csv"
    ]

    # identical bytes on a rerun with the overrides as strings
    raw = {key: str(value) for key, value in SMOKE_OVERRIDES.items()}
    run_experiment("table6", seeds=seeds, out_dir=tmp_path / "b", overrides=raw)
    for key in ("runs", "summary"):
        text = experiment_output_paths("table6", tmp_path / "a")[key].read_text()
        assert experiment_output_paths(
            "table6", tmp_path / "b"
        )[key].read_text() == text


def test_fig9_packs_weak_scenes_once_per_world_and_warmup(tmp_path, monkeypatch):
    packed = []
    original_pack = pipeline.pack_wstd_scene

    def counting_pack(scene, warmup):
        packed.append(scene)
        return original_pack(scene, warmup)

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
        (model,) = lstd_finetune(
            train_source(world, cfg, alone), world, [cfg], [alone]
        )
        stages = ["source", "lstd"]
        if cell.stage == "wstd":
            (model,) = wstd_train(model, world, [cfg], [alone])
            stages.append("wstd")
        # the first cell on a model gets its curves
        curves = {}
        for stage in stages:
            key = (world_cfg, pipeline._stage_key(stage, cfg))
            if key not in trained_keys:
                trained_keys.add(key)
                curves.update(
                    (k, v) for k, v in alone.curves.items() if k.startswith(f"{stage}.")
                )
        eval_scenes = sample_scenes(
            world, "target", "full", substream(seed, "eval"), cfg.eval_scenes
        )
        ((aps, map_value),) = evaluate_model([model], eval_scenes, [cell.classifier])
        assert_same_report(
            report, replace(report, curves=curves, per_class_aps=aps, mean_ap=map_value)
        )


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
    assert all(r.mean_ap is not None for r in reports)


@pytest.mark.parametrize(
    "name, expected",
    [
        # three worlds per seed; the five default-world cells share one
        # warm-up and one weak group
        ("fig9", {"make_world": 6, "train_source": 3, "lstd_finetune": 6,
                  "wstd_train": 6, "evaluate_model": 6}),
        # one world per seed, two shot counts
        ("table5", {"make_world": 2, "train_source": 1, "lstd_finetune": 4,
                    "wstd_train": 4, "evaluate_model": 2}),
    ],
)
def test_runner_trains_stage_by_stage(tmp_path, monkeypatch, name, expected):
    # Logged through the module attributes: each world is built once, and
    # every call of a stage comes before any call of the next one.
    log = []
    for attr in expected:
        original = getattr(pipeline, attr)

        def logged(*args, _attr=attr, _original=original, **kwargs):
            log.append((_attr, args[0] if _attr == "make_world" else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, logged)
    run_experiment(name, seeds=[0, 1], out_dir=tmp_path, overrides=SMOKE_OVERRIDES)
    monkeypatch.undo()
    calls = [attr for attr, _ in log]
    assert calls == [attr for attr, count in expected.items() for _ in range(count)]
    worlds = [world_cfg for attr, world_cfg in log if attr == "make_world"]
    assert len(set(worlds)) == len(worlds)


@pytest.mark.parametrize("name, calls", [("table3", 1), ("table5", 1), ("fig9", 3)])
def test_runner_trains_every_seeds_source_in_one_call(
    tmp_path, monkeypatch, name, calls
):
    # table3 and table5 have one world, fig9 three: one source group per
    # world for both seeds.  Every report equals its seed run alone, curves
    # included; table5 has both shot counts and both later stages.
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
        assert len(together) == len(alone)
        for got, want in zip(together, alone):
            assert_same_report(got, want)
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


def test_repeated_seed_scores_each_model_once(tmp_path, monkeypatch):
    # seed 0 twice: the six table3 models are scored once for both runs
    calls = []
    original = pipeline.evaluate_model

    def counting(models, scenes, classifiers):
        calls.append(len(models))
        return original(models, scenes, classifiers)

    monkeypatch.setattr(pipeline, "evaluate_model", counting)
    run_experiment("table3", seeds=[0, 0], out_dir=tmp_path, overrides=SMOKE_OVERRIDES)
    monkeypatch.undo()
    assert calls == [6]


def test_repeated_seed_gives_identical_rows(tmp_path):
    run_experiment("table3", seeds=[0, 0], out_dir=tmp_path, overrides=SMOKE_OVERRIDES)
    rows = (tmp_path / "table3.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 * len(EXPERIMENTS["table3"].cells)
    assert rows[0::2] == rows[1::2]


def test_constants_pinned():
    assert INFERENCE_NMS_THRESHOLD == 0.5
    assert PROPOSAL_LABEL_IOU == 0.5
