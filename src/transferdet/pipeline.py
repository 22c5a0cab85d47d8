"""Three-stage training orchestration and the experiment runner.

Stage one trains a fully supervised detector on the source domain.  Stage
two fine-tunes it on a handful of fully annotated target scenes with the
background and distillation regularizers, producing the warm-up detector.
Stage three trains the final detector on weakly annotated scenes, guided
by the frozen warm-up model and recurrent pseudo labelling.

Each training packs its scenes once into per-scene constants
(:class:`ScenePack`).  Weak packs depend only on the seed, the world, the
warm-up model and the weak scene count, so the experiment runner builds
one pack set per such combination and hands it to every weak-stage
training that shares it, keeping at most one set alive; their arrays are
read-only, so no training can change what another reads.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .evaluation import Detection, EvalConfig, evaluate_detections, mean_ap
from .geometry import BBox, nms, pairwise_iou
from .labelling import ROLConfig, mine_support, oicr_label
from .losses import (
    LossWeights,
    bd_loss,
    bd_mask,
    image_multilabel_loss,
    proposal_cls_loss,
    rol_classifier_loss,
    sdk_loss,
)
from .model import (
    AdamState,
    Backbone,
    DetectorModel,
    Head,
    OptimizerConfig,
    adam_step,
    extract_sdk,
    head_backward,
    head_logits,
    init_backbone,
    init_head,
    pool_indexed_means,
    pool_raw_means,
    pooled_probs,
    pooling_index,
)
from .numerics import column_softmax
from .synthworld import (
    PROPOSAL_NMS_THRESHOLD,
    Scene,
    World,
    WorldConfig,
    make_world,
    sample_scenes,
    substream,
)

LABELLERS = ("rol", "oicr")
INFERENCE_NMS_THRESHOLD = 0.5
PROPOSAL_LABEL_IOU = 0.5


@dataclass(frozen=True)
class StageConfig:
    """Hyperparameters of one full training run (all three stages)."""

    shots_per_class: int = 1
    weak_scenes_per_class: int = 20
    source_scenes: int = 200
    source_epochs: int = 30
    lstd_epochs: int = 120
    wstd_epochs: int = 12
    eval_scenes: int = 96
    weights: LossWeights = LossWeights()
    rol: ROLConfig = ROLConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    enable_bd: bool = True
    enable_sdk: bool = True
    sdk_weighted: bool = False
    labeller: str = "rol"
    freeze_backbone: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.shots_per_class < 0:
            raise ValueError("shots_per_class must be nonnegative")
        if self.weak_scenes_per_class < 0:
            raise ValueError("weak_scenes_per_class must be nonnegative")
        for name in ("source_epochs", "lstd_epochs", "wstd_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.source_scenes < 1 or self.eval_scenes < 1:
            raise ValueError("scene counts must be positive")
        if self.labeller not in LABELLERS:
            raise ValueError(f"labeller must be one of {LABELLERS}")


@dataclass
class RunReport:
    """Everything one (cell, seed) run produced."""

    seed: int
    stage: str = ""
    cell_id: str = ""
    shots: int = 0
    weak_scenes: int = 0
    labeller: str = "rol"
    classifier: int | None = None
    config_echo: dict = field(default_factory=dict)
    curves: dict[str, list[float]] = field(default_factory=dict)
    per_class_aps: list = field(default_factory=list)
    mean_ap: float | None = None
    wall_clock: float = 0.0

    def set_result(self, per_class_aps: Sequence[float | None], map_value: float) -> None:
        if not np.isfinite(map_value):
            raise ValueError("mAP must be finite")
        if abs(mean_ap(per_class_aps) - map_value) > 1e-12:
            raise ValueError("mAP does not equal the mean of included class APs")
        self.per_class_aps = list(per_class_aps)
        self.mean_ap = float(map_value)


# --- scene preprocessing ----------------------------------------------------


@dataclass
class ScenePack:
    """Per-scene constants precomputed once before a training loop."""

    boxes: list[BBox]
    raw_means: np.ndarray  # (K, D0) mean raw vector per proposal box
    raw_grid: np.ndarray | None = None
    labels: np.ndarray | None = None  # full supervision per proposal
    background_mask: np.ndarray | None = None
    teacher: np.ndarray | None = None  # distillation target probabilities
    y_img: np.ndarray | None = None  # image-level labels, weak supervision
    iou: np.ndarray | None = None  # pairwise IoU of boxes, labeller cache


def proposal_labels(
    scene: Scene, num_classes: int, iou_threshold: float = PROPOSAL_LABEL_IOU
) -> np.ndarray:
    """Integer class per proposal: the class of its best-overlap GT box
    (the first on ties) when that overlap exceeds the threshold, else the
    background index ``num_classes``."""
    overlaps = pairwise_iou(scene.proposals, [box for _, box in scene.gt])
    classes = np.array([cls for cls, _ in scene.gt], dtype=int)
    return np.where(
        overlaps.max(axis=1) > iou_threshold,
        classes[overlaps.argmax(axis=1)],
        num_classes,
    )


def pack_source_scene(scene: Scene, world: World) -> ScenePack:
    boxes = list(scene.proposals)
    return ScenePack(
        boxes=boxes,
        raw_means=pool_raw_means(scene.raw_grid, boxes),
        labels=proposal_labels(scene, world.config.classes_in("source")),
    )


def pack_lstd_scene(scene: Scene, world: World, source: DetectorModel) -> ScenePack:
    boxes = list(scene.proposals)
    cfg = world.config
    return ScenePack(
        boxes=boxes,
        raw_means=pool_raw_means(scene.raw_grid, boxes),
        raw_grid=scene.raw_grid,
        labels=proposal_labels(scene, cfg.classes_in("target")),
        background_mask=bd_mask(
            cfg.grid_height, cfg.grid_width, [b for _, b in scene.gt]
        ),
        teacher=extract_sdk(source, scene.raw_grid, boxes),
    )


# Candidate box shapes for the warm-up proposal generator, anchored at
# every grid cell center in square and both rectangular aspect variants.
# Scales sit at the top of the object size range: with mean pooling over
# covered cells, a sub-object box sees a purer average than a snug one,
# so candidate boxes are kept large enough to always pool several cells
# and never outrank the well-fitted proposals they compete with.
_ANCHOR_SCALES = (0.26, 0.30)
_ANCHOR_ASPECTS = (1.0, 4.0 / 3.0, 3.0 / 4.0)


def anchor_boxes(grid_height: int, grid_width: int) -> list[BBox]:
    """Deterministic dense candidate boxes over the grid."""
    boxes = []
    for i in range(grid_height):
        cy = (i + 0.5) / grid_height
        for j in range(grid_width):
            cx = (j + 0.5) / grid_width
            for scale in _ANCHOR_SCALES:
                for aspect in _ANCHOR_ASPECTS:
                    w = scale * np.sqrt(aspect)
                    h = scale / np.sqrt(aspect)
                    boxes.append(
                        BBox(
                            max(cx - w / 2.0, 0.0),
                            max(cy - h / 2.0, 0.0),
                            min(cx + w / 2.0, 1.0),
                            min(cy + h / 2.0, 1.0),
                        )
                    )
    return boxes


@dataclass(frozen=True)
class _Lattice:
    boxes: list[BBox]
    index: np.ndarray  # pooling_index of the boxes
    counts: np.ndarray
    iou: np.ndarray  # pairwise IoU of the boxes


# Lattice geometry is scene independent, so the boxes, the cells each box
# pools over and their pairwise IoU are computed once per grid shape.
_LATTICE_CACHE: dict[tuple[int, int], _Lattice] = {}


def _anchor_lattice(height: int, width: int) -> _Lattice:
    key = (height, width)
    if key not in _LATTICE_CACHE:
        boxes = anchor_boxes(height, width)
        _LATTICE_CACHE[key] = _Lattice(
            boxes, *pooling_index(height, width, boxes), pairwise_iou(boxes)
        )
    return _LATTICE_CACHE[key]


@dataclass(frozen=True)
class WarmupProposals:
    """The boxes :func:`warmup_proposals` keeps, with what it computed on
    the way: every candidate's pooled raw means and the full candidate IoU
    matrix, so a caller can take the kept rows instead of pooling again.
    Its length is the number of kept boxes."""

    candidates: list[BBox]
    raw_means: np.ndarray  # (C, D0) pooled raw mean per candidate
    iou: np.ndarray  # (C, C) pairwise IoU of the candidates
    keep: list[int]  # kept candidate indices, by descending objectness

    @property
    def boxes(self) -> list[BBox]:
        return [self.candidates[i] for i in self.keep]

    def __len__(self) -> int:
        return len(self.keep)


def warmup_proposals(
    warmup: DetectorModel, scene: Scene, max_keep: int
) -> WarmupProposals:
    """Proposals the frozen warm-up model passes on to weak training.

    The scene's own proposal pool is widened with a dense anchor lattice,
    the union is scored by warm-up objectness (one minus background
    probability), and greedy suppression at the generation overlap
    threshold keeps the ``max_keep`` most object-like boxes.  The kept set
    concentrates around likely objects, so it is much denser on true
    instances than the uniform detection-time proposal pool.
    """
    height, width, _ = scene.raw_grid.shape
    lattice = _anchor_lattice(height, width)
    proposals = list(scene.proposals)
    candidates = proposals + lattice.boxes
    means = np.concatenate(
        [
            pool_raw_means(scene.raw_grid, proposals),
            pool_indexed_means(scene.raw_grid, lattice.index, lattice.counts),
        ]
    )
    objectness = 1.0 - pooled_probs(warmup.backbone, warmup.main_head, means)[-1, :]
    # Only the proposal columns are scene specific.  IoU is bitwise
    # symmetric, so their transpose and the cached anchor block complete
    # the full candidate matrix exactly.
    fresh = pairwise_iou(candidates, proposals)
    p = len(proposals)
    iou_matrix = np.empty((len(candidates), len(candidates)))
    iou_matrix[:, :p] = fresh
    iou_matrix[:p, p:] = fresh[p:].T
    iou_matrix[p:, p:] = lattice.iou
    keep = nms(objectness, iou_matrix, PROPOSAL_NMS_THRESHOLD, max_keep)
    return WarmupProposals(candidates, means, iou_matrix, keep)


def pack_wstd_scene(scene: Scene, warmup: DetectorModel, cfg: StageConfig) -> ScenePack:
    """Weak-scene constants; reads only raw grid, proposals, image label.

    The kept warm-up proposals' means and IoU block are rows of what the
    warm-up step computed (pooling and IoU are per box and per pair, so
    the rows are bit-identical to pooling the kept boxes afresh).  A pack
    may be shared by several trainings, so its arrays are read-only.
    """
    selection = warmup_proposals(warmup, scene, len(scene.proposals))
    keep = selection.keep
    raw_means = selection.raw_means[keep]
    pack = ScenePack(
        boxes=selection.boxes,
        raw_means=raw_means,
        teacher=pooled_probs(warmup.backbone, warmup.source_knowledge_head(), raw_means),
        y_img=np.array(scene.image_label, dtype=float),
        iou=selection.iou[np.ix_(keep, keep)],
    )
    for array in (pack.raw_means, pack.teacher, pack.y_img, pack.iou):
        array.flags.writeable = False
    return pack


# --- per-scene losses (value + closed-form gradients) ------------------------


def source_scene_loss(
    params: dict[str, np.ndarray], pack: ScenePack, cfg: StageConfig
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.T
    logits = head_logits(params["main_head"], features)
    value, dlogits = proposal_cls_loss(logits, pack.labels)
    dlogits = cfg.weights.lambda_main * dlogits
    dhead, dfeatures = head_backward(params["main_head"], features, dlogits)
    total = cfg.weights.lambda_main * value
    return (
        {"total": total, "main": value},
        {"backbone": dfeatures.T @ pack.raw_means, "main_head": dhead},
    )


def lstd_scene_loss(
    params: dict[str, np.ndarray], pack: ScenePack, cfg: StageConfig
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Warm-up fine-tuning loss: main + background + distillation terms."""
    w = cfg.weights
    lam_bd = w.lambda_bd if cfg.enable_bd else 0.0
    lam_sdk = w.lambda_sdk if cfg.enable_sdk else 0.0
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.T

    main_logits = head_logits(params["main_head"], features)
    main_val, dmain = proposal_cls_loss(main_logits, pack.labels)
    dmain_head, dfeatures = head_backward(
        params["main_head"], features, w.lambda_main * dmain
    )

    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(pack.teacher, sdk_logits)
    dsdk_head, df_sdk = head_backward(params["sdk_head"], features, lam_sdk * dsdk)
    dfeatures = dfeatures + df_sdk

    dbackbone = dfeatures.T @ pack.raw_means
    bd_val = 0.0
    if lam_bd > 0.0:
        feature_grid = np.einsum("do,hwo->hwd", backbone, pack.raw_grid)
        bd_val, dgrid = bd_loss(feature_grid, pack.background_mask)
        dbackbone += lam_bd * np.einsum("hwd,hwo->do", dgrid, pack.raw_grid)

    total = w.lambda_main * main_val + lam_bd * bd_val + lam_sdk * sdk_val
    return (
        {"total": total, "main": main_val, "bd": bd_val, "sdk": sdk_val},
        {"backbone": dbackbone, "main_head": dmain_head, "sdk_head": dsdk_head},
    )


def wstd_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfg: StageConfig,
    fixed_pseudo: list[np.ndarray] | None = None,
    frozen_backbone: np.ndarray | None = None,
) -> tuple[dict[str, float], dict[str, np.ndarray], list[np.ndarray]]:
    """Weak-stage loss over all recurrent classifiers plus distillation.

    Pseudo labels for classifier i come from classifier i-1 scores and are
    constants of the step (no gradient flows through them); passing
    ``fixed_pseudo`` pins them explicitly, which the detachment tests use.
    """
    w = cfg.weights
    lam_sdk = w.lambda_wstd_sdk if cfg.enable_sdk else 0.0
    labeller = mine_support if cfg.labeller == "rol" else oicr_label
    backbone = params["backbone"] if "backbone" in params else frozen_backbone
    features = pack.raw_means @ backbone.T

    grads: dict[str, np.ndarray] = {}
    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(pack.teacher, sdk_logits, weighted=cfg.sdk_weighted)
    grads["sdk_head"], dfeatures = head_backward(
        params["sdk_head"], features, lam_sdk * dsdk
    )

    comps: dict[str, float] = {"sdk": sdk_val}
    rol_values: list[float] = []
    pseudo_used: list[np.ndarray] = []
    prev_probs: np.ndarray | None = None
    for i in range(cfg.rol.num_classifiers):
        weights_i = params[f"rol_head_{i}"]
        logits = head_logits(weights_i, features)
        if i == 0:
            value, dlogits = image_multilabel_loss(logits, pack.y_img)
        else:
            if fixed_pseudo is not None:
                pseudo = fixed_pseudo[i - 1]
            else:
                pseudo = labeller(
                    prev_probs, pack.boxes, pack.y_img, cfg.rol, iou_cache=pack.iou
                )
            pseudo_used.append(pseudo)
            value, dlogits = rol_classifier_loss(logits, pseudo)
        dhead, dfeat = head_backward(weights_i, features, w.lambda_wstd_rol * dlogits)
        grads[f"rol_head_{i}"] = dhead
        dfeatures = dfeatures + dfeat
        prev_probs = column_softmax(logits)
        rol_values.append(value)
        comps[f"rol_{i + 1}"] = value

    rol_sum = float(sum(rol_values))
    comps["rol"] = rol_sum
    comps["total"] = lam_sdk * sdk_val + w.lambda_wstd_rol * rol_sum
    if "backbone" in params:
        grads["backbone"] = dfeatures.T @ pack.raw_means
    return comps, grads, pseudo_used


# --- training loop ----------------------------------------------------------


def _train(
    params: dict[str, np.ndarray],
    packs: Sequence[ScenePack],
    loss_fn: Callable[[dict, ScenePack], tuple[dict, dict]],
    epochs: int,
    opt: OptimizerConfig,
    order_rng: np.random.Generator,
    report: RunReport | None,
    prefix: str,
) -> dict[str, np.ndarray]:
    """Adam over per-scene losses; learning rate drops once at 2/3 of steps."""
    state = AdamState.for_params(params)
    total_steps = epochs * len(packs)
    decay_at = (2 * total_steps) // 3
    step = 0
    for _ in range(epochs):
        for idx in order_rng.permutation(len(packs)):
            comps, grads = loss_fn(params, packs[idx])
            lr = opt.learning_rate
            if total_steps > 0 and step >= decay_at:
                lr *= opt.lr_decay_factor
            params, state = adam_step(params, grads, state, opt, lr)
            if report is not None:
                for key, value in comps.items():
                    report.curves.setdefault(f"{prefix}.{key}", []).append(
                        float(value)
                    )
            step += 1
    return params


def collect_class_scenes(
    world: World,
    domain: str,
    mode: str,
    rng: np.random.Generator,
    per_class: int,
    max_draws: int = 200000,
) -> list[Scene]:
    """Sample scenes until every class appears in at least ``per_class`` of
    them; a drawn scene is kept only while some of its classes still need
    coverage."""
    num_classes = world.config.classes_in(domain)
    counts = np.zeros(num_classes, dtype=int)
    scenes: list[Scene] = []
    draws = 0
    while np.any(counts < per_class):
        if draws >= max_draws:
            raise RuntimeError("scene sampling did not cover every class")
        scene = sample_scenes(world, domain, mode, rng, 1)[0]
        draws += 1
        present = np.asarray(scene.image_label, dtype=bool)
        if np.any(present & (counts < per_class)):
            counts += present
            scenes.append(scene)
    return scenes


# --- stages -----------------------------------------------------------------


def train_source(
    world: World, cfg: StageConfig, report: RunReport | None = None
) -> DetectorModel:
    """Fully supervised training on source-domain scenes."""
    num_classes = world.config.classes_in("source")
    dim = world.config.raw_dim
    init_rng = substream(cfg.seed, "source", "init")
    backbone = init_backbone(dim, dim, init_rng)
    head = init_head(num_classes, dim, init_rng)
    scenes = sample_scenes(
        world, "source", "full", substream(cfg.seed, "source", "scenes"),
        cfg.source_scenes,
    )
    packs = [pack_source_scene(s, world) for s in scenes]
    params = {"backbone": backbone.map, "main_head": head.weights}
    params = _train(
        params, packs, lambda p, pk: source_scene_loss(p, pk, cfg),
        cfg.source_epochs, cfg.optimizer, substream(cfg.seed, "source", "order"),
        report, "source",
    )
    return DetectorModel(
        backbone=Backbone(map=params["backbone"]),
        main_head=Head(weights=params["main_head"], role="main"),
        source_classes=num_classes,
    )


def lstd_finetune(
    source: DetectorModel,
    world: World,
    cfg: StageConfig,
    report: RunReport | None = None,
) -> DetectorModel:
    """Low-shot fine-tuning on fully annotated target scenes.

    The backbone starts from the source model; a fresh target head and a
    fresh source-class distillation head are trained jointly, the latter
    against the frozen source model's per-proposal distributions.
    """
    if source is None:
        raise ValueError("lstd_finetune requires a trained source model")
    if cfg.shots_per_class < 1:
        raise ValueError("lstd_finetune requires shots_per_class >= 1")
    num_target = world.config.classes_in("target")
    num_source = world.config.classes_in("source")
    dim = world.config.raw_dim
    init_rng = substream(cfg.seed, "lstd", "init")
    main = init_head(num_target, dim, init_rng)
    sdk = init_head(num_source, dim, init_rng, role="sdk_branch")
    support = collect_class_scenes(
        world, "target", "full", substream(cfg.seed, "lstd", "support"),
        cfg.shots_per_class,
    )
    packs = [pack_lstd_scene(s, world, source) for s in support]
    params = {
        "backbone": source.backbone.map.copy(),
        "main_head": main.weights,
        "sdk_head": sdk.weights,
    }
    params = _train(
        params, packs, lambda p, pk: lstd_scene_loss(p, pk, cfg),
        cfg.lstd_epochs, cfg.optimizer, substream(cfg.seed, "lstd", "order"),
        report, "lstd",
    )
    return DetectorModel(
        backbone=Backbone(map=params["backbone"]),
        main_head=Head(weights=params["main_head"], role="main"),
        sdk_head=Head(weights=params["sdk_head"], role="sdk_branch"),
        source_classes=num_source,
    )


def _reheaded(warmup: DetectorModel, num_classifiers: int) -> DetectorModel:
    rol_heads = [
        Head(weights=warmup.main_head.weights.copy(), role="rol_classifier")
        for _ in range(num_classifiers)
    ]
    return DetectorModel(
        backbone=Backbone(map=warmup.backbone.map.copy()),
        main_head=Head(weights=warmup.main_head.weights.copy(), role="main"),
        sdk_head=Head(weights=warmup.sdk_head.weights.copy(), role="sdk_branch"),
        rol_heads=rol_heads,
        source_classes=warmup.source_classes,
    )


def pack_weak_scenes(
    warmup: DetectorModel, world: World, cfg: StageConfig
) -> list[ScenePack]:
    """The weak scenes of ``cfg.seed``, packed against the frozen warm-up.

    The packs depend only on the seed, the world, the warm-up model and
    ``weak_scenes_per_class``, so trainings that share these may share
    one pack set.
    """
    weak = collect_class_scenes(
        world, "target", "weak", substream(cfg.seed, "wstd", "weak"),
        cfg.weak_scenes_per_class,
    )
    return [pack_wstd_scene(s, warmup, cfg) for s in weak]


def wstd_train(
    warmup: DetectorModel,
    world: World,
    cfg: StageConfig,
    report: RunReport | None = None,
    packs: Sequence[ScenePack] | None = None,
) -> DetectorModel:
    """Weakly supervised training guided by the frozen warm-up model.

    The warm-up supplies proposals and distillation targets; the student's
    recurrent classifiers start as copies of the warm-up head, the first
    trained from image labels, the rest from mined pseudo labels.
    ``packs`` is ``pack_weak_scenes(warmup, world, cfg)`` when given, and
    is built here otherwise.
    """
    if warmup.sdk_head is None:
        raise ValueError("wstd_train requires a warm-up model with an SDK branch")
    student = _reheaded(warmup, cfg.rol.num_classifiers)
    if cfg.weak_scenes_per_class == 0:
        return student
    if packs is None:
        packs = pack_weak_scenes(warmup, world, cfg)
    params = {"sdk_head": student.sdk_head.weights}
    if not cfg.freeze_backbone:
        params["backbone"] = student.backbone.map
    for i, head in enumerate(student.rol_heads):
        params[f"rol_head_{i}"] = head.weights
    frozen = warmup.backbone.map.copy() if cfg.freeze_backbone else None

    def loss_fn(p, pk):
        comps, grads, _ = wstd_scene_loss(p, pk, cfg, frozen_backbone=frozen)
        return comps, grads

    params = _train(
        params, packs, loss_fn, cfg.wstd_epochs, cfg.optimizer,
        substream(cfg.seed, "wstd", "order"), report, "wstd",
    )
    backbone_map = params.get("backbone", warmup.backbone.map.copy())
    return DetectorModel(
        backbone=Backbone(map=backbone_map),
        main_head=Head(weights=student.main_head.weights, role="main"),
        sdk_head=Head(weights=params["sdk_head"], role="sdk_branch"),
        rol_heads=[
            Head(weights=params[f"rol_head_{i}"], role="rol_classifier")
            for i in range(cfg.rol.num_classifiers)
        ],
        source_classes=warmup.source_classes,
    )


# --- inference and evaluation -----------------------------------------------


def _select_head(model: DetectorModel, classifier: int | None) -> Head:
    if classifier is not None:
        if not model.rol_heads:
            raise ValueError("model has no recurrent classifiers")
        if not (1 <= classifier <= len(model.rol_heads)):
            raise ValueError(f"classifier index {classifier} out of range")
        return model.rol_heads[classifier - 1]
    return model.rol_heads[-1] if model.rol_heads else model.main_head


def detect(
    model: DetectorModel,
    scene: Scene,
    scene_id: int,
    classifier: int | None = None,
    nms_threshold: float = INFERENCE_NMS_THRESHOLD,
) -> list[Detection]:
    """Per-class score + greedy suppression over the scene's proposals."""
    head = _select_head(model, classifier)
    boxes = list(scene.proposals)
    probs = pooled_probs(model.backbone, head, pool_raw_means(scene.raw_grid, boxes))
    iou_matrix = pairwise_iou(boxes)
    detections: list[Detection] = []
    for c in range(head.num_rows - 1):
        scores = probs[c]
        for k in nms(scores, iou_matrix, nms_threshold, len(boxes)):
            detections.append(Detection(scene_id, c, boxes[k], float(scores[k])))
    return detections


def evaluate_model(
    model: DetectorModel,
    scenes: Sequence[Scene],
    classifier: int | None = None,
    eval_cfg: EvalConfig = EvalConfig(),
) -> tuple[list[float | None], float]:
    """Detect on every scene and score against its full annotations."""
    head = _select_head(model, classifier)
    detections: list[Detection] = []
    ground_truths: dict[int, list[tuple[int, BBox]]] = {}
    for scene_id, scene in enumerate(scenes):
        detections.extend(detect(model, scene, scene_id, classifier))
        ground_truths[scene_id] = [(cls, box) for cls, box in scene.gt]
    return evaluate_detections(
        detections, ground_truths, head.num_rows - 1, eval_cfg
    )


# --- experiment registry ----------------------------------------------------


class UnknownExperimentError(ValueError):
    """Raised when an experiment name is not registered."""


@dataclass(frozen=True)
class ExperimentCell:
    cell_id: str
    stage: str  # "lstd" | "wstd": which model gets evaluated
    overrides: tuple[tuple[str, object], ...] = ()
    world_overrides: tuple[tuple[str, object], ...] = ()
    classifier: int | None = None


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    cells: tuple[ExperimentCell, ...]
    default_seeds: tuple[int, ...]


def _build_registry() -> dict[str, Experiment]:
    table3 = []
    for shots in (1, 5):
        base = (("shots_per_class", shots),)
        table3 += [
            ExperimentCell(
                f"ft_{shots}shot", "lstd",
                base + (("enable_sdk", False), ("enable_bd", False)),
            ),
            ExperimentCell(
                f"ft_sdk_{shots}shot", "lstd", base + (("enable_bd", False),)
            ),
            ExperimentCell(f"ft_sdk_bd_{shots}shot", "lstd", base),
        ]

    table5 = []
    for shots in (1, 30):
        base = (("shots_per_class", shots),)
        table5 += [
            ExperimentCell(f"lstd_{shots}shot", "lstd", base),
            ExperimentCell(f"wstd_{shots}shot", "wstd", base),
        ]

    table6 = tuple(
        ExperimentCell(
            f"{labeller}_classifier{i}", "wstd",
            (("labeller", labeller),), classifier=i,
        )
        for labeller in LABELLERS
        for i in (1, 2, 3)
    )

    fig7 = (
        ExperimentCell("sdk_without", "wstd", (("weights.lambda_wstd_sdk", 0.0),)),
        ExperimentCell("sdk_unweighted", "wstd", ()),
        ExperimentCell("sdk_weighted", "wstd", (("sdk_weighted", True),)),
    )

    fig9 = (
        ExperimentCell("default", "wstd", ()),
        ExperimentCell("phi_obj_0.4", "wstd", (("rol.phi_obj", 0.4),)),
        ExperimentCell("phi_obj_0.6", "wstd", (("rol.phi_obj", 0.6),)),
        ExperimentCell("phi_bg_0.2", "wstd", (("rol.phi_bg", 0.2),)),
        ExperimentCell("phi_bg_0.4", "wstd", (("rol.phi_bg", 0.4),)),
        ExperimentCell(
            "proposals_16", "wstd", (), (("proposals_per_scene", 16),)
        ),
        ExperimentCell(
            "proposals_64", "wstd", (), (("proposals_per_scene", 64),)
        ),
    )

    experiments = [
        Experiment(
            "table3",
            "low-shot fine-tuning ablation: plain / +distillation / +background",
            tuple(table3), tuple(range(20)),
        ),
        Experiment(
            "table5",
            "warm-up versus weak-stage final model across shot counts",
            tuple(table5), tuple(range(20)),
        ),
        Experiment(
            "table6",
            "labeller comparison per recurrent classifier",
            table6, tuple(range(20)),
        ),
        Experiment(
            "fig7",
            "distillation modes in the weak stage: off / unweighted / weighted",
            fig7, tuple(range(10)),
        ),
        Experiment(
            "fig9",
            "sensitivity to labelling bands and proposal count",
            fig9, tuple(range(5)),
        ),
    ]
    return {e.name: e for e in experiments}


EXPERIMENTS = _build_registry()


def apply_overrides(cfg, overrides: dict[str, object]):
    """Replace (possibly dotted) fields on a frozen config dataclass."""
    for key, value in overrides.items():
        parts = key.split(".")
        try:
            cfg = _replace_path(cfg, parts, value)
        except TypeError:
            raise ValueError(f"unknown config field {key!r}")
    return cfg


def _replace_path(obj, parts: list[str], value):
    if len(parts) == 1:
        return replace(obj, **{parts[0]: value})
    child = getattr(obj, parts[0], None)
    if child is None or not dataclasses.is_dataclass(child):
        raise TypeError(parts[0])
    return replace(obj, **{parts[0]: _replace_path(child, parts[1:], value)})


def _source_cache_key(cfg: StageConfig):
    return (cfg.source_scenes, cfg.source_epochs, cfg.optimizer,
            cfg.weights.lambda_main)


def _lstd_cache_key(cfg: StageConfig):
    return _source_cache_key(cfg) + (
        cfg.shots_per_class, cfg.lstd_epochs, cfg.enable_bd, cfg.enable_sdk,
        cfg.weights,
    )


def _wstd_cache_key(cfg: StageConfig):
    return _lstd_cache_key(cfg) + (
        cfg.weak_scenes_per_class, cfg.wstd_epochs, cfg.labeller,
        cfg.sdk_weighted, cfg.rol, cfg.freeze_backbone,
    )


def _run_cells_for_seed(
    experiment: Experiment, seed: int, overrides: dict[str, object]
) -> list[RunReport]:
    cache: dict = {}
    # Cells on one world and warm-up train on the same weak pack set.  The
    # registry lists such cells consecutively, so holding only the latest
    # set builds each set once without keeping two alive.
    weak_packs: dict = {}
    reports: list[RunReport] = []
    for cell in experiment.cells:
        started = time.perf_counter()
        cfg = apply_overrides(StageConfig(), overrides)
        cfg = apply_overrides(cfg, dict(cell.overrides))
        cfg = replace(cfg, seed=seed)
        world_cfg = apply_overrides(
            WorldConfig(seed=seed), dict(cell.world_overrides)
        )
        report = RunReport(
            seed=seed,
            stage=cell.stage,
            cell_id=cell.cell_id,
            shots=cfg.shots_per_class,
            weak_scenes=cfg.weak_scenes_per_class if cell.stage == "wstd" else 0,
            labeller=cfg.labeller,
            classifier=cell.classifier,
            config_echo=dataclasses.asdict(cfg),
        )

        def cached(key, build):
            if key not in cache:
                cache[key] = build()
            return cache[key]

        world = cached(("world", world_cfg), lambda: make_world(world_cfg))
        eval_scenes = cached(
            ("eval", world_cfg, cfg.eval_scenes),
            lambda: sample_scenes(
                world, "target", "full", substream(seed, "eval"), cfg.eval_scenes
            ),
        )
        source = cached(
            ("source", world_cfg, _source_cache_key(cfg)),
            lambda: train_source(world, cfg, report),
        )
        warmup_key = ("lstd", world_cfg, _lstd_cache_key(cfg))
        warmup = cached(warmup_key, lambda: lstd_finetune(source, world, cfg, report))
        if cell.stage == "wstd":

            def train():
                key = (warmup_key, cfg.weak_scenes_per_class)
                if key not in weak_packs:
                    weak_packs.clear()  # release the last set before packing the next
                    weak_packs[key] = pack_weak_scenes(warmup, world, cfg)
                return wstd_train(warmup, world, cfg, report, weak_packs[key])

            model = cached(("wstd", world_cfg, _wstd_cache_key(cfg)), train)
        else:
            model = warmup
        per_class, map_value = evaluate_model(
            model, eval_scenes, classifier=cell.classifier
        )
        report.set_result(per_class, map_value)
        report.wall_clock = time.perf_counter() - started
        reports.append(report)
    return reports


def experiment_output_paths(name: str, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    return {
        "runs": out / f"{name}.csv",
        "summary": out / f"{name}_summary.csv",
        "manifest": out / f"{name}_manifest.json",
    }


def write_experiment_csv(path, name: str, reports: Sequence[RunReport]) -> None:
    num_classes = len(reports[0].per_class_aps)
    header = [
        "experiment", "cell", "seed", "stage", "shots", "weak_scenes",
        "labeller", "map",
    ] + [f"ap_{i}" for i in range(num_classes)]
    lines = [",".join(header)]
    for r in reports:
        if len(r.per_class_aps) != num_classes:
            raise ValueError("inconsistent class count across cells")
        row = [
            name, r.cell_id, str(r.seed), r.stage, str(r.shots),
            str(r.weak_scenes), r.labeller, repr(float(r.mean_ap)),
        ] + [
            "excluded" if ap is None else repr(float(ap))
            for ap in r.per_class_aps
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path, name: str, reports: Sequence[RunReport]) -> None:
    by_cell: dict[str, list[float]] = {}
    order: list[str] = []
    for r in reports:
        if r.cell_id not in by_cell:
            by_cell[r.cell_id] = []
            order.append(r.cell_id)
        by_cell[r.cell_id].append(r.mean_ap)
    lines = ["experiment,cell,seeds,map_mean,map_std"]
    for cell_id in order:
        values = np.array(by_cell[cell_id])
        lines.append(
            ",".join([
                name, cell_id, str(values.size),
                repr(float(values.mean())), repr(float(values.std())),
            ])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def run_experiment(
    name: str,
    seeds: Sequence[int] | None = None,
    out_dir=".",
    overrides: dict[str, object] | None = None,
) -> list[RunReport]:
    """Execute every (cell, seed) of a registered experiment and write the
    per-run CSV, the per-cell summary CSV, and a JSON manifest."""
    if name not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; registered: "
            + ", ".join(sorted(EXPERIMENTS))
        )
    experiment = EXPERIMENTS[name]
    seeds = tuple(experiment.default_seeds if seeds is None else seeds)
    overrides = overrides or {}
    started = time.perf_counter()
    per_seed = [_run_cells_for_seed(experiment, s, overrides) for s in seeds]

    reports = [
        per_seed[seed_index][cell_index]
        for cell_index in range(len(experiment.cells))
        for seed_index in range(len(seeds))
    ]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = experiment_output_paths(name, out_dir)
    write_experiment_csv(paths["runs"], name, reports)
    write_summary_csv(paths["summary"], name, reports)

    from . import __version__

    manifest = {
        "experiment": name,
        "description": experiment.description,
        "artifact_version": __version__,
        "seeds": list(seeds),
        "overrides": {k: repr(v) for k, v in overrides.items()},
        "cells": [
            {
                "cell": c.cell_id,
                "stage": c.stage,
                "overrides": {k: repr(v) for k, v in c.overrides},
                "world_overrides": {k: repr(v) for k, v in c.world_overrides},
                "classifier": c.classifier,
            }
            for c in experiment.cells
        ],
        "outputs": [paths["runs"].name, paths["summary"].name],
        "wall_clock_seconds": time.perf_counter() - started,
    }
    paths["manifest"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return reports
