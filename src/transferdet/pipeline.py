"""Three-stage training orchestration and the experiment runner.

Stage one trains a fully supervised detector on the source domain.  Stage
two fine-tunes it on a handful of fully annotated target scenes with the
background and distillation regularizers, producing the warm-up detector.
Stage three trains the final detector on weakly annotated scenes, guided
by the frozen warm-up model and recurrent pseudo labelling.

Each training packs its scenes once into per-scene constants
(:class:`ScenePack`).  Pack arrays are read-only, so no training can change
what another reads.

Sibling trainings run in lockstep.  The cells of an ablation train, within
one seed, from the same packs, initial heads and scene order, and differ
only in loss coefficients or labeller settings.  :func:`lstd_finetune` and
:func:`wstd_train` take one :class:`StageConfig` per such member, stack the
members' parameters along a leading axis and train them with one Adam step
per scene for the whole group; per-member coefficients scale the stacked
gradients, and each member's slice is bit-identical to training it alone.
A single training is a one-member group.  The experiment runner trains
every uncached sibling cell of a seed in one group, which also builds the
group's weak pack set once.
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
#
# Parameters carry a leading member axis: one slice per training of a
# lockstep group, ``cfgs`` one StageConfig per slice (a plain sequence, or
# the group's :class:`Members` with its coefficients already gathered).
# Components come back as one value per member, gradients stacked like the
# parameters.


@dataclass(frozen=True)
class Members:
    """The configs of a lockstep group, with their loss coefficients gathered.

    ``weight[term]`` holds one coefficient per member as an (M,) array, which
    scales the members' loss values, and ``scale[term]`` the same values
    shaped (M, 1, 1), which scales stacked (M, rows, K) gradients.  A stage
    builds them once per training, so its steps do not rebuild them.
    """

    cfgs: tuple[StageConfig, ...]
    weight: dict[str, np.ndarray]
    scale: dict[str, np.ndarray]
    sdk_weighted: np.ndarray

    @classmethod
    def of(cls, cfgs: "Members | Sequence[StageConfig]") -> "Members":
        """The group of ``cfgs``; a Members comes back as it is."""
        if isinstance(cfgs, cls):
            return cfgs
        cfgs = tuple(cfgs)
        terms = {
            "main": lambda c: c.weights.lambda_main,
            "bd": lambda c: c.weights.lambda_bd if c.enable_bd else 0.0,
            "sdk": lambda c: c.weights.lambda_sdk if c.enable_sdk else 0.0,
            "wstd_sdk": lambda c: c.weights.lambda_wstd_sdk if c.enable_sdk else 0.0,
            "wstd_rol": lambda c: c.weights.lambda_wstd_rol,
        }
        weight = {
            term: np.array([float(value(c)) for c in cfgs])
            for term, value in terms.items()
        }
        return cls(
            cfgs=cfgs,
            weight=weight,
            scale={term: w[:, None, None] for term, w in weight.items()},
            sdk_weighted=np.array([c.sdk_weighted for c in cfgs], dtype=bool),
        )


def source_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfgs: Members | Sequence[StageConfig],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    members = Members.of(cfgs)
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.transpose(0, 2, 1)
    logits = head_logits(params["main_head"], features)
    value, dlogits = proposal_cls_loss(logits, pack.labels)
    dhead, dfeatures = head_backward(
        params["main_head"], features, members.scale["main"] * dlogits
    )
    total = members.weight["main"] * value
    return (
        {"total": total, "main": value},
        {
            "backbone": dfeatures.transpose(0, 2, 1) @ pack.raw_means,
            "main_head": dhead,
        },
    )


def lstd_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfgs: Members | Sequence[StageConfig],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Warm-up fine-tuning loss: main + background + distillation terms.

    The background term is computed only for the members whose coefficient
    is positive; the others report exactly 0.0 for it.
    """
    members = Members.of(cfgs)
    weight, scale = members.weight, members.scale
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.transpose(0, 2, 1)

    main_logits = head_logits(params["main_head"], features)
    main_val, dmain = proposal_cls_loss(main_logits, pack.labels)
    dmain_head, dfeatures = head_backward(
        params["main_head"], features, scale["main"] * dmain
    )

    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(pack.teacher, sdk_logits)
    dsdk_head, df_sdk = head_backward(
        params["sdk_head"], features, scale["sdk"] * dsdk
    )
    dfeatures = dfeatures + df_sdk

    dbackbone = dfeatures.transpose(0, 2, 1) @ pack.raw_means
    bd_val = np.zeros(len(members.cfgs))
    active = np.flatnonzero(weight["bd"] > 0.0)
    if active.size:
        feature_grid = np.einsum("bdo,hwo->bhwd", backbone[active], pack.raw_grid)
        bd_val[active], dgrid = bd_loss(feature_grid, pack.background_mask)
        dbackbone[active] += scale["bd"][active] * np.einsum(
            "bhwd,hwo->bdo", dgrid, pack.raw_grid
        )

    total = (
        weight["main"] * main_val + weight["bd"] * bd_val + weight["sdk"] * sdk_val
    )
    return (
        {"total": total, "main": main_val, "bd": bd_val, "sdk": sdk_val},
        {"backbone": dbackbone, "main_head": dmain_head, "sdk_head": dsdk_head},
    )


def wstd_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfgs: Members | Sequence[StageConfig],
    fixed_pseudo: list[np.ndarray] | None = None,
    frozen_backbone: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], list[np.ndarray]]:
    """Weak-stage loss over all recurrent classifiers plus distillation.

    Pseudo labels for classifier i come from classifier i-1 scores and are
    constants of the step (no gradient flows through them); each member's
    labels are mined with its own labeller and ROL thresholds and stacked.
    Passing ``fixed_pseudo`` (one stacked array per labelled classifier)
    pins them explicitly, which the detachment tests use.
    ``frozen_backbone`` stands in, stacked, for a backbone outside
    ``params``.
    """
    members = Members.of(cfgs)
    weight, scale = members.weight, members.scale
    num_classifiers = members.cfgs[0].rol.num_classifiers
    labellers = {"rol": mine_support, "oicr": oicr_label}
    backbone = params["backbone"] if "backbone" in params else frozen_backbone
    features = pack.raw_means @ backbone.transpose(0, 2, 1)

    grads: dict[str, np.ndarray] = {}
    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(pack.teacher, sdk_logits, weighted=members.sdk_weighted)
    grads["sdk_head"], dfeatures = head_backward(
        params["sdk_head"], features, scale["wstd_sdk"] * dsdk
    )

    comps: dict[str, np.ndarray] = {"sdk": sdk_val}
    rol_values: list[np.ndarray] = []
    pseudo_used: list[np.ndarray] = []
    prev_probs: np.ndarray | None = None
    for i in range(num_classifiers):
        weights_i = params[f"rol_head_{i}"]
        logits = head_logits(weights_i, features)
        if i == 0:
            value, dlogits = image_multilabel_loss(logits, pack.y_img)
        else:
            if fixed_pseudo is not None:
                pseudo = fixed_pseudo[i - 1]
            else:
                pseudo = np.stack([
                    labellers[cfg.labeller](
                        probs, pack.boxes, pack.y_img, cfg.rol, iou_cache=pack.iou
                    )
                    for probs, cfg in zip(prev_probs, members.cfgs)
                ])
            pseudo_used.append(pseudo)
            value, dlogits = rol_classifier_loss(logits, pseudo)
        dhead, dfeat = head_backward(
            weights_i, features, scale["wstd_rol"] * dlogits
        )
        grads[f"rol_head_{i}"] = dhead
        dfeatures = dfeatures + dfeat
        if i + 1 < num_classifiers:
            prev_probs = column_softmax(logits)
        rol_values.append(value)
        comps[f"rol_{i + 1}"] = value

    rol_sum = sum(rol_values)
    comps["rol"] = rol_sum
    comps["total"] = weight["wstd_sdk"] * sdk_val + weight["wstd_rol"] * rol_sum
    if "backbone" in params:
        grads["backbone"] = dfeatures.transpose(0, 2, 1) @ pack.raw_means
    return comps, grads, pseudo_used


# --- training loop ----------------------------------------------------------


def _stacked(array: np.ndarray, members: int) -> np.ndarray:
    """``members`` copies of ``array`` along a new leading axis."""
    return np.repeat(array[None], members, axis=0)


def _train(
    params: dict[str, np.ndarray],
    packs: Sequence[ScenePack],
    loss_fn: Callable[[dict, ScenePack], tuple[dict, dict]],
    epochs: int,
    opt: OptimizerConfig,
    order_rng: np.random.Generator,
    reports: Sequence[RunReport | None],
    prefix: str,
) -> dict[str, np.ndarray]:
    """Adam over per-scene losses; learning rate drops once at 2/3 of steps.

    ``params`` are stacked along the member axis, and member m's loss
    components go to ``reports[m]`` when it is given.
    """
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
            for member, report in enumerate(reports):
                if report is not None:
                    for key, value in comps.items():
                        report.curves.setdefault(f"{prefix}.{key}", []).append(
                            float(value[member])
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
#
# A training stage takes one StageConfig per member of a lockstep group.
# Members must agree on every field that decides the step sequence (the
# stage's sibling key: seed, scenes, initialization, epochs, optimizer);
# they may differ in the rest (the member fields: loss coefficients,
# switches, labeller settings).  A stage's cache key is its sibling key
# plus its member fields, so two configs with equal cache keys train
# identical models.


def _source_cache_key(cfg: StageConfig):
    return (cfg.source_scenes, cfg.source_epochs, cfg.optimizer,
            cfg.weights.lambda_main)


def _lstd_sibling_key(cfg: StageConfig):
    return (cfg.seed,) + _source_cache_key(cfg) + (
        cfg.shots_per_class, cfg.lstd_epochs,
    )


def _lstd_cache_key(cfg: StageConfig):
    # The weak-stage coefficients are left out: fine-tuning never reads them.
    return _lstd_sibling_key(cfg) + (
        cfg.enable_bd, cfg.enable_sdk, cfg.weights.lambda_bd, cfg.weights.lambda_sdk,
    )


def _wstd_sibling_key(cfg: StageConfig):
    return _lstd_cache_key(cfg) + (
        cfg.weak_scenes_per_class, cfg.wstd_epochs, cfg.rol.num_classifiers,
        cfg.freeze_backbone,
    )


def _wstd_cache_key(cfg: StageConfig):
    return _wstd_sibling_key(cfg) + (
        cfg.labeller, cfg.sdk_weighted, cfg.rol, cfg.weights.lambda_wstd_sdk,
        cfg.weights.lambda_wstd_rol,
    )


def _group(
    stage: str,
    cfgs: Sequence[StageConfig],
    reports: Sequence[RunReport | None] | None,
    sibling_key: Callable[[StageConfig], tuple],
) -> tuple[Members, list[RunReport | None]]:
    """Validated members of a lockstep group and one report slot each."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError(f"{stage} needs at least one config")
    if any(sibling_key(cfg) != sibling_key(cfgs[0]) for cfg in cfgs[1:]):
        raise ValueError(
            f"{stage} configs are not siblings: they differ in a field that "
            "decides the step sequence"
        )
    reports = [None] * len(cfgs) if reports is None else list(reports)
    if len(reports) != len(cfgs):
        raise ValueError(f"{stage} got {len(reports)} reports for {len(cfgs)} configs")
    return Members.of(cfgs), reports


def train_source(
    world: World, cfg: StageConfig, report: RunReport | None = None
) -> DetectorModel:
    """Fully supervised training on source-domain scenes (a one-member group)."""
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
    params = {"backbone": backbone.map[None], "main_head": head.weights[None]}
    members = Members.of([cfg])
    params = _train(
        params, packs, lambda p, pk: source_scene_loss(p, pk, members),
        cfg.source_epochs, cfg.optimizer, substream(cfg.seed, "source", "order"),
        [report], "source",
    )
    return DetectorModel(
        backbone=Backbone(map=params["backbone"][0]),
        main_head=Head(weights=params["main_head"][0], role="main"),
        source_classes=num_classes,
    )


def lstd_finetune(
    source: DetectorModel,
    world: World,
    cfgs: Sequence[StageConfig] | StageConfig,
    reports: Sequence[RunReport | None] | None = None,
) -> list[DetectorModel] | DetectorModel:
    """Low-shot fine-tuning on fully annotated target scenes.

    The backbone starts from the source model; a fresh target head and a
    fresh source-class distillation head are trained jointly, the latter
    against the frozen source model's per-proposal distributions.

    Every config in ``cfgs`` is one member of a lockstep group; they share
    the support scenes, the initial heads and the step order, so they must
    agree on the seed, the source training, ``shots_per_class``,
    ``lstd_epochs`` and ``optimizer`` (else ``ValueError``).  Returns one
    model per config, and member m's loss curves go to ``reports[m]``.
    A single StageConfig (with a single report or None) trains one model
    and returns it unwrapped, as ``perfbench/workloads.build_fixtures``
    calls it; that form goes when the benchmark moves to the list form
    (ROADMAP item 3).
    """
    single = isinstance(cfgs, StageConfig)
    if single:
        cfgs, reports = [cfgs], [reports]
    members, reports = _group("lstd_finetune", cfgs, reports, _lstd_sibling_key)
    cfg = members.cfgs[0]
    if source is None:
        raise ValueError("lstd_finetune requires a trained source model")
    if cfg.shots_per_class < 1:
        raise ValueError("lstd_finetune requires shots_per_class >= 1")
    count = len(members.cfgs)
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
        "backbone": _stacked(source.backbone.map, count),
        "main_head": _stacked(main.weights, count),
        "sdk_head": _stacked(sdk.weights, count),
    }
    params = _train(
        params, packs, lambda p, pk: lstd_scene_loss(p, pk, members),
        cfg.lstd_epochs, cfg.optimizer, substream(cfg.seed, "lstd", "order"),
        reports, "lstd",
    )
    models = [
        DetectorModel(
            backbone=Backbone(map=params["backbone"][m].copy()),
            main_head=Head(weights=params["main_head"][m].copy(), role="main"),
            sdk_head=Head(weights=params["sdk_head"][m].copy(), role="sdk_branch"),
            source_classes=num_source,
        )
        for m in range(count)
    ]
    return models[0] if single else models


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
    cfgs: Sequence[StageConfig],
    reports: Sequence[RunReport | None] | None = None,
    packs: Sequence[ScenePack] | None = None,
) -> list[DetectorModel]:
    """Weakly supervised training guided by the frozen warm-up model.

    The warm-up supplies proposals and distillation targets; the student's
    recurrent classifiers start as copies of the warm-up head, the first
    trained from image labels, the rest from mined pseudo labels.

    Every config in ``cfgs`` is one member of a lockstep group on the same
    weak packs; they must agree on the warm-up (its cache key),
    ``weak_scenes_per_class``, ``wstd_epochs``, ``optimizer``,
    ``rol.num_classifiers`` and ``freeze_backbone`` (else ``ValueError``),
    and may differ in the weak-stage coefficients, the labeller, its ROL
    thresholds and ``sdk_weighted``.  Returns one student per config;
    member m's loss curves go to ``reports[m]``.  ``packs`` is
    ``pack_weak_scenes(warmup, world, cfgs[0])`` when given, and is built
    here otherwise.
    """
    members, reports = _group("wstd_train", cfgs, reports, _wstd_sibling_key)
    cfg = members.cfgs[0]
    if warmup.sdk_head is None:
        raise ValueError("wstd_train requires a warm-up model with an SDK branch")
    count = len(members.cfgs)
    classifiers = cfg.rol.num_classifiers
    params = {"sdk_head": _stacked(warmup.sdk_head.weights, count)}
    if not cfg.freeze_backbone:
        params["backbone"] = _stacked(warmup.backbone.map, count)
    for i in range(classifiers):
        params[f"rol_head_{i}"] = _stacked(warmup.main_head.weights, count)
    if cfg.weak_scenes_per_class > 0:
        if packs is None:
            packs = pack_weak_scenes(warmup, world, cfg)
        frozen = _stacked(warmup.backbone.map, count) if cfg.freeze_backbone else None

        def loss_fn(p, pk):
            comps, grads, _ = wstd_scene_loss(p, pk, members, frozen_backbone=frozen)
            return comps, grads

        params = _train(
            params, packs, loss_fn, cfg.wstd_epochs, cfg.optimizer,
            substream(cfg.seed, "wstd", "order"), reports, "wstd",
        )
    return [
        DetectorModel(
            backbone=Backbone(
                map=(params["backbone"][m] if "backbone" in params
                     else warmup.backbone.map).copy()
            ),
            main_head=Head(weights=warmup.main_head.weights.copy(), role="main"),
            sdk_head=Head(weights=params["sdk_head"][m].copy(), role="sdk_branch"),
            rol_heads=[
                Head(weights=params[f"rol_head_{i}"][m].copy(), role="rol_classifier")
                for i in range(classifiers)
            ],
            source_classes=warmup.source_classes,
        )
        for m in range(count)
    ]


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


def _cell_configs(
    cell: ExperimentCell, seed: int, overrides: dict[str, object]
) -> tuple[StageConfig, WorldConfig]:
    cfg = apply_overrides(StageConfig(), overrides)
    cfg = apply_overrides(cfg, dict(cell.overrides))
    world_cfg = apply_overrides(WorldConfig(seed=seed), dict(cell.world_overrides))
    return replace(cfg, seed=seed), world_cfg


def _run_cells_for_seed(
    experiment: Experiment, seed: int, overrides: dict[str, object]
) -> list[RunReport]:
    cells = experiment.cells
    cfgs, world_cfgs = zip(*(_cell_configs(c, seed, overrides) for c in cells))
    reports = [
        RunReport(
            seed=seed,
            stage=cell.stage,
            cell_id=cell.cell_id,
            shots=cfg.shots_per_class,
            weak_scenes=cfg.weak_scenes_per_class if cell.stage == "wstd" else 0,
            labeller=cfg.labeller,
            classifier=cell.classifier,
            config_echo=dataclasses.asdict(cfg),
        )
        for cell, cfg in zip(cells, cfgs)
    ]
    cache: dict = {}

    def cached(key, build):
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def stage_model(i, stage, users, sibling_key, cache_key, train):
        """Cell i's model of ``stage``.  When it is not cached yet, it is
        trained in one lockstep group with the uncached models of every
        cell in ``users`` on the same world with the same sibling key: one
        member per distinct cache key, whose curves go to the report of
        the first cell that uses it."""
        key = (stage, world_cfgs[i], cache_key(cfgs[i]))
        if key not in cache:
            group: dict = {}
            for j in users:
                member_key = (stage, world_cfgs[j], cache_key(cfgs[j]))
                if (
                    member_key not in cache
                    and world_cfgs[j] == world_cfgs[i]
                    and sibling_key(cfgs[j]) == sibling_key(cfgs[i])
                ):
                    group.setdefault(member_key, j)
            members = list(group.values())
            models = train([cfgs[j] for j in members], [reports[j] for j in members])
            cache.update(zip(group, models))
        return cache[key]

    weak_cells = [j for j, cell in enumerate(cells) if cell.stage == "wstd"]
    for i, cell in enumerate(cells):
        started = time.perf_counter()
        cfg, world_cfg, report = cfgs[i], world_cfgs[i], reports[i]
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
        model = stage_model(
            i, "lstd", range(len(cells)), _lstd_sibling_key, _lstd_cache_key,
            lambda cs, rs: lstd_finetune(source, world, cs, rs),
        )
        if cell.stage == "wstd":
            warmup = model
            model = stage_model(
                i, "wstd", weak_cells, _wstd_sibling_key, _wstd_cache_key,
                lambda cs, rs: wstd_train(warmup, world, cs, rs),
            )
        per_class, map_value = evaluate_model(
            model, eval_scenes, classifier=cell.classifier
        )
        report.set_result(per_class, map_value)
        report.wall_clock = time.perf_counter() - started
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
