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

Source trainings also run in lockstep across seeds.  Every seed follows
the same schedule (``source_epochs`` × ``source_scenes`` steps on worlds
that differ only in their seed), so :func:`train_source` takes one world
and one config per seed, stacks each member's packs once and gathers every
member's own scene at each step.  The runner trains, in one call, every
untrained source of all requested seeds that shares a sibling key; the
group's time, the other seeds' world builds included, goes to the
``wall_clock`` of the cell that first needs one of its sources, a cell of
the first seed.  Every stage's models outlive their seed, so a repeated
seed trains nothing twice; worlds, eval scenes and packs are dropped
before the next seed starts.

Each training keeps its parameters as views into one flat buffer, so one
Adam step per scene updates every block of every member (see
:mod:`transferdet.model`).

Evaluation runs once per (seed, world, eval count), after all of that
seed's cells are trained: :func:`evaluate_model` takes every model to be
scored on those eval scenes, pools and overlaps each scene once for all of
them, scores each model on all the scenes in one stacked head call and
suppresses every (model, class, scene) row in one lockstep NMS.  The group's eval time, the
sampling of its eval scenes included, goes to the ``wall_clock`` of the
group's first cell, the same rule as for training.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .evaluation import (
    NO_GT,
    Detection,
    EvalConfig,
    average_precision,
    evaluate_detections,  # noqa: F401  (perfbench/tracer.py wraps it here)
    match_rows,
    mean_ap,
)
from .geometry import BBox, nms, pairwise_iou
from .labelling import ROLConfig, mine_support, oicr_label
from .losses import (
    LossWeights,
    _proposal_cls_loss,
    _sdk_loss,
    bd_loss,
    bd_mask,
    check_labels,
    check_score_matrix,
    image_multilabel_loss,
    rol_classifier_loss,
    sdk_loss,  # noqa: F401  (perfbench/tracer.py wraps pipeline.sdk_loss)
)
from .model import (
    AdamState,
    Backbone,
    DetectorModel,
    Head,
    OptimizerConfig,
    ParamLayout,
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
    """Per-scene constants precomputed once before a training loop.

    The pack builders check the constants a loss would otherwise check at
    every step (labels in class range, teachers as probability columns),
    and the scene losses take them as they are.
    """

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
    num_classes = world.config.classes_in("source")
    return ScenePack(
        boxes=boxes,
        raw_means=pool_raw_means(scene.raw_grid, boxes),
        labels=check_labels(proposal_labels(scene, num_classes), num_classes + 1),
    )


def pack_lstd_scene(scene: Scene, world: World, source: DetectorModel) -> ScenePack:
    boxes = list(scene.proposals)
    cfg = world.config
    num_classes = cfg.classes_in("target")
    return ScenePack(
        boxes=boxes,
        raw_means=pool_raw_means(scene.raw_grid, boxes),
        raw_grid=scene.raw_grid,
        labels=check_labels(proposal_labels(scene, num_classes), num_classes + 1),
        background_mask=bd_mask(
            cfg.grid_height, cfg.grid_width, [b for _, b in scene.gt]
        ),
        teacher=check_score_matrix(extract_sdk(source, scene.raw_grid, boxes)),
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
        teacher=check_score_matrix(
            pooled_probs(warmup.backbone, warmup.source_knowledge_head(), raw_means)
        ),
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
# parameters.  A pack's labels and teacher were checked when it was built,
# so the losses here run the unchecked cores of proposal_cls_loss and
# sdk_loss.


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
    """Fully supervised proposal loss.  The pack's raw means and labels are
    shared by every member, or hold one scene per member, stacked as
    (M, K, D0) and (M, K)."""
    members = Members.of(cfgs)
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.transpose(0, 2, 1)
    logits = head_logits(params["main_head"], features)
    value, dlogits = _proposal_cls_loss(logits, pack.labels)
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
    main_val, dmain = _proposal_cls_loss(main_logits, pack.labels)
    dmain_head, dfeatures = head_backward(
        params["main_head"], features, scale["main"] * dmain
    )

    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = _sdk_loss(pack.teacher, sdk_logits, False)
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
    sdk_val, dsdk = _sdk_loss(pack.teacher, sdk_logits, members.sdk_weighted)
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


def _step_order(rng: np.random.Generator, scenes: int, epochs: int) -> np.ndarray:
    """The scene of every step: one permutation of the scenes per epoch."""
    steps = [rng.permutation(scenes) for _ in range(epochs)]
    return np.array(steps, dtype=int).reshape(-1)


def _train(
    params: dict[str, np.ndarray],
    loss_fn: Callable[[dict, object], tuple[dict, dict]],
    order: np.ndarray,
    opt: OptimizerConfig,
    reports: Sequence[RunReport | None],
    prefix: str,
) -> dict[str, np.ndarray]:
    """Adam over per-scene losses; learning rate drops once at 2/3 of steps.

    Step s calls ``loss_fn(params, order[s])``.  ``params`` are stacked
    along the member axis and become views into one flat buffer, which one
    :func:`adam_step` per step updates; the result is views into it.
    Member m's loss components go to ``reports[m]`` when it is given.
    """
    layout = ParamLayout.of(params)
    buffer = layout.flatten(params)
    params = layout.views(buffer)
    state = AdamState.zeros(buffer.size)
    decay_at = (2 * len(order)) // 3
    for step, scene in enumerate(order):
        comps, grads = loss_fn(params, scene)
        lr = opt.learning_rate
        if step >= decay_at:
            lr *= opt.lr_decay_factor
        grad = layout.flatten(grads)
        updated, state = adam_step(buffer, grad, state, opt, layout, lr)
        buffer[...] = updated
        for member, report in enumerate(reports):
            if report is not None:
                for key, value in comps.items():
                    report.curves.setdefault(f"{prefix}.{key}", []).append(
                        float(value[member])
                    )
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


def _source_sibling_key(world_cfg: WorldConfig, cfg: StageConfig):
    # Source trainings of different seeds step alike: the seed picks only
    # the world, the initialization, the scenes and their order.
    return (replace(world_cfg, seed=0),) + _source_cache_key(cfg)


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


# The experiment runner's keys per stage, over a cell's world config and
# stage config: the cache key (with the world config it names a model) and
# the sibling key of a runner group.  Source groups span seeds; the later
# stages' sibling keys hold the seed, so their groups stay within one.
_RUNNER_KEYS = {
    "source": (_source_cache_key, _source_sibling_key),
    "lstd": (_lstd_cache_key, lambda world_cfg, cfg: (world_cfg, _lstd_sibling_key(cfg))),
    "wstd": (_wstd_cache_key, lambda world_cfg, cfg: (world_cfg, _wstd_sibling_key(cfg))),
}


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


def _stacked_source_scenes(
    world: World, cfg: StageConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The raw means (N, K, D0) and labels (N, K) of ``cfg``'s source scenes.

    The scenes are drawn and packed one at a time, the same draws as one
    ``sample_scenes`` call of N, so no scene outlives its packing.
    """
    rng = substream(cfg.seed, "source", "scenes")
    means, labels = [], []
    for _ in range(cfg.source_scenes):
        scene = sample_scenes(world, "source", "full", rng, 1)[0]
        pack = pack_source_scene(scene, world)
        means.append(pack.raw_means)
        labels.append(pack.labels)
    return np.stack(means), np.stack(labels)


def train_source(
    worlds: Sequence[World] | World,
    cfgs: Sequence[StageConfig] | StageConfig,
    reports: Sequence[RunReport | None] | RunReport | None = None,
) -> list[DetectorModel] | DetectorModel:
    """Fully supervised training on source-domain scenes.

    Every (world, config) pair is one member of a lockstep group, usually
    one per seed.  Each member draws its own initialization, scenes and
    step order from its config's seed, on its own world; the members must
    agree on the source training (``source_scenes``, ``source_epochs``,
    ``optimizer``, ``weights.lambda_main``) and their worlds on every field
    but the seed, so that every member's scenes have the same proposal
    count (else ``ValueError``).  Each member's scenes are packed one at a
    time and stacked once, and each step gathers every member's scene with
    one index.  Returns one
    model per member, and member m's loss curves go to ``reports[m]``.
    :func:`run_experiment` charges the time of the whole group to the
    ``wall_clock`` of the cell that first needs one of its sources, a cell
    of the first seed; the other seeds' cells show none of it.
    A single World and StageConfig (with a single report or None) train
    one model and return it unwrapped, as
    ``perfbench/workloads.build_fixtures`` calls it; that form goes with
    :func:`lstd_finetune`'s (ROADMAP item 1).
    """
    single = isinstance(cfgs, StageConfig)
    if single:
        worlds, cfgs, reports = [worlds], [cfgs], [reports]
    members, reports = _group("train_source", cfgs, reports, _source_cache_key)
    worlds = list(worlds)
    if len(worlds) != len(members.cfgs):
        raise ValueError(
            f"train_source got {len(worlds)} worlds for {len(members.cfgs)} configs"
        )
    keys = {_source_sibling_key(w.config, c) for w, c in zip(worlds, members.cfgs)}
    if len(keys) > 1:
        raise ValueError(
            "train_source worlds are not siblings: they differ in a field "
            "other than the seed"
        )
    num_classes = worlds[0].config.classes_in("source")
    dim = worlds[0].config.raw_dim
    backbones, heads, raw_means, labels, orders = [], [], [], [], []
    for world, cfg in zip(worlds, members.cfgs):
        init_rng = substream(cfg.seed, "source", "init")
        backbones.append(init_backbone(dim, dim, init_rng).map)
        heads.append(init_head(num_classes, dim, init_rng).weights)
        member_means, member_labels = _stacked_source_scenes(world, cfg)
        raw_means.append(member_means)
        labels.append(member_labels)
        orders.append(_step_order(
            substream(cfg.seed, "source", "order"), len(member_labels),
            cfg.source_epochs,
        ))
    # (M, N, K, D0) raw means and (M, N, K) labels; step s trains member m
    # on its scene orders[m][s].
    raw_means, labels = np.stack(raw_means), np.stack(labels)
    rows = np.arange(len(members.cfgs))

    def loss_fn(p, scene):
        pack = ScenePack(
            boxes=[], raw_means=raw_means[rows, scene], labels=labels[rows, scene]
        )
        return source_scene_loss(p, pack, members)

    params = _train(
        {"backbone": np.stack(backbones), "main_head": np.stack(heads)},
        loss_fn, np.stack(orders, axis=1), members.cfgs[0].optimizer, reports,
        "source",
    )
    models = [
        DetectorModel(
            backbone=Backbone(map=params["backbone"][m].copy()),
            main_head=Head(weights=params["main_head"][m].copy(), role="main"),
            source_classes=num_classes,
        )
        for m in rows
    ]
    return models[0] if single else models


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
    (ROADMAP item 1).
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
    order = _step_order(
        substream(cfg.seed, "lstd", "order"), len(packs), cfg.lstd_epochs
    )
    params = _train(
        params, lambda p, i: lstd_scene_loss(p, packs[i], members), order,
        cfg.optimizer, reports, "lstd",
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

        def loss_fn(p, i):
            comps, grads, _ = wstd_scene_loss(
                p, packs[i], members, frozen_backbone=frozen
            )
            return comps, grads

        order = _step_order(
            substream(cfg.seed, "wstd", "order"), len(packs), cfg.wstd_epochs
        )
        params = _train(params, loss_fn, order, cfg.optimizer, reports, "wstd")
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


def _proposal_probs(
    models: Sequence[DetectorModel],
    classifiers: Sequence[int | None],
    raw_means: np.ndarray,
) -> np.ndarray:
    """(M, C+1, S, K) class probabilities of each model's selected head
    over the proposals of S scenes, from their (S, K, D0) pooled raw means.

    Each model's head scores all S scenes in one stacked call; each
    (model, scene) slice is bit-identical to
    :func:`~transferdet.model.pooled_probs` of that model on that scene.
    Only one model's features, logits and softmax temporaries exist at a
    time, so the evaluation's peak memory stays near one model's share.
    Every matrix product stays one scene high: a product over all S*K
    proposals at once is large enough for a threaded BLAS to split across
    cores, which costs milliseconds per call on a busy machine.
    """
    probs = np.stack([
        column_softmax(
            head_logits(_select_head(m, c).weights, raw_means @ m.backbone.map.T)
        )
        for m, c in zip(models, classifiers)
    ])
    # (M, S, C+1, K), returned as an (M, C+1, S, K) view
    return probs.transpose(0, 2, 1, 3)


def detect(
    model: DetectorModel,
    scene: Scene,
    scene_id: int,
    classifier: int | None = None,
    nms_threshold: float = INFERENCE_NMS_THRESHOLD,
) -> list[Detection]:
    """Per-class score + greedy suppression over the scene's proposals:
    the one-model, one-scene case of :func:`evaluate_model`'s scoring and
    suppression, as :class:`Detection` objects in class order, each
    class's by descending score."""
    boxes = list(scene.proposals)
    raw_means = pool_raw_means(scene.raw_grid, boxes)[None]
    probs = _proposal_probs([model], [classifier], raw_means)[0, :, 0]
    kept = nms(probs[:-1], pairwise_iou(boxes), nms_threshold, len(boxes))
    return [
        Detection(scene_id, c, boxes[k], float(probs[c, k]))
        for c, row in enumerate(kept.tolist())
        for k in row
        if k >= 0
    ]


def evaluate_model(
    models: Sequence[DetectorModel],
    scenes: Sequence[Scene],
    classifiers: Sequence[int | None],
    eval_cfg: EvalConfig = EvalConfig(),
) -> list[tuple[list[float | None], float]]:
    """Per-class AP and mAP of each model (with its selected classifier,
    None for the default head) on the scenes against their full
    annotations: what :func:`detect` on every scene scored by
    :func:`~transferdet.evaluation.evaluate_detections` gives, bit for bit.

    The model-independent work runs once for all models: the scenes'
    proposals are pooled into one (S, K, D0) block, and their proposal IoU
    and proposal-by-GT IoU are computed once per scene.  One stacked head
    call per model scores all the scenes, one lockstep
    :func:`~transferdet.geometry.nms` suppresses every (model, class, scene)
    row, and
    :func:`~transferdet.evaluation.match_rows` matches each class's kept
    proposals on their rows of the proposal-by-GT IoU, with no
    :class:`Detection` objects.  The scenes must share one proposal count.
    """
    if len(classifiers) != len(models):
        raise ValueError(
            f"evaluate_model got {len(classifiers)} classifiers for {len(models)} models"
        )
    if not models:
        return []
    if not scenes:
        raise ValueError("evaluate_model needs at least one scene")
    boxes = [list(scene.proposals) for scene in scenes]
    count = len(boxes[0])
    if any(len(b) != count for b in boxes):
        raise ValueError("evaluation scenes differ in proposal count")
    probs = _proposal_probs(models, classifiers, np.stack(
        [pool_raw_means(scene.raw_grid, b) for scene, b in zip(scenes, boxes)]
    ))
    if not np.isfinite(probs).all():
        raise ValueError("non-finite detection score")
    num_classes = probs.shape[1] - 1
    kept = nms(
        probs[:, :-1], np.stack([pairwise_iou(b) for b in boxes]),
        INFERENCE_NMS_THRESHOLD, count,
    )

    # Per class: a (S, K, G) block of each proposal's IoU with the class's
    # GT boxes of its scene, in GT order, padded with NO_GT, and the GT total.
    gt_classes = [np.array([cls for cls, _ in scene.gt], dtype=int) for scene in scenes]
    widths = [
        max(int((classes == c).sum()) for classes in gt_classes)
        for c in range(num_classes)
    ]
    blocks = [np.full((len(scenes), count, w), NO_GT) for w in widths]
    totals = [0] * num_classes
    for s, (scene, classes) in enumerate(zip(scenes, gt_classes)):
        if not scene.gt:
            continue
        overlaps = pairwise_iou(boxes[s], [box for _, box in scene.gt])
        for c in range(num_classes):
            columns = np.flatnonzero(classes == c)
            blocks[c][s, :, : columns.size] = overlaps[:, columns]
            totals[c] += columns.size

    results = []
    for m in range(len(models)):
        per_class: list[float | None] = []
        for c in range(num_classes):
            if totals[c] == 0:
                per_class.append(None)
                continue
            # Kept proposals in detect's order: scene by scene, each by rank.
            scene_index, rank = np.nonzero(kept[m, c] >= 0)
            k = kept[m, c][scene_index, rank]
            flags = match_rows(
                probs[m, c, scene_index, k], scene_index, blocks[c][scene_index, k],
                eval_cfg.iou_threshold,
            )
            per_class.append(average_precision(flags, totals[c], eval_cfg))
        results.append((per_class, mean_ap(per_class)))
    return results


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


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def apply_overrides(cfg, overrides: dict[str, object]):
    """``cfg`` with each ``{"a.b": value}`` override applied.

    A dotted key reaches a field of a nested config group.  A string value
    is coerced by the type of the field's current value: a boolean word
    (1/true/yes/on, 0/false/no/off), an int, a float, or an int tuple split
    on ``,`` or ``:``; a string field takes it as it is.  Any other value
    is set unchanged.  Raises ``ValueError`` naming the key for an unknown
    field, a path through a field that is not a config group, a value for a
    whole group, ``seed`` (a run's seed is given apart from its config),
    and a value the field or its config rejects.
    """
    for key, value in overrides.items():
        if key == "seed":
            raise ValueError(
                "config field 'seed' cannot be overridden; give --seed or --seeds"
            )
        parts = key.split(".")
        chain = [cfg]  # the configs along the dotted path
        for part in parts:
            obj = chain[-1]
            if not (
                dataclasses.is_dataclass(obj)
                and part in {f.name for f in dataclasses.fields(obj)}
            ):
                raise ValueError(f"unknown config field {key!r}")
            chain.append(getattr(obj, part))
        current = chain.pop()
        if dataclasses.is_dataclass(current):
            raise ValueError(
                f"config field {key!r} is a group; set its fields as {key}.<name>"
            )
        try:
            if isinstance(value, str) and isinstance(current, bool):
                if value.lower() not in _BOOL_WORDS:
                    raise ValueError(f"expected a boolean, got {value!r}")
                value = _BOOL_WORDS[value.lower()]
            elif isinstance(value, str) and isinstance(current, tuple):
                items = value.replace(":", ",").split(",")
                value = tuple(int(item) for item in items if item.strip())
            elif isinstance(value, str) and isinstance(current, (int, float)):
                value = type(current)(value)
            for obj, part in zip(reversed(chain), reversed(parts)):
                value = replace(obj, **{part: value})
        except ValueError as exc:
            raise ValueError(f"config field {key!r}: {exc}") from None
        cfg = value
    return cfg


def _cell_configs(
    cell: ExperimentCell, seed: int, overrides: dict[str, object]
) -> tuple[StageConfig, WorldConfig]:
    cfg = apply_overrides(StageConfig(), overrides)
    cfg = apply_overrides(cfg, dict(cell.overrides))
    world_cfg = apply_overrides(WorldConfig(seed=seed), dict(cell.world_overrides))
    return replace(cfg, seed=seed), world_cfg


@dataclass
class _SeedRun:
    """The cells of one seed: their stage and world configs and reports."""

    cfgs: tuple[StageConfig, ...]
    world_cfgs: tuple[WorldConfig, ...]
    reports: list[RunReport]


def _plan_seed(
    experiment: Experiment, seed: int, overrides: dict[str, object]
) -> _SeedRun:
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
    return _SeedRun(cfgs, world_cfgs, reports)


def _run_cells_for_seed(
    experiment: Experiment,
    run: _SeedRun,
    trained: Callable[..., DetectorModel],
) -> list[RunReport]:
    cells, cfgs, world_cfgs, reports = (
        experiment.cells, run.cfgs, run.world_cfgs, run.reports
    )
    worlds: dict[WorldConfig, World] = {}  # this seed's worlds
    models: list[DetectorModel] = []
    for i, cell in enumerate(cells):
        started = time.perf_counter()
        cfg, world_cfg = cfgs[i], world_cfgs[i]
        if world_cfg not in worlds:
            worlds[world_cfg] = make_world(world_cfg)
        world = worlds[world_cfg]
        # Other seeds' worlds are built for a source group and dropped after.
        source = trained("source", run, i, lambda member_worlds, cs, rs: train_source(
            [world if w == world_cfg else make_world(w) for w in member_worlds], cs, rs
        ))
        model = trained(
            "lstd", run, i, lambda _, cs, rs: lstd_finetune(source, world, cs, rs)
        )
        if cell.stage == "wstd":
            warmup = model
            model = trained(
                "wstd", run, i, lambda _, cs, rs: wstd_train(warmup, world, cs, rs)
            )
        models.append(model)
        reports[i].wall_clock = time.perf_counter() - started

    # One evaluation per (world, eval count), over every model evaluated on
    # those scenes; its time goes to the group's first cell.
    groups: dict[tuple, list[int]] = {}
    for i in range(len(cells)):
        groups.setdefault((world_cfgs[i], cfgs[i].eval_scenes), []).append(i)
    for (world_cfg, eval_count), members in groups.items():
        started = time.perf_counter()
        scenes = sample_scenes(
            worlds[world_cfg], "target", "full",
            substream(cfgs[members[0]].seed, "eval"), eval_count,
        )
        results = evaluate_model(
            [models[i] for i in members], scenes, [cells[i].classifier for i in members]
        )
        for i, (per_class, map_value) in zip(members, results):
            reports[i].set_result(per_class, map_value)
        reports[members[0]].wall_clock += time.perf_counter() - started
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
    if not seeds:
        raise ValueError("run_experiment needs at least one seed")
    overrides = overrides or {}
    started = time.perf_counter()
    runs = [_plan_seed(experiment, s, overrides) for s in seeds]
    models: dict = {}

    def trained(stage: str, run: _SeedRun, i: int, train) -> DetectorModel:
        """Cell i of ``run``'s model of ``stage``.  When it is not trained
        yet, it is trained in one lockstep group with every untrained model
        of ``stage`` that a cell of any seed needs and that shares its
        runner sibling key: one member per distinct cache key, whose curves
        go to the report of the first cell of the first seed that uses it.
        ``train(world_cfgs, cfgs, reports)`` trains the members."""
        cache_key, sibling_key = _RUNNER_KEYS[stage]
        key = (stage, run.world_cfgs[i], cache_key(run.cfgs[i]))
        if key not in models:
            sibling = sibling_key(run.world_cfgs[i], run.cfgs[i])
            group: dict = {}
            for other in runs:
                for j, cell in enumerate(experiment.cells):
                    world_cfg, cfg = other.world_cfgs[j], other.cfgs[j]
                    member_key = (stage, world_cfg, cache_key(cfg))
                    if (
                        (stage != "wstd" or cell.stage == "wstd")
                        and member_key not in models
                        and sibling_key(world_cfg, cfg) == sibling
                    ):
                        group.setdefault(member_key, (other, j))
            members = list(group.values())
            models.update(zip(group, train(
                [other.world_cfgs[j] for other, j in members],
                [other.cfgs[j] for other, j in members],
                [other.reports[j] for other, j in members],
            )))
        return models[key]

    per_seed = [_run_cells_for_seed(experiment, run, trained) for run in runs]

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
        "overrides": {k: str(v) for k, v in overrides.items()},
        "cells": [
            {
                "cell": c.cell_id,
                "stage": c.stage,
                "overrides": {k: str(v) for k, v in c.overrides},
                "world_overrides": {k: str(v) for k, v in c.world_overrides},
                "classifier": c.classifier,
            }
            for c in experiment.cells
        ],
        "outputs": [paths["runs"].name, paths["summary"].name],
        "wall_clock_seconds": time.perf_counter() - started,
    }
    paths["manifest"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return reports
