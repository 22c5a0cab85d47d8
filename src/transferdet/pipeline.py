"""Three-stage training orchestration and the experiment runner.

Stage one trains a fully supervised detector on the source domain.  Stage
two fine-tunes it on a handful of fully annotated target scenes with the
background and distillation regularizers, producing the warm-up detector.
Stage three trains the final detector on weakly annotated scenes, guided
by the frozen warm-up model and recurrent pseudo labelling.

Each training packs its scenes once into per-scene constants
(:class:`ScenePack`), pooling each scene's boxes once; both stages'
distillation teachers are :func:`~transferdet.model.extract_sdk` on those
means.  Weak pack arrays are read-only, so no training can change what
another reads.

Sibling trainings run in lockstep.  The cells of an ablation train, within
one seed, from the same packs, initial heads and scene order, and differ
only in loss coefficients or labeller settings.  :func:`lstd_finetune` and
:func:`wstd_train` take one :class:`StageConfig` per such member, stack the
members' parameters along a leading axis and train them with one Adam step
per scene for the whole group; per-member coefficients scale the stacked
gradients, and each member's slice is bit-identical to training it alone.
A single training is a one-member group.

Source trainings also run in lockstep across seeds.  Every seed follows
the same schedule (``source_epochs`` × ``source_scenes`` steps on worlds
that differ only in their seed), so :func:`train_source` takes one world
and one config per seed, stacks each member's packs once and gathers every
member's own scene at each step.

The experiment runner follows the procedure's order.  It plans one record
per (seed, cell) and builds each distinct world once.  Then it trains
stage by stage: every source, then every LSTD model, then every WSTD
model that a record needs.  Within a stage the models are grouped by the
stage's sibling key, one member per cache key, and each group is one
lockstep call, starting from the previous stage's model; an LSTD or WSTD
group stays within one seed and world, so its weak pack set is built
once.  A repeated seed trains nothing twice.  Evaluation comes last.

A training step does only the work that changes from step to step.  The
training keeps its parameters as views into one flat buffer and their
gradients as views into a second one of the same layout: each step's
scene loss writes every block's gradient into its view, and one in-place
Adam step per scene updates every block of every member (see
:mod:`transferdet.model`).  The loss components go into one preallocated
(steps, terms, members) array that becomes the reports' curves once, at
the end.  What stays fixed is built before the first step: the packs'
one-hot proposal targets and distillation targets with their column
mass, and the group's coefficients in their broadcast forms
(:class:`Members`).  Source scenes are drawn and packed in blocks.

A weak-stage step is one stacked pass over the recurrent classifier
stack.  The N classifiers of the M members are one (N, M, C+1, D+1)
parameter block, ``rol_heads``, laid out in the flat buffer as N
per-classifier blocks would be.  One head call scores every (classifier,
member) pair, one softmax (which the ROL loss shares) and one
:func:`~transferdet.labelling.label_rows` call mine the pseudo labels of
classifiers 2..N, and one head backward
gives every head's gradient.  The feature gradient adds the distillation
term, then classifiers 1, 2, ..., N in that order, so it is bit-identical
to looping over the classifiers.

Inference has one path.  :func:`detections` pools and overlaps each scene
once for all the models it is given, scores each model on all the scenes
in one stacked head call, suppresses every (model, class, scene) row in
one lockstep NMS and returns an iterator of one columnar
:class:`~transferdet.evaluation.Detections` per model, each built when it
is reached; :func:`detect` is its one-model, one-scene case.  The runner
evaluates once per (world, eval count), after every stage is trained; a
world config holds its seed.
:func:`evaluate_model` takes each distinct (model, classifier) to be
scored on those eval scenes once, and scores each one's detections with
:func:`~transferdet.evaluation.evaluate_detections`, the matcher the
``eval`` command uses, one model at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .evaluation import Detection, Detections, evaluate_detections, gt_table, mean_ap
from .geometry import BBox, box_corners, elementwise_iou, nms, pairwise_iou
from .labelling import (
    ROLConfig,
    label_rows,
    mine_support,  # noqa: F401  (perfbench/tracer.py wraps pipeline.mine_support)
    present_classes,
)
from .losses import (
    LossWeights,
    bd_loss,
    bd_mask,
    check_pseudo,
    check_score_matrix,
    image_multilabel_loss,
    proposal_cls_loss,
    proposal_targets,
    rol_classifier_loss,
    sdk_loss,
    sdk_target,
)
from .model import (
    AdamState,
    DetectorModel,
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
from .textfile import apply_overrides

LABELLERS = ("rol", "oicr")
INFERENCE_NMS_THRESHOLD = 0.5
PROPOSAL_LABEL_IOU = 0.5
MAX_CLASS_SCENE_DRAWS = 200000  # draws before collect_class_scenes gives up


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
    sdk_weighted: bool = False
    labeller: str = "rol"
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
    curves: dict[str, list[float]] = field(default_factory=dict)
    per_class_aps: list = field(default_factory=list)
    mean_ap: float | None = None

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
    and build what the losses would otherwise rebuild at every step: the
    one-hot proposal targets and the distillation target with its column
    mass.  The scene losses take them as they are.
    """

    raw_means: np.ndarray  # (K, D0) mean raw vector per proposal box
    raw_grid: np.ndarray | None = None
    targets: np.ndarray | None = None  # (C+1, K) one-hot full supervision
    background_mask: np.ndarray | None = None
    teacher: np.ndarray | None = None  # distillation teacher probabilities
    sdk: tuple[np.ndarray, np.ndarray] | None = None  # sdk_target of the teacher
    y_img: np.ndarray | None = None  # image-level labels, weak supervision
    iou: np.ndarray | None = None  # pairwise IoU of boxes, for the labeller
    present: np.ndarray | None = None  # indices of y_img's present classes


def block_labels(
    proposals: np.ndarray, scenes: Sequence[Scene], num_classes: int
) -> np.ndarray:
    """(S, K) integer class per proposal of S scenes, from their (S, K, 4)
    proposal corners: the class of its best-overlap GT box (the first on
    ties) when that overlap exceeds :data:`PROPOSAL_LABEL_IOU`, else the
    background index ``num_classes``.

    One :func:`~transferdet.geometry.elementwise_iou` call overlaps every
    proposal with its scene's row of the scenes'
    :func:`~transferdet.evaluation.gt_table`, each pair as ``pairwise_iou``
    would compute it.  The padding overlaps nothing and comes after the
    real boxes, so it wins no tie and every label is the scene's own.
    """
    gt, classes = gt_table([scene.gt for scene in scenes])
    overlaps = elementwise_iou(proposals[:, :, None, :], gt[:, None, :, :])
    return np.where(
        overlaps.max(axis=-1) > PROPOSAL_LABEL_IOU,
        np.take_along_axis(classes, overlaps.argmax(axis=-1), axis=-1),
        num_classes,
    )


def pack_lstd_scene(scene: Scene, world: World, source: DetectorModel) -> ScenePack:
    """One support scene's constants; the source model's distillation
    teacher scores the pack's own raw means, so the scene is pooled once."""
    cfg = world.config
    num_classes = cfg.classes_in("target")
    raw_means = pool_raw_means(scene.raw_grid, scene.proposals)
    teacher = check_score_matrix(extract_sdk(source, raw_means))
    labels = block_labels(scene.proposals[None], [scene], num_classes)[0]
    return ScenePack(
        raw_means=raw_means,
        raw_grid=scene.raw_grid,
        targets=proposal_targets(labels, num_classes + 1),
        background_mask=bd_mask(
            cfg.grid_height, cfg.grid_width, [b for _, b in scene.gt]
        ),
        teacher=teacher,
        sdk=sdk_target(teacher),
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
    corners: np.ndarray  # box_corners of the anchor boxes
    index: np.ndarray  # pooling_index of the boxes
    counts: np.ndarray
    iou: np.ndarray  # pairwise IoU of the boxes
    coexist: np.ndarray  # iou <= PROPOSAL_NMS_THRESHOLD


# Lattice geometry is scene independent, so the corners of its boxes, the
# cells each box pools over, their pairwise IoU and which pairs may coexist
# under proposal suppression are computed once per grid shape.
@functools.cache
def _anchor_lattice(height: int, width: int) -> _Lattice:
    boxes = anchor_boxes(height, width)
    iou = pairwise_iou(boxes)
    return _Lattice(
        box_corners(boxes),
        *pooling_index(height, width, boxes),
        iou,
        iou <= PROPOSAL_NMS_THRESHOLD,
    )


@dataclass(frozen=True)
class WarmupProposals:
    """The candidates :func:`warmup_proposals` keeps, with what it computed
    for them on the way: their pooled raw means and their pairwise IoU, so
    a caller takes them instead of pooling and overlapping again.  The
    candidates are the scene's proposals, then the anchor lattice of its
    grid.  Its length is the number of kept boxes."""

    raw_means: np.ndarray  # (n, D0) pooled raw mean per kept candidate
    iou: np.ndarray  # (n, n) pairwise IoU of the kept candidates
    keep: list[int]  # kept candidate indices, by descending objectness

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
    proposals = scene.proposals
    means = np.concatenate(
        [
            pool_raw_means(scene.raw_grid, proposals),
            pool_indexed_means(scene.raw_grid, lattice.index, lattice.counts),
        ]
    )
    objectness = 1.0 - pooled_probs(warmup.backbone, warmup.main_head, means)[-1, :]
    # Only the proposal columns are scene specific.  IoU is bitwise
    # symmetric, so their transpose and the cached anchor block complete
    # the candidates' may-coexist matrix, and the kept boxes' IoU block,
    # exactly; no full candidate IoU matrix is built.
    p = len(proposals)
    fresh = pairwise_iou(np.concatenate([proposals, lattice.corners]), proposals)
    clear = fresh <= PROPOSAL_NMS_THRESHOLD
    coexist = np.empty((len(fresh), len(fresh)), dtype=bool)
    coexist[:, :p] = clear
    coexist[:p, p:] = clear[p:].T
    coexist[p:, p:] = lattice.coexist
    keep = nms(objectness, coexist, PROPOSAL_NMS_THRESHOLD, max_keep)
    kept = np.array(keep)
    return WarmupProposals(means[kept], _kept_iou(fresh, lattice.iou, kept), keep)


def _kept_iou(
    fresh: np.ndarray, anchor_iou: np.ndarray, kept: np.ndarray
) -> np.ndarray:
    """The (n, n) IoU of the ``kept`` candidates, from ``fresh``, every
    candidate's IoU with the p proposals (the first p candidates), and
    ``anchor_iou``, the anchors' own; each entry is the one a full
    candidate matrix would hold."""
    p = fresh.shape[1]
    own = kept < p
    props, anchors = kept[own], kept[~own]
    iou = np.empty((len(kept), len(kept)))
    iou[:, own] = fresh[np.ix_(kept, props)]
    iou[np.ix_(own, ~own)] = fresh[np.ix_(anchors, props)].T
    iou[np.ix_(~own, ~own)] = anchor_iou[np.ix_(anchors - p, anchors - p)]
    return iou


def pack_wstd_scene(scene: Scene, warmup: DetectorModel) -> ScenePack:
    """Weak-scene constants; reads only raw grid, proposals, image label.

    The kept warm-up proposals' means and IoU block are what the warm-up
    step computed (pooling and IoU are per box and per pair, so they are
    bit-identical to pooling and overlapping the kept boxes afresh).  The
    teacher, the image label's length (one entry per target class of the
    warm-up's main head) and its present classes (at least one) are
    checked here, once; the labeller reads ``iou`` and ``present`` as they
    are.  A pack may be shared by several trainings, so its arrays are
    read-only.
    """
    y_img = np.array(scene.image_label, dtype=float)
    if y_img.shape != (len(warmup.main_head) - 1,):
        raise ValueError(
            f"image label of shape {y_img.shape} for "
            f"{len(warmup.main_head) - 1} target classes"
        )
    selection = warmup_proposals(warmup, scene, len(scene.proposals))
    pack = ScenePack(
        raw_means=selection.raw_means,
        teacher=check_score_matrix(extract_sdk(warmup, selection.raw_means)),
        y_img=y_img,
        iou=selection.iou,
        present=np.array(present_classes(y_img)),
    )
    for array in (pack.raw_means, pack.teacher, pack.y_img, pack.iou, pack.present):
        array.flags.writeable = False
    return pack


# --- per-scene losses (value + closed-form gradients) ------------------------
#
# Parameters carry a leading member axis: one slice per training of a
# lockstep group.  A loss with coefficients takes ``cfgs``, one StageConfig
# per slice (a plain sequence, or the group's :class:`Members` with its
# coefficients already gathered).
# Each loss writes the gradient of every parameter block into ``grads``,
# one array per block shaped like it (in training, views into the
# gradient buffer), and returns its components, one value per member.  A
# pack's targets and teacher were checked when it was built, and pinned
# pseudo labels are checked on entry, so the losses from
# :mod:`transferdet.losses` take them as they are.


@dataclass(frozen=True)
class Members:
    """The configs of a lockstep group, with their loss coefficients gathered.

    ``weight[term]`` holds each member's ``weights.lambda_<term>`` as an
    (M,) array, which scales the members' loss values, and ``scale[term]``
    its (M, 1, 1) broadcast form, which scales their stacked (M, rows, K)
    gradients (a term of weight 0 is off; the main proposal loss has unit
    weight).  The background term runs only on the members ``bd_active``
    indexes, those of positive weight, and ``bd_scale`` is their (A, 1, 1)
    coefficients.  The labeller settings are gathered the same way, one
    (M,) entry per member.  A stage builds them once per training, so its
    steps do not rebuild them.
    """

    cfgs: tuple[StageConfig, ...]
    weight: dict[str, np.ndarray]
    scale: dict[str, np.ndarray]
    bd_active: np.ndarray
    bd_scale: np.ndarray
    sdk_weighted: np.ndarray
    phi_obj: np.ndarray
    phi_bg: np.ndarray
    oicr: np.ndarray  # True where the member labels with OICR

    @classmethod
    def of(cls, cfgs: "Members | Sequence[StageConfig]") -> "Members":
        """The group of ``cfgs``; a Members comes back as it is."""
        if isinstance(cfgs, cls):
            return cfgs
        cfgs = tuple(cfgs)
        weight = {
            term: np.array([getattr(c.weights, f"lambda_{term}") for c in cfgs], float)
            for term in ("bd", "sdk", "wstd_sdk", "wstd_rol")
        }
        bd_active = np.flatnonzero(weight["bd"] > 0.0)
        return cls(
            cfgs=cfgs,
            weight=weight,
            scale={term: w[:, None, None] for term, w in weight.items()},
            bd_active=bd_active,
            bd_scale=weight["bd"][bd_active, None, None],
            sdk_weighted=np.array([c.sdk_weighted for c in cfgs], dtype=bool),
            phi_obj=np.array([c.rol.phi_obj for c in cfgs]),
            phi_bg=np.array([c.rol.phi_bg for c in cfgs]),
            oicr=np.array([c.labeller == "oicr" for c in cfgs]),
        )


def source_scene_loss(
    params: dict[str, np.ndarray], pack: ScenePack, grads: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Fully supervised proposal loss, which takes no coefficient.  The
    pack's raw means and targets are shared by every member, or hold one
    scene per member, stacked as (M, K, D0) and (M, C+1, K)."""
    features = pack.raw_means @ params["backbone"].transpose(0, 2, 1)
    logits = head_logits(params["main_head"], features)
    value, dlogits = proposal_cls_loss(logits, pack.targets)
    _, dfeatures = head_backward(
        params["main_head"], features, dlogits, out=grads["main_head"]
    )
    np.matmul(dfeatures.transpose(0, 2, 1), pack.raw_means, out=grads["backbone"])
    return {"total": value, "main": value}


def lstd_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfgs: Members | Sequence[StageConfig],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Warm-up fine-tuning loss: main + background + distillation terms.

    The background term is computed only for the members whose coefficient
    is positive; the others report exactly 0.0 for it.
    """
    members = Members.of(cfgs)
    weight = members.weight
    backbone = params["backbone"]
    features = pack.raw_means @ backbone.transpose(0, 2, 1)

    main_logits = head_logits(params["main_head"], features)
    main_val, dmain = proposal_cls_loss(main_logits, pack.targets)
    _, dfeatures = head_backward(
        params["main_head"], features, dmain, out=grads["main_head"]
    )

    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(*pack.sdk, sdk_logits)
    _, df_sdk = head_backward(
        params["sdk_head"], features, members.scale["sdk"] * dsdk,
        out=grads["sdk_head"],
    )
    dfeatures += df_sdk

    dbackbone = grads["backbone"]
    np.matmul(dfeatures.transpose(0, 2, 1), pack.raw_means, out=dbackbone)
    bd_val = np.zeros(len(members.cfgs))
    active = members.bd_active
    if active.size:
        feature_grid = np.einsum("bdo,hwo->bhwd", backbone[active], pack.raw_grid)
        bd_val[active], dgrid = bd_loss(feature_grid, pack.background_mask)
        dbackbone[active] += members.bd_scale * np.einsum(
            "bhwd,hwo->bdo", dgrid, pack.raw_grid
        )

    total = main_val + weight["bd"] * bd_val + weight["sdk"] * sdk_val
    return {"total": total, "main": main_val, "bd": bd_val, "sdk": sdk_val}


def wstd_scene_loss(
    params: dict[str, np.ndarray],
    pack: ScenePack,
    cfgs: Members | Sequence[StageConfig],
    grads: dict[str, np.ndarray],
    fixed_pseudo: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Weak-stage loss over all recurrent classifiers plus distillation;
    returns the components and the pseudo labels.

    ``params["rol_heads"]`` holds the N classifiers of the M members as one
    (N, M, C+1, D+1) block, and the whole stack runs as one pass: one
    :func:`head_logits` call gives (N, M, C+1, K) logits, one softmax
    scores all N classifiers, and one :func:`label_rows` call mines the
    pseudo labels of classifiers 2..N from the scores of 1..N-1, every
    (classifier, member) row with that member's labeller and ROL
    thresholds.  The labels are constants of the step (no gradient flows
    through them); passing ``fixed_pseudo``, an (N-1, M, C+1, K) array
    like the one returned, pins them explicitly, which the detachment
    tests use.  Classifier 1 takes :func:`image_multilabel_loss` and the
    rest one stacked :func:`rol_classifier_loss` on the same softmax (it
    is per column, so each slice equals its own softmax bit for bit); one
    :func:`head_backward` gives every head's gradient.  The feature
    gradient adds the distillation term, then heads 1, 2, ..., N in that
    order, as a per-classifier loop would, so the backbone gradient is
    bit-identical to one.  ``pack.sdk`` is the group's distillation target
    (:func:`wstd_group_pack`).
    """
    members = Members.of(cfgs)
    weight = members.weight
    features = pack.raw_means @ params["backbone"].transpose(0, 2, 1)

    sdk_logits = head_logits(params["sdk_head"], features)
    sdk_val, dsdk = sdk_loss(*pack.sdk, sdk_logits)
    _, dfeatures = head_backward(
        params["sdk_head"], features, members.scale["wstd_sdk"] * dsdk,
        out=grads["sdk_head"],
    )

    heads = params["rol_heads"]
    logits = head_logits(heads, features)
    probs = column_softmax(logits)
    if fixed_pseudo is None:
        pseudo = label_rows(
            probs[:-1], pack.iou, pack.present,
            members.phi_obj, members.phi_bg, members.oicr,
        )
    else:
        pseudo = check_pseudo(fixed_pseudo, probs[1:].shape)
    values = np.empty(logits.shape[:2])
    dlogits = np.empty_like(logits)
    values[0], dlogits[0] = image_multilabel_loss(logits[0], pack.y_img)
    values[1:], dlogits[1:] = rol_classifier_loss(probs[1:], pseudo)
    _, dheads = head_backward(
        heads, features, members.scale["wstd_rol"] * dlogits, out=grads["rol_heads"]
    )
    for dfeat in dheads:
        dfeatures += dfeat

    comps: dict[str, np.ndarray] = {"sdk": sdk_val}
    for i, value in enumerate(values):
        comps[f"rol_{i + 1}"] = value
    rol_sum = sum(values)
    comps["rol"] = rol_sum
    comps["total"] = weight["wstd_sdk"] * sdk_val + weight["wstd_rol"] * rol_sum
    np.matmul(dfeatures.transpose(0, 2, 1), pack.raw_means, out=grads["backbone"])
    return comps, pseudo


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
    loss_fn: Callable[[dict, dict, object], dict],
    order: np.ndarray,
    opt: OptimizerConfig,
    reports: Sequence[RunReport | None],
    prefix: str,
) -> dict[str, np.ndarray]:
    """Adam over per-scene losses; learning rate drops once at 2/3 of steps.

    Step s calls ``loss_fn(params, grads, order[s])``, which writes every
    block's gradient into ``grads`` and returns the loss components.
    ``params`` are stacked along the member axis and become views into one
    flat buffer, ``grads`` views into a second buffer of the same layout,
    and one in-place :func:`adam_step` per step updates the first from the
    second; the result is views into the parameter buffer.  The
    components go into one (steps, terms, members) array, and member m's
    become the ``<prefix>.<term>`` curves of ``reports[m]`` at the end,
    when that report is given.
    """
    layout = ParamLayout.of(params)
    buffer = layout.flatten(params)
    params = layout.views(buffer)
    gradient = np.zeros_like(buffer)
    grads = layout.views(gradient)
    state = AdamState.zeros(buffer.size)
    decay_at = (2 * len(order)) // 3
    curves = None
    for step, scene in enumerate(order):
        lr = opt.learning_rate
        if step >= decay_at:
            lr *= opt.lr_decay_factor
        try:
            comps = loss_fn(params, grads, scene)
            adam_step(buffer, gradient, state, opt, layout, lr)
        except ValueError as exc:
            raise ValueError(f"{prefix} training step {step}: {exc}") from exc
        if curves is None:
            curves = np.empty((len(order), len(comps), len(reports)))
        curves[step] = tuple(comps.values())
    if curves is not None:
        for member, report in enumerate(reports):
            if report is not None:
                for term, curve in zip(comps, curves[:, :, member].T.tolist()):
                    report.curves[f"{prefix}.{term}"] = curve
    return params


def collect_class_scenes(
    world: World, domain: str, mode: str, rng: np.random.Generator, per_class: int
) -> list[Scene]:
    """Sample scenes until every class appears in at least ``per_class`` of
    them; a drawn scene is kept only while some of its classes still need
    coverage."""
    num_classes = world.config.classes_in(domain)
    counts = np.zeros(num_classes, dtype=int)
    scenes: list[Scene] = []
    draws = 0
    while np.any(counts < per_class):
        if draws >= MAX_CLASS_SCENE_DRAWS:
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
# _STAGES is the one place that says which stage reads which field.  For
# each stage, in training order, it names the stage whose model it starts
# from, the fields its members must share (they decide the step sequence:
# seed, scenes, initialization, epochs) and the fields they may differ in
# (loss coefficients and labeller settings).  A stage reads its parent's
# fields too, and the source stage reads the seed only through its world.
# A config's sibling key for a stage is the parent's cache key plus the
# shared fields; its cache key adds the member fields, so two configs
# with equal cache keys train identical models on one world.
_STAGES = {
    "source": (None, ("source_scenes", "source_epochs", "optimizer"), ()),
    "lstd": (
        "source",
        ("seed", "shots_per_class", "lstd_epochs"),
        ("weights.lambda_bd", "weights.lambda_sdk"),
    ),
    "wstd": (
        "lstd",
        ("weak_scenes_per_class", "wstd_epochs", "rol.num_classifiers"),
        ("labeller", "sdk_weighted", "rol.phi_obj", "rol.phi_bg",
         "weights.lambda_wstd_sdk", "weights.lambda_wstd_rol"),
    ),
}


def _stage_key(stage: str, cfg: StageConfig, members: bool = True) -> tuple:
    """``cfg``'s cache key for ``stage``, or its sibling key when
    ``members`` is false."""
    parent, shared, member = _STAGES[stage]
    key = () if parent is None else _stage_key(parent, cfg)
    names = shared + member if members else shared
    return key + tuple(attrgetter(name)(cfg) for name in names)


def _group_key(stage: str, world_cfg: WorldConfig, cfg: StageConfig) -> tuple:
    """The key of the lockstep group a (world, config) member joins: the
    world but its seed, and the config's sibling key.  Source groups span
    seeds; from ``lstd`` on, the sibling key holds the config's seed,
    which the runner's worlds share."""
    return replace(world_cfg, seed=0), _stage_key(stage, cfg, members=False)


def _group(
    stage: str,
    cfgs: Sequence[StageConfig],
    reports: Sequence[RunReport | None] | None,
) -> tuple[Members, list[RunReport | None]]:
    """Validated members of a lockstep group of ``stage`` and one report
    slot each."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError(f"{stage} training needs at least one config")
    key = _stage_key(stage, cfgs[0], members=False)
    if any(_stage_key(stage, cfg, members=False) != key for cfg in cfgs[1:]):
        raise ValueError(
            f"{stage} configs are not siblings: they differ in a field that "
            "decides the step sequence"
        )
    reports = [None] * len(cfgs) if reports is None else list(reports)
    if len(reports) != len(cfgs):
        raise ValueError(
            f"{stage} training got {len(reports)} reports for {len(cfgs)} configs"
        )
    return Members.of(cfgs), reports


def _assemble(
    count: int,
    source_classes: int,
    params: dict[str, np.ndarray],
    **shared: np.ndarray,
) -> list[DetectorModel]:
    """The ``count`` models of a training, from its stacked ``params``.

    Member m's model holds a copy of its slice of each block in ``params``
    (slice ``[:, m]`` of the (N, M, C+1, D+1) ``rol_heads``, classifier
    first; slice ``[m]`` of the others) and a copy of each block in
    ``shared``, so no model views the training buffer.
    """

    def member(m: int) -> dict[str, np.ndarray]:
        blocks = {name: block.copy() for name, block in shared.items()}
        for name, block in params.items():
            blocks[name] = (block[:, m] if name == "rol_heads" else block[m]).copy()
        return blocks

    return [
        DetectorModel(**member(m), source_classes=source_classes) for m in range(count)
    ]


# Source scenes drawn and packed at a time.  The block's pooling gathers
# (scenes, K, cells per box, D0) floats, about 1 MB at K = 64 on the
# default grid; larger blocks pack no faster per scene.
SOURCE_PACK_BLOCK = 16


def _stacked_source_scenes(
    world: World, cfg: StageConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The raw means (N, K, D0) and one-hot targets (N, C+1, K) of
    ``cfg``'s source scenes.

    The scenes are drawn and packed a block at a time, the same draws as
    one ``sample_scenes`` call of N, so no block of scenes outlives its
    packing.  A block pools and labels all its scenes at once
    (:func:`~transferdet.model.pool_raw_means` on corner arrays,
    :func:`block_labels`), bit for bit as one scene at a time.
    """
    rng = substream(cfg.seed, "source", "scenes")
    num_classes = world.config.classes_in("source")

    def block(count: int) -> tuple[np.ndarray, np.ndarray]:
        scenes = sample_scenes(world, "source", "full", rng, count)
        corners = np.stack([scene.proposals for scene in scenes])
        grids = np.stack([scene.raw_grid for scene in scenes])
        labels = block_labels(corners, scenes, num_classes)
        return pool_raw_means(grids, corners), proposal_targets(labels, num_classes + 1)

    blocks = [
        block(min(SOURCE_PACK_BLOCK, cfg.source_scenes - start))
        for start in range(0, cfg.source_scenes, SOURCE_PACK_BLOCK)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def train_source(
    worlds: Sequence[World] | World,
    cfgs: Sequence[StageConfig] | StageConfig,
    reports: Sequence[RunReport | None] | RunReport | None = None,
) -> list[DetectorModel] | DetectorModel:
    """Fully supervised training on source-domain scenes.

    Every (world, config) pair is one member of a lockstep group, usually
    one per seed.  Each member draws its own initialization, scenes and
    step order from its config's seed, on its own world; the configs must
    share the ``source`` sibling key (:data:`_STAGES`) and the worlds every
    field but the seed, so that every member's scenes have the same
    proposal count (else ``ValueError``).  Each member's scenes are packed
    a block at a time and stacked once, and each step gathers every
    member's scene with one index.  Returns one model per member, and member m's
    loss curves go to ``reports[m]``.
    :func:`run_experiment` trains the sources of all its seeds that share
    a sibling key in one call.
    A single World and StageConfig (with a single report or None) train
    one model and return it unwrapped, as
    ``perfbench/workloads.build_fixtures`` calls it; that form goes with
    :func:`lstd_finetune`'s (ROADMAP item 1).
    """
    single = isinstance(cfgs, StageConfig)
    if single:
        worlds, cfgs, reports = [worlds], [cfgs], [reports]
    members, reports = _group("source", cfgs, reports)
    worlds = list(worlds)
    if len(worlds) != len(members.cfgs):
        raise ValueError(
            f"train_source got {len(worlds)} worlds for {len(members.cfgs)} configs"
        )
    keys = {_group_key("source", w.config, c) for w, c in zip(worlds, members.cfgs)}
    if len(keys) > 1:
        raise ValueError(
            "train_source worlds are not siblings: they differ in a field "
            "other than the seed"
        )
    num_classes = worlds[0].config.classes_in("source")
    dim = worlds[0].config.raw_dim
    backbones, heads, raw_means, targets, orders = [], [], [], [], []
    for world, cfg in zip(worlds, members.cfgs):
        init_rng = substream(cfg.seed, "source", "init")
        backbones.append(init_backbone(dim, init_rng))
        heads.append(init_head(num_classes, dim, init_rng))
        member_means, member_targets = _stacked_source_scenes(world, cfg)
        raw_means.append(member_means)
        targets.append(member_targets)
        orders.append(_step_order(
            substream(cfg.seed, "source", "order"), len(member_targets),
            cfg.source_epochs,
        ))
    # (M, N, K, D0) raw means and (M, N, C+1, K) targets; step s trains
    # member m on its scene orders[m][s].
    raw_means, targets = np.stack(raw_means), np.stack(targets)
    rows = np.arange(len(members.cfgs))

    def loss_fn(p, g, scene):
        pack = ScenePack(raw_means=raw_means[rows, scene], targets=targets[rows, scene])
        return source_scene_loss(p, pack, g)

    params = _train(
        {"backbone": np.stack(backbones), "main_head": np.stack(heads)},
        loss_fn, np.stack(orders, axis=1), members.cfgs[0].optimizer, reports,
        "source",
    )
    models = _assemble(len(rows), num_classes, params)
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
    share the ``lstd`` sibling key (:data:`_STAGES`; else ``ValueError``).
    Returns one model per config, and member m's loss curves go to
    ``reports[m]``.
    A single StageConfig (with a single report or None) trains one model
    and returns it unwrapped, as ``perfbench/workloads.build_fixtures``
    calls it; that form goes when the benchmark moves to the list form
    (ROADMAP item 1).
    """
    single = isinstance(cfgs, StageConfig)
    if single:
        cfgs, reports = [cfgs], [reports]
    members, reports = _group("lstd", cfgs, reports)
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
    sdk = init_head(num_source, dim, init_rng)
    support = collect_class_scenes(
        world, "target", "full", substream(cfg.seed, "lstd", "support"),
        cfg.shots_per_class,
    )
    packs = [pack_lstd_scene(s, world, source) for s in support]
    params = {
        "backbone": _stacked(source.backbone, count),
        "main_head": _stacked(main, count),
        "sdk_head": _stacked(sdk, count),
    }
    order = _step_order(
        substream(cfg.seed, "lstd", "order"), len(packs), cfg.lstd_epochs
    )
    params = _train(
        params, lambda p, g, i: lstd_scene_loss(p, packs[i], members, g), order,
        cfg.optimizer, reports, "lstd",
    )
    models = _assemble(count, num_source, params)
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
    return [pack_wstd_scene(s, warmup) for s in weak]


def wstd_group_pack(
    pack: ScenePack, cfgs: Members | Sequence[StageConfig]
) -> ScenePack:
    """A weak pack with the distillation target of a lockstep group: one
    :func:`~transferdet.losses.sdk_target` per member, the teacher or, for
    a member with ``sdk_weighted``, its square.  The group's steps share
    it, so no step rebuilds it."""
    return replace(pack, sdk=sdk_target(pack.teacher, Members.of(cfgs).sdk_weighted))


def wstd_train(
    warmup: DetectorModel,
    world: World,
    cfgs: Sequence[StageConfig],
    reports: Sequence[RunReport | None] | None = None,
) -> list[DetectorModel]:
    """Weakly supervised training guided by the frozen warm-up model.

    The warm-up supplies proposals and distillation targets; the student's
    recurrent classifiers start as copies of the warm-up head, the first
    trained from image labels, the rest from mined pseudo labels.  The
    backbone trains from the warm-up's, and the main head is the warm-up's.

    Every config in ``cfgs`` is one member of a lockstep group on the weak
    packs of ``pack_weak_scenes(warmup, world, cfgs[0])``; they must share
    the ``wstd`` sibling key (:data:`_STAGES`: the warm-up's cache key and
    the fields that decide the step sequence; else ``ValueError``), and may
    differ in its member fields; each pack takes the group's distillation
    target once (:func:`wstd_group_pack`).  The members' N recurrent
    classifiers train as one (N, M, C+1, D+1) parameter block,
    ``rol_heads``, after ``sdk_head`` and ``backbone`` in the flat buffer:
    classifier 1 of every member, then classifier 2, and so on.  Returns
    one student per config; member m's loss curves go to ``reports[m]``.
    """
    members, reports = _group("wstd", cfgs, reports)
    cfg = members.cfgs[0]
    if warmup.sdk_head is None:
        raise ValueError("wstd_train requires a warm-up model with an SDK branch")
    count = len(members.cfgs)
    params = {
        "sdk_head": _stacked(warmup.sdk_head, count),
        "backbone": _stacked(warmup.backbone, count),
        "rol_heads": _stacked(
            _stacked(warmup.main_head, count), cfg.rol.num_classifiers
        ),
    }
    packs = [
        wstd_group_pack(pack, members) for pack in pack_weak_scenes(warmup, world, cfg)
    ]
    order = _step_order(
        substream(cfg.seed, "wstd", "order"), len(packs), cfg.wstd_epochs
    )
    params = _train(
        params, lambda p, g, i: wstd_scene_loss(p, packs[i], members, g)[0],
        order, cfg.optimizer, reports, "wstd",
    )
    return _assemble(
        count, warmup.source_classes, params, main_head=warmup.main_head
    )


# --- inference and evaluation -----------------------------------------------


def _select_head(model: DetectorModel, classifier: int | None) -> np.ndarray:
    """Weights of recurrent classifier ``classifier`` (1-based), or of the
    default head: the last classifier, else the main head."""
    rol = len(model.rol_heads)
    if classifier is not None:
        if not rol:
            raise ValueError("model has no recurrent classifiers")
        if not (1 <= classifier <= rol):
            raise ValueError(f"classifier index {classifier} out of range")
        return model.rol_heads[classifier - 1]
    return model.rol_heads[-1] if rol else model.main_head


def detections(
    models: Sequence[DetectorModel],
    scenes: Sequence[Scene],
    classifiers: Sequence[int | None],
) -> Iterator[Detections]:
    """The detections of each model (with its selected classifier, None for
    the default head) on the scenes, one :class:`Detections` per model in
    order: per-class scores over each scene's proposals and greedy
    suppression at :data:`INFERENCE_NMS_THRESHOLD`.

    The inputs are checked, and every model is scored and suppressed, when
    it is called; the result is an iterator, and a model's rows are built
    only when it reaches that model.  The model-independent work runs once
    for all models: the scenes' proposals are pooled into one (S, K, D0)
    block, and their proposal IoU is computed once per scene.  One stacked
    head call per model scores all the scenes, and one lockstep
    :func:`~transferdet.geometry.nms` suppresses every (model, class,
    scene) row.  A model's rows run class by class, each class scene by
    scene and each scene by descending score; a row's scene id is its
    scene's position in ``scenes``.  The scenes must share one proposal
    count.
    """
    if len(classifiers) != len(models):
        raise ValueError(
            f"detections got {len(classifiers)} classifiers for {len(models)} models"
        )
    if not models:
        return iter(())
    if not scenes:
        raise ValueError("detections needs at least one scene")
    boxes = [scene.proposals for scene in scenes]
    count = len(boxes[0])
    if any(len(b) != count for b in boxes):
        raise ValueError("evaluation scenes differ in proposal count")
    raw_means = np.stack(
        [pool_raw_means(scene.raw_grid, b) for scene, b in zip(scenes, boxes)]
    )
    # Only one model's features, logits and softmax temporaries exist at a
    # time, so the evaluation's peak memory stays near one model's share.
    # Every matrix product stays one scene high: a product over all S*K
    # proposals at once is large enough for a threaded BLAS to split across
    # cores, which costs milliseconds per call on a busy machine.
    probs = np.stack([
        pooled_probs(m.backbone, _select_head(m, c), raw_means)
        for m, c in zip(models, classifiers)
    ]).transpose(0, 2, 1, 3)  # (M, S, C+1, K) as an (M, C+1, S, K) view
    if not np.isfinite(probs).all():
        raise ValueError("non-finite detection score")
    kept = nms(
        probs[:, :-1], np.stack([pairwise_iou(b) for b in boxes]),
        INFERENCE_NMS_THRESHOLD, count,
    )
    corners = np.stack(boxes)

    def rows(m: int) -> Detections:
        classes, scene_ids, rank = np.nonzero(kept[m] >= 0)
        k = kept[m][classes, scene_ids, rank]
        return Detections(
            scene_ids, classes, corners[scene_ids, k], probs[m, classes, scene_ids, k]
        )

    return map(rows, range(len(models)))


def detect(
    model: DetectorModel,
    scene: Scene,
    scene_id: int,
    classifier: int | None = None,
) -> list[Detection]:
    """:func:`detections` of one model on one scene, as :class:`Detection`
    objects with ``scene_id``: in class order, each class's by descending
    score."""
    (dets,) = detections([model], [scene], [classifier])
    return [
        Detection(scene_id, c, BBox(*box), score)
        for c, box, score in zip(
            dets.classes.tolist(), dets.boxes.tolist(), dets.scores.tolist()
        )
    ]


def evaluate_model(
    models: Sequence[DetectorModel],
    scenes: Sequence[Scene],
    classifiers: Sequence[int | None],
) -> list[tuple[list[float | None], float]]:
    """Per-class AP and mAP of each model (with its selected classifier,
    None for the default head) on the scenes against their full
    annotations: each model's :func:`detections` scored by
    :func:`~transferdet.evaluation.evaluate_detections`.  Each model's
    rows are scored and dropped before the next model's are built."""
    ground_truths = [scene.gt for scene in scenes]
    rows = detections(models, scenes, classifiers)
    return [
        evaluate_detections(next(rows), ground_truths, len(_select_head(m, c)) - 1)
        for m, c in zip(models, classifiers)
    ]


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
                base + (("weights.lambda_sdk", 0.0), ("weights.lambda_bd", 0.0)),
            ),
            ExperimentCell(
                f"ft_sdk_{shots}shot", "lstd", base + (("weights.lambda_bd", 0.0),)
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


@dataclass
class _Run:
    """One (seed, cell) of an experiment: its configs and its report."""

    cell: ExperimentCell
    cfg: StageConfig
    world_cfg: WorldConfig
    report: RunReport

    def key(self, stage: str) -> tuple:
        """The key of this run's model of ``stage``."""
        return (stage, self.world_cfg, _stage_key(stage, self.cfg))

    def evaluated(self) -> tuple:
        """The key of the model this run evaluates, and its classifier."""
        return self.key(self.cell.stage), self.cell.classifier


def _plan(
    experiment: Experiment, seeds: Sequence[int], overrides: dict[str, object]
) -> list[_Run]:
    """One run per (seed, cell), seed by seed, each cell's overrides over
    ``overrides``, which are applied once, before any world is built."""
    base = apply_overrides(StageConfig(), overrides)
    runs = []
    for seed in seeds:
        for cell in experiment.cells:
            cfg = replace(apply_overrides(base, dict(cell.overrides)), seed=seed)
            report = RunReport(
                seed=seed,
                stage=cell.stage,
                cell_id=cell.cell_id,
                shots=cfg.shots_per_class,
                weak_scenes=cfg.weak_scenes_per_class if cell.stage == "wstd" else 0,
                labeller=cfg.labeller,
                classifier=cell.classifier,
            )
            world_cfg = apply_overrides(WorldConfig(seed=seed), dict(cell.world_overrides))
            runs.append(_Run(cell, cfg, world_cfg, report))
    return runs


def _train_stage(
    stage: str,
    runs: Sequence[_Run],
    worlds: dict[WorldConfig, World],
    models: dict[tuple, DetectorModel],
) -> None:
    """Train every model of ``stage`` that ``runs`` need into ``models``.

    Every run needs a source and an LSTD model, and a ``wstd`` cell's run
    a WSTD model.  The models are grouped by :func:`_group_key`, one
    member per cache key, whose curves go to the report of the first run
    that needs it; each group is one lockstep call, from its parent model.
    """
    parent = _STAGES[stage][0]
    groups: dict[tuple, dict[tuple, _Run]] = {}
    for run in runs:
        if stage != "wstd" or run.cell.stage == "wstd":
            group = groups.setdefault(_group_key(stage, run.world_cfg, run.cfg), {})
            group.setdefault(run.key(stage), run)
    for group in groups.values():
        members = list(group.values())
        cfgs = [run.cfg for run in members]
        reports = [run.report for run in members]
        if stage == "source":
            trained = train_source(
                [worlds[run.world_cfg] for run in members], cfgs, reports
            )
        else:
            # looked up at call time: the benchmark tracer and tests wrap them
            train = lstd_finetune if stage == "lstd" else wstd_train
            first = members[0]
            trained = train(
                models[first.key(parent)], worlds[first.world_cfg], cfgs, reports
            )
        models.update(zip(group, trained))


def experiment_output_paths(name: str, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    return {
        "runs": out / f"{name}.csv",
        "summary": out / f"{name}_summary.csv",
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


def cell_maps(reports: Sequence[RunReport]) -> dict[str, np.ndarray]:
    """Each cell's mAPs, in report order, keyed by cell in first-seen order."""
    by_cell: dict[str, list[float]] = {}
    for r in reports:
        by_cell.setdefault(r.cell_id, []).append(r.mean_ap)
    return {cell_id: np.array(values) for cell_id, values in by_cell.items()}


def write_summary_csv(path, name: str, reports: Sequence[RunReport]) -> None:
    lines = ["experiment,cell,seeds,map_mean,map_std"]
    for cell_id, values in cell_maps(reports).items():
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
    per-run CSV and the per-cell summary CSV (:func:`experiment_output_paths`).
    Returns the reports cell by cell, each cell's seed by seed.  The
    ``experiment`` command records the run in its ``manifest.json``."""
    if name not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; registered: "
            + ", ".join(sorted(EXPERIMENTS))
        )
    experiment = EXPERIMENTS[name]
    seeds = tuple(experiment.default_seeds if seeds is None else seeds)
    if not seeds:
        raise ValueError("run_experiment needs at least one seed")
    runs = _plan(experiment, seeds, overrides or {})
    worlds = {w: make_world(w) for w in dict.fromkeys(run.world_cfg for run in runs)}
    models: dict[tuple, DetectorModel] = {}
    for stage in _STAGES:
        _train_stage(stage, runs, worlds, models)

    # One evaluation per (world, eval count), over every distinct (model,
    # classifier) evaluated on those scenes; runs that share one share its
    # result.
    evaluations: dict[tuple, list[_Run]] = {}
    for run in runs:
        evaluations.setdefault((run.world_cfg, run.cfg.eval_scenes), []).append(run)
    for (world_cfg, eval_count), members in evaluations.items():
        scenes = sample_scenes(
            worlds[world_cfg], "target", "full",
            substream(world_cfg.seed, "eval"), eval_count,
        )
        targets = list(dict.fromkeys(run.evaluated() for run in members))
        results = evaluate_model(
            [models[key] for key, _ in targets], scenes, [c for _, c in targets]
        )
        results = dict(zip(targets, results))
        for run in members:
            run.report.set_result(*results[run.evaluated()])

    # runs are seed by seed, the reports cell by cell
    cells = len(experiment.cells)
    reports = [run.report for i in range(cells) for run in runs[i::cells]]

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = experiment_output_paths(name, out_dir)
    write_experiment_csv(paths["runs"], name, reports)
    write_summary_csv(paths["summary"], name, reports)
    return reports
