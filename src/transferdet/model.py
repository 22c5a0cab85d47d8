"""The differentiable detector stand-in.

A per-cell linear map (the backbone) turns raw observation vectors into
feature vectors; proposals are mean-pooled over the cells their box covers;
linear heads score pooled features per class.  Because pooling is a mean
and the backbone is linear, pooling the raw grid and then applying the
backbone equals pooling the feature grid, so training pools raw means once
per scene (:func:`pool_raw_means`) and only the heads and the map act per
step (:func:`head_logits`, :func:`head_backward`).  Everything is linear up
to the loss, so every gradient used in training is closed form and checked
against finite differences.

ROI pooling is one batched gather: :func:`pooling_index` turns boxes into
a padded matrix of cell indices, which depends only on the grid shape and
may be cached, and :func:`pool_indexed_means` averages the gathered rows
bit-identically to a per-box ``mean``.

Sibling trainings (the same scenes, initialization and step order, other
loss coefficients) run in lockstep: their parameters are stacked along a
leading member axis, the head functions act on every member at once, and
:func:`adam_step` is elementwise, so one step updates the whole stack.
Each member's slice equals what the 2-D functions give on that member.

A training keeps all its parameter blocks as views into one contiguous
float64 buffer (:class:`ParamLayout`), with Adam's moments as flat buffers
of the same length.  Each step joins the blocks' gradients in buffer order
and runs :func:`adam_step` once over the whole buffer, with one finiteness
scan; being elementwise, that equals a step per block bit for bit.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BBox, cell_centers, coverage_masks
from .numerics import column_softmax

HEAD_ROLES = ("main", "sdk_branch", "rol_classifier")


@dataclass
class Backbone:
    """Per-cell linear transform: raw cell vector (D0) -> feature vector (D)."""

    map: np.ndarray  # (feature_dim, raw_dim)

    def __post_init__(self):
        self.map = np.asarray(self.map, dtype=float)
        if self.map.ndim != 2 or not np.all(np.isfinite(self.map)):
            raise ValueError("backbone map must be a finite 2-D matrix")

    @property
    def feature_dim(self) -> int:
        return self.map.shape[0]

    @property
    def raw_dim(self) -> int:
        return self.map.shape[1]


@dataclass
class Head:
    """Linear classifier over pooled features, last weight column the bias."""

    weights: np.ndarray  # (num_classes + 1, feature_dim + 1)
    role: str = "main"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 or not np.all(np.isfinite(self.weights)):
            raise ValueError("head weights must be a finite 2-D matrix")
        if self.role not in HEAD_ROLES:
            raise ValueError(f"unknown head role {self.role!r}")

    @property
    def num_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1] - 1


@dataclass
class DetectorModel:
    """Backbone plus heads; which heads exist depends on the training stage."""

    backbone: Backbone
    main_head: Head
    sdk_head: Head | None = None
    rol_heads: list[Head] = field(default_factory=list)
    source_classes: int = 0  # class count of the source domain this model knows

    def __post_init__(self):
        for head in self.all_heads():
            if head.feature_dim != self.backbone.feature_dim:
                raise ValueError(
                    f"head feature dim {head.feature_dim} != backbone "
                    f"feature dim {self.backbone.feature_dim}"
                )
        if self.sdk_head is not None and self.source_classes > 0:
            if self.sdk_head.num_rows != self.source_classes + 1:
                raise ValueError("sdk head rows inconsistent with source class count")

    def all_heads(self) -> list[Head]:
        heads = [self.main_head]
        if self.sdk_head is not None:
            heads.append(self.sdk_head)
        heads.extend(self.rol_heads)
        return heads

    def source_knowledge_head(self) -> Head:
        """The head emitting source-class distributions for distillation."""
        if self.sdk_head is not None:
            return self.sdk_head
        if self.source_classes > 0 and self.main_head.num_rows == self.source_classes + 1:
            return self.main_head
        raise ValueError("model has no head over the source classes")

    def copy(self) -> "DetectorModel":
        return copy.deepcopy(self)


# Feature amplification at init.  Adam moves each weight coordinate by at
# most lr per step, so within a fixed step budget the reachable logit
# scale is proportional to feature magnitude; the gain buys head
# confidence that small learning rates could not otherwise reach.
FEATURE_GAIN = 6.0


def init_backbone(
    raw_dim: int, feature_dim: int, rng: np.random.Generator
) -> Backbone:
    """Random orthogonal map scaled by FEATURE_GAIN.

    Orthogonality preserves the geometry of the raw observations exactly;
    a plain Gaussian map would shrink some directions and dilate others.
    """
    draw = rng.standard_normal((feature_dim, raw_dim))
    if feature_dim <= raw_dim:
        q, r = np.linalg.qr(draw.T)
        omap = (q * np.sign(np.diag(r))).T
    else:
        q, r = np.linalg.qr(draw)
        omap = q * np.sign(np.diag(r))
    return Backbone(map=FEATURE_GAIN * omap)


def init_head(
    num_classes: int, feature_dim: int, rng: np.random.Generator, role: str = "main"
) -> Head:
    return Head(
        weights=0.01 * rng.standard_normal((num_classes + 1, feature_dim + 1)),
        role=role,
    )


# --- forward / backward ------------------------------------------------------


def pooling_index(
    height: int, width: int, boxes: Sequence[BBox]
) -> tuple[np.ndarray, np.ndarray]:
    """The cells each box pools over, as a padded (K, n_max) index matrix.

    Row k lists, in ascending order, the flat indices of the cells whose
    center box k covers, padded with ``height * width`` (one past the last
    cell); ``counts[k]`` is the number of real entries.  A box covering no
    cell center pools the single cell whose center is nearest its own.
    """
    cells = height * width
    masks = coverage_masks(height, width, boxes).reshape(-1, cells)
    counts = masks.sum(axis=1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        xs, ys = cell_centers(height, width)
        coords = np.array([boxes[k].as_tuple() for k in empty])
        cx = 0.5 * (coords[:, 0] + coords[:, 2])
        cy = 0.5 * (coords[:, 1] + coords[:, 3])
        d2 = (ys[None, :, None] - cy[:, None, None]) ** 2 + (
            xs[None, None, :] - cx[:, None, None]
        ) ** 2
        masks[empty, np.argmin(d2.reshape(empty.size, cells), axis=1)] = True
        counts[empty] = 1
    n_max = int(counts.max(initial=0))
    # A stable sort of the complement puts each row's covered cells first,
    # in ascending order.
    first = np.argsort(~masks, axis=1, kind="stable")[:, :n_max]
    index = np.where(np.arange(n_max)[None, :] < counts[:, None], first, cells)
    return index, counts


def pool_indexed_means(
    raw_grid: np.ndarray, index: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Mean raw cell vector per row of a :func:`pooling_index` result, (K, D0).

    The padding index gathers a zero row.  Summing the gathered rows in
    order along axis 1 adds the cells in the order ``mean(axis=0)`` over
    the covered cells would, and adding exact zeros changes no sum, so the
    means are bit-identical to per-box means.
    """
    height, width, dim = raw_grid.shape
    padded = np.vstack([raw_grid.reshape(height * width, dim), np.zeros((1, dim))])
    return padded[index].sum(axis=1) / counts[:, None]


def pool_raw_means(raw_grid: np.ndarray, boxes: Sequence[BBox]) -> np.ndarray:
    """ROI pooling: the mean raw cell vector under each box, (K, D0)."""
    height, width, _ = raw_grid.shape
    return pool_indexed_means(raw_grid, *pooling_index(height, width, boxes))


def head_logits(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(C+1) x K logits of a head (last weight column the bias) on (K, D) features.

    With a leading member axis, (M, C+1, D+1) weights on (M, K, D) or
    shared (K, D) features give (M, C+1, K) logits, each member's slice
    bit-identical to the 2-D call on its own weights and features.
    """
    return weights[..., :-1] @ features.swapaxes(-1, -2) + weights[..., -1:]


def head_backward(
    weights: np.ndarray, features: np.ndarray, dlogits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a loss with respect to head weights and pooled features.

    ``dlogits`` is the loss gradient at the head's logit matrix.  Arguments
    may carry a leading member axis, as in :func:`head_logits`.
    """
    dweights = np.empty_like(weights)
    dweights[..., :-1] = dlogits @ features
    dweights[..., -1] = dlogits.sum(axis=-1)
    return dweights, dlogits.swapaxes(-1, -2) @ weights[..., :-1]


# --- optimizer --------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 1e-4
    lr_decay_factor: float = 0.1
    epsilon: float = 1e-8

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "lr_decay_factor", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


@dataclass(frozen=True)
class ParamLayout:
    """Where each named parameter block lies in one flat buffer.

    Blocks follow each other in ``names`` order, each raveled in C order;
    block i ends at ``stops[i]``.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    stops: tuple[int, ...]

    @classmethod
    def of(cls, blocks: dict[str, np.ndarray]) -> "ParamLayout":
        names = tuple(blocks)
        shapes = tuple(blocks[name].shape for name in names)
        stops = tuple(itertools.accumulate(int(np.prod(shape)) for shape in shapes))
        return cls(names, shapes, stops)

    def flatten(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        """The blocks joined into one new buffer, in layout order."""
        return np.concatenate([blocks[name] for name in self.names], axis=None)

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Each block as a view into ``buffer``, shaped like the original."""
        starts = (0,) + self.stops[:-1]
        blocks = zip(self.names, self.shapes, starts, self.stops)
        return {
            name: buffer[start:stop].reshape(shape)
            for name, shape, start, stop in blocks
        }

    def block_at(self, index: int) -> str:
        """The name of the block holding flat position ``index``."""
        return self.names[int(np.searchsorted(self.stops, index, side="right"))]


@dataclass
class AdamState:
    """First/second moment accumulators, flat like the parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    cfg: OptimizerConfig,
    layout: ParamLayout,
    learning_rate: float | None = None,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of a flat buffer; pure (inputs are
    not mutated).

    Weight decay enters as an additive gradient term.  ``learning_rate``
    overrides the config rate so callers can apply decay schedules.  Every
    operation is elementwise, so one step over a buffer of several blocks
    equals a step per block.  A non-finite gradient raises ``ValueError``
    naming its block in ``layout``.
    """
    if not np.isfinite(grads).all():
        index = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise ValueError(
            f"non-finite gradient in parameter block {layout.block_at(index)!r}"
        )
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    t = state.step + 1
    g = grads + cfg.weight_decay * params
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new_params, AdamState(m=m, v=v, step=t)


# --- distillation targets ---------------------------------------------------


def pooled_probs(backbone: Backbone, head: Head, raw_means: np.ndarray) -> np.ndarray:
    """(C+1) x K class probabilities of a head over K pooled raw means."""
    return column_softmax(head_logits(head.weights, raw_means @ backbone.map.T))


def extract_sdk(
    teacher: DetectorModel, raw_grid: np.ndarray, proposals: Sequence[BBox]
) -> np.ndarray:
    """Per-proposal source-class distributions from a frozen teacher.

    Pools with the teacher's backbone, scores with its source-knowledge
    head, and returns softmax probabilities.  Depends on the teacher only
    through its logits; nothing here propagates gradients back.
    """
    head = teacher.source_knowledge_head()
    return pooled_probs(teacher.backbone, head, pool_raw_means(raw_grid, list(proposals)))


# --- checkpoints ------------------------------------------------------------

CHECKPOINT_MAGIC = "# transferdet checkpoint v1"


def save_model(path, model: DetectorModel, seed: int | None = None) -> None:
    """Structured-text checkpoint; floats via repr() for exact round-trips."""
    lines = [CHECKPOINT_MAGIC]
    if seed is not None:
        lines.append(f"seed {seed}")
    lines.append(f"source_classes {model.source_classes}")

    def block(name: str, matrix: np.ndarray, role: str | None = None):
        suffix = f" role {role}" if role else ""
        lines.append(f"block {name} shape {matrix.shape[0]} {matrix.shape[1]}{suffix}")
        for row in matrix.tolist():
            lines.append("row " + " ".join(map(repr, row)))

    block("backbone", model.backbone.map)
    block("main_head", model.main_head.weights, model.main_head.role)
    if model.sdk_head is not None:
        block("sdk_head", model.sdk_head.weights, model.sdk_head.role)
    for i, head in enumerate(model.rol_heads):
        block(f"rol_head_{i}", head.weights, head.role)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> DetectorModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    source_classes = 0
    blocks: dict[str, tuple[np.ndarray, str | None]] = {}
    current: list[list[float]] = []
    name = None
    rows = cols = 0
    role: str | None = None

    def close():
        if name is None:
            return
        if len(current) != rows or any(len(row) != cols for row in current):
            raise ValueError(f"block {name} does not match its shape {rows} {cols}")
        blocks[name] = (np.array(current), role)

    for ln in lines[1:]:
        if ln.startswith("source_classes "):
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed line {ln!r}")
            source_classes = int(parts[1])
        elif ln.startswith("block "):
            close()
            # block <name> shape <rows> <cols> [role <role>]
            parts = ln.split()
            if len(parts) not in (5, 7) or parts[2] != "shape":
                raise ValueError(f"malformed block header {ln!r}")
            name, rows, cols = parts[1], int(parts[3]), int(parts[4])
            role = parts[6] if len(parts) == 7 else None
            current = []
        elif ln.startswith("row "):
            current.append([float(v) for v in ln.split()[1:]])
    close()

    if "backbone" not in blocks or "main_head" not in blocks:
        raise ValueError("checkpoint missing backbone or main head")
    main_w, main_role = blocks["main_head"]
    sdk = None
    if "sdk_head" in blocks:
        sdk_w, sdk_role = blocks["sdk_head"]
        sdk = Head(weights=sdk_w, role=sdk_role or "sdk_branch")
    rol = []
    for i in range(len(blocks)):
        key = f"rol_head_{i}"
        if key not in blocks:
            break
        w, r = blocks[key]
        rol.append(Head(weights=w, role=r or "rol_classifier"))
    return DetectorModel(
        backbone=Backbone(map=blocks["backbone"][0]),
        main_head=Head(weights=main_w, role=main_role or "main"),
        sdk_head=sdk,
        rol_heads=rol,
        source_classes=source_classes,
    )
