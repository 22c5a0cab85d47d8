"""The differentiable detector stand-in.

A per-cell linear map (the backbone) turns raw observation vectors into
feature vectors; proposals are mean-pooled over the cells their box covers;
linear heads score pooled features per class.  A :class:`DetectorModel` is
its parameter blocks as plain arrays, named as a training names them:
``backbone``, ``main_head``, ``sdk_head`` and the stacked ``rol_heads``.
Because pooling is a mean and the backbone is linear, pooling the raw
grid and then applying the backbone equals pooling the feature grid, so
training pools raw means once per scene (:func:`pool_raw_means`) and only
the heads and the map act per step (:func:`head_logits`,
:func:`head_backward`).  Everything is linear up to the loss, so every
gradient used in training is closed form and checked against finite
differences.

ROI pooling is one batched gather: :func:`pooling_index` turns boxes into
a padded matrix of cell indices, which depends only on the grid shape and
may be cached, and :func:`pool_indexed_means` averages the gathered rows
bit-identically to a per-box ``mean``.  Both take a leading scene axis, so
a block of scenes pools in one gather; :func:`pool_raw_means` is the
same code on one scene's boxes.  :func:`extract_sdk`, the distillation
teacher of LSTD and WSTD, scores means already pooled.

Sibling trainings (the same scenes, initialization and step order, other
loss coefficients) run in lockstep: their parameters are stacked along a
leading member axis, the head functions act on every member at once, and
:func:`adam_step` is elementwise, so one step updates the whole stack.
Each member's slice equals what the 2-D functions give on that member.

A training keeps all its parameter blocks as views into one contiguous
float64 buffer (:class:`ParamLayout`), its gradients as views into a
second buffer of the same layout, and Adam's moments as flat buffers of
the same length.  Each step's losses write every block's gradient into its
view (:func:`head_backward` takes an ``out=`` view for a head's weights),
and :func:`adam_step` updates the parameter buffer and the moments in
place, once over the whole buffer, with one finiteness scan; being
elementwise, that equals a step per block bit for bit.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BBox, box_corners, cell_centers, coverage_masks
from .numerics import column_softmax
from .textfile import named_decode_errors


def _matrix(array, what: str) -> np.ndarray:
    """``array`` as a float matrix; ValueError unless it is 2-D and finite."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2 or not np.isfinite(array).all():
        raise ValueError(f"{what} must be a finite 2-D matrix")
    return array


@dataclass
class DetectorModel:
    """A detector's parameter blocks; which heads exist depends on the
    training stage.  A head's last column is its bias."""

    backbone: np.ndarray  # (D, D0)
    main_head: np.ndarray  # (C+1, D+1)
    sdk_head: np.ndarray | None = None  # (S+1, D+1)
    rol_heads: np.ndarray = ()  # (N, C+1, D+1); N = 0 before WSTD
    source_classes: int = 0  # class count of the source domain this model knows

    def __post_init__(self):
        self.backbone = _matrix(self.backbone, "backbone map")
        self.main_head = _matrix(self.main_head, "head weights")
        if self.sdk_head is not None:
            self.sdk_head = _matrix(self.sdk_head, "head weights")
        if len(self.rol_heads) == 0:
            self.rol_heads = np.empty((0, *self.main_head.shape))
        self.rol_heads = np.asarray(self.rol_heads, dtype=float)
        if self.rol_heads.ndim != 3 or not np.isfinite(self.rol_heads).all():
            raise ValueError("rol heads must be a finite 3-D array")
        dim = len(self.backbone)
        for head in (self.main_head, self.sdk_head, self.rol_heads):
            if head is not None and head.shape[-1] - 1 != dim:
                raise ValueError(
                    f"head feature dim {head.shape[-1] - 1} != backbone "
                    f"feature dim {dim}"
                )
        if self.sdk_head is not None and self.source_classes > 0:
            if len(self.sdk_head) != self.source_classes + 1:
                raise ValueError("sdk head rows inconsistent with source class count")

    def source_knowledge_head(self) -> np.ndarray:
        """The head emitting source-class distributions for distillation."""
        if self.sdk_head is not None:
            return self.sdk_head
        if self.source_classes > 0 and len(self.main_head) == self.source_classes + 1:
            return self.main_head
        raise ValueError("model has no head over the source classes")


# Feature amplification at init.  Adam moves each weight coordinate by at
# most lr per step, so within a fixed step budget the reachable logit
# scale is proportional to feature magnitude; the gain buys head
# confidence that small learning rates could not otherwise reach.
FEATURE_GAIN = 6.0


def init_backbone(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random ``dim`` x ``dim`` orthogonal map scaled by FEATURE_GAIN.

    Orthogonality preserves the geometry of the raw observations exactly;
    a plain Gaussian map would shrink some directions and dilate others.
    """
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)).T)
    return FEATURE_GAIN * (q * np.sign(np.diag(r))).T


def init_head(
    num_classes: int, feature_dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Small random (num_classes + 1, feature_dim + 1) head weights."""
    return 0.01 * rng.standard_normal((num_classes + 1, feature_dim + 1))


# --- forward / backward ------------------------------------------------------


def pooling_index(
    height: int, width: int, boxes: Sequence[BBox] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cells each box pools over, as a padded (..., K, n_max) index array.

    ``boxes`` is a box sequence or a (..., K, 4) array of corner rows, so a
    leading scene axis indexes a block of scenes at once.  Row k lists, in
    ascending order, the flat indices of the cells whose center box k
    covers, padded with ``height * width`` (one past the last cell);
    ``counts[..., k]`` is the number of real entries, and n_max is the
    largest count of the whole array.  A box covering no cell center pools
    the single cell whose center is nearest its own.
    """
    corners = boxes if isinstance(boxes, np.ndarray) else box_corners(boxes)
    coords = corners.reshape(-1, 4)
    cells = height * width
    masks = coverage_masks(height, width, coords).reshape(-1, cells)
    counts = masks.sum(axis=1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        xs, ys = cell_centers(height, width)
        cx = 0.5 * (coords[empty, 0] + coords[empty, 2])
        cy = 0.5 * (coords[empty, 1] + coords[empty, 3])
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
    shape = corners.shape[:-1]
    return index.reshape(shape + (n_max,)), counts.reshape(shape)


def pool_indexed_means(
    raw_grid: np.ndarray, index: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Mean raw cell vector per row of a :func:`pooling_index` result,
    (..., K, D0).

    ``raw_grid`` is one (H, W, D0) grid, or a (S, H, W, D0) block of grids
    whose scene axis leads ``index`` and ``counts`` too.  The padding index
    gathers a zero row.  Summing the gathered rows in order adds the cells
    in the order ``mean(axis=0)`` over the covered cells would, and adding
    exact zeros changes no sum, so the means are bit-identical to per-box
    means, however far a block pads its rows.
    """
    *scenes, height, width, dim = raw_grid.shape
    table = np.concatenate(
        [raw_grid.reshape(*scenes, height * width, dim), np.zeros((*scenes, 1, dim))],
        axis=-2,
    ).reshape(-1, dim)
    # scene s's rows start at row s * (H * W + 1) of the table
    starts = np.arange(0, len(table), height * width + 1).reshape(*scenes, 1, 1)
    return table[index + starts].sum(axis=-2) / counts[..., None]


def pool_raw_means(
    raw_grid: np.ndarray, boxes: Sequence[BBox] | np.ndarray
) -> np.ndarray:
    """ROI pooling: the mean raw cell vector under each box, (..., K, D0),
    of one grid or, with corner arrays, of a block of scenes."""
    height, width, _ = raw_grid.shape[-3:]
    return pool_indexed_means(raw_grid, *pooling_index(height, width, boxes))


def head_logits(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(C+1) x K logits of a head (last weight column the bias) on (K, D) features.

    With a leading member axis, (M, C+1, D+1) weights on (M, K, D) or
    shared (K, D) features give (M, C+1, K) logits, each member's slice
    bit-identical to the 2-D call on its own weights and features.
    """
    logits = weights[..., :-1] @ features.swapaxes(-1, -2)
    logits += weights[..., -1:]
    return logits


def head_backward(
    weights: np.ndarray,
    features: np.ndarray,
    dlogits: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a loss with respect to head weights and pooled features.

    ``dlogits`` is the loss gradient at the head's logit matrix.  Arguments
    may carry a leading member axis, as in :func:`head_logits`.  The weight
    gradient is written into ``out`` when it is given (a training passes its
    gradient buffer's view of the head), else into a new array.
    """
    dweights = np.empty_like(weights) if out is None else out
    np.matmul(dlogits, features, out=dweights[..., :-1])
    np.add.reduce(dlogits, axis=-1, out=dweights[..., -1])
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
    """First/second moment accumulators, flat like the parameter buffer,
    and two scratch buffers of that length for :func:`adam_step`."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

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
) -> None:
    """One bias-corrected Adam update of a flat buffer, in place: ``params``
    and ``state``'s moments and step count are updated, ``grads`` is only
    read, and the state's scratch buffers hold the temporaries.

    Weight decay enters as an additive gradient term.  ``learning_rate``
    overrides the config rate so callers can apply decay schedules.  The
    operations are those of the textbook update, in its order, so the bits
    are too.  Every operation is elementwise, so one step over a buffer of
    several blocks equals a step per block.  A non-finite gradient raises
    ``ValueError`` naming its block in ``layout``, before anything is
    written.
    """
    if not np.isfinite(grads).all():
        index = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise ValueError(
            f"non-finite gradient in parameter block {layout.block_at(index)!r}"
        )
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    state.step += 1
    t = state.step
    g, tmp = state.scratch
    m, v = state.m, state.v
    # g = grads + weight_decay * params
    np.multiply(cfg.weight_decay, params, out=g)
    np.add(grads, g, out=g)
    # m = beta1 * m + (1 - beta1) * g
    np.multiply(cfg.beta1, m, out=m)
    np.multiply(1.0 - cfg.beta1, g, out=tmp)
    np.add(m, tmp, out=m)
    # v = beta2 * v + (1 - beta2) * g * g
    np.multiply(cfg.beta2, v, out=v)
    np.multiply(1.0 - cfg.beta2, g, out=tmp)
    np.multiply(tmp, g, out=tmp)
    np.add(v, tmp, out=v)
    # params -= lr * m_hat / (sqrt(v_hat) + epsilon)
    m_hat, v_hat = g, tmp
    np.divide(m, 1.0 - cfg.beta1**t, out=m_hat)
    np.divide(v, 1.0 - cfg.beta2**t, out=v_hat)
    np.sqrt(v_hat, out=v_hat)
    np.add(v_hat, cfg.epsilon, out=v_hat)
    np.multiply(lr, m_hat, out=m_hat)
    np.divide(m_hat, v_hat, out=m_hat)
    np.subtract(params, m_hat, out=params)


# --- distillation targets ---------------------------------------------------


def pooled_probs(
    backbone: np.ndarray, head: np.ndarray, raw_means: np.ndarray
) -> np.ndarray:
    """(C+1) x K class probabilities of a head over K pooled raw means."""
    return column_softmax(head_logits(head, raw_means @ backbone.T))


def extract_sdk(teacher: DetectorModel, raw_means: np.ndarray) -> np.ndarray:
    """(C+1) x K source-class probabilities of a frozen teacher's
    source-knowledge head over K pooled raw means.  Depends on the teacher
    only through its logits; nothing here propagates gradients back."""
    return pooled_probs(teacher.backbone, teacher.source_knowledge_head(), raw_means)


# --- checkpoints ------------------------------------------------------------

CHECKPOINT_MAGIC = "# transferdet checkpoint v1"

# The role words a head's block header may carry.  ``save_model`` writes
# the one its slot fixes: ``main`` on main_head, ``sdk_branch`` on
# sdk_head and ``rol_classifier`` on each rol_head.
HEAD_ROLES = ("main", "sdk_branch", "rol_classifier")


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

    block("backbone", model.backbone)
    block("main_head", model.main_head, "main")
    if model.sdk_head is not None:
        block("sdk_head", model.sdk_head, "sdk_branch")
    for i, head in enumerate(model.rol_heads):
        block(f"rol_head_{i}", head, "rol_classifier")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Block names a checkpoint may hold; ROL heads are numbered from 0 up.
_BLOCK_NAME = re.compile(r"backbone|main_head|sdk_head|rol_head_(0|[1-9][0-9]*)")


def load_model(path) -> DetectorModel:
    """The model :func:`save_model` wrote to ``path``.

    A head's role word is checked against :data:`HEAD_ROLES` but not kept:
    the slot a block fills decides what the head is.

    Raises ValueError for a file without the magic line, and, naming the
    1-based line, for a line of unknown kind, a repeated ``seed`` or
    ``source_classes`` line, a malformed value or block header, an
    unknown or repeated block name, a head's unknown role word, a ``row``
    before the first block, a block whose rows do not match its shape,
    ROL heads that are not numbered contiguously from 0 or are ragged (a
    shape other than rol_head_0's) and the first line that is not text;
    and, naming its header line, for a block with a non-finite value.
    """
    with named_decode_errors(path), open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    header: dict[str, int] = {}  # the seed and source_classes lines
    shapes: dict[str, tuple] = {}  # name: (header line, rows, cols)
    values: dict[str, list[list[float]]] = {}  # name: its rows
    for number, ln in enumerate(lines[1:], start=2):
        kind, *words = ln.split() or [None]
        try:
            if kind in ("seed", "source_classes"):
                if kind in header:
                    raise ValueError(f"repeated {kind!r} line")
                if len(words) != 1:
                    raise ValueError(f"malformed line {ln!r}")
                header[kind] = int(words[0])
            elif kind == "block":
                # block <name> shape <rows> <cols> [role <role>]
                if len(words) not in (4, 6) or words[1] != "shape" or (
                    words[4:5] not in ([], ["role"])
                ):
                    raise ValueError(f"malformed block header {ln!r}")
                name = words[0]
                if not _BLOCK_NAME.fullmatch(name):
                    raise ValueError(f"unknown block {name!r}")
                if name in shapes:
                    raise ValueError(f"repeated block {name!r}")
                shapes[name] = (number, int(words[2]), int(words[3]))
                values[name] = []
                if name != "backbone" and words[5:] and words[5] not in HEAD_ROLES:
                    raise ValueError(f"block {name}: unknown head role {words[5]!r}")
            elif kind == "row":
                if not values:
                    raise ValueError("row before the first block")
                values[name].append([float(v) for v in words])
            elif kind is not None:
                raise ValueError(f"unknown line kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    for name, (number, rows, cols) in shapes.items():
        if len(values[name]) != rows or any(len(row) != cols for row in values[name]):
            raise ValueError(
                f"line {number}: block {name} does not match its shape {rows} {cols}"
            )
    rol = sorted(
        int(name.removeprefix("rol_head_")) for name in shapes if name.startswith("rol_")
    )
    for expected, index in enumerate(rol):
        number, rows, cols = shapes[f"rol_head_{index}"]
        if index != expected:
            raise ValueError(
                f"line {number}: rol_head_{index} without rol_head_{expected}"
            )
        if (rows, cols) != shapes["rol_head_0"][1:]:
            raise ValueError(
                f"line {number}: block rol_head_{index}: shape {rows} {cols} differs "
                "from rol_head_0's {} {}".format(*shapes["rol_head_0"][1:])
            )
    if "backbone" not in shapes or "main_head" not in shapes:
        raise ValueError("checkpoint missing backbone or main head")

    def block(name: str, what: str = "head weights") -> np.ndarray:
        try:
            return _matrix(values[name], what)
        except ValueError as exc:
            raise ValueError(f"line {shapes[name][0]}: block {name}: {exc}") from None

    return DetectorModel(
        backbone=block("backbone", "backbone map"),
        main_head=block("main_head"),
        sdk_head=block("sdk_head") if "sdk_head" in shapes else None,
        rol_heads=[block(f"rol_head_{i}") for i in rol],
        source_classes=header.get("source_classes", 0),
    )
