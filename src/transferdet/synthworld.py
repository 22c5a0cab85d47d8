"""Seeded generator of synthetic detection scenes.

A world owns one unit prototype vector per class (source classes, then
target classes, then background).  A scene is an H x W grid of raw
observation vectors: cells covered by an object emit that object's class
prototype, uncovered cells emit a scaled background prototype, and
isotropic Gaussian noise is added everywhere.  Proposals are the
ground-truth boxes under corner jitter plus random background boxes clear
of them, deduplicated by the pipeline's one greedy NMS
(:func:`transferdet.geometry.nms`); cell coverage for painting comes from
the same batched test that pooling uses.

All randomness flows from named substreams of a single seed, so a fixed
seed reproduces every world, scene, and experiment bit-exactly.  The
random proposal pool and its padding are each one block draw, mapped to
boxes the way ``Generator.uniform`` maps its draws, so they consume the
same doubles in the same order as one scalar draw per coordinate; only
ground-truth rejection sampling and jitter, whose draw counts depend on
the data, stay scalar.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, box_corners, coverage_masks, iou, nms, pairwise_iou

DOMAINS = ("source", "target")
MODES = ("full", "weak")

# Object extent range in normalized coordinates.  The lower bound keeps
# every box over at least one cell center of a default 8x8 grid; the
# upper bound keeps random background boxes from half-covering objects,
# which would flood training with borderline-IoU negatives.  The two ends
# also stay within sqrt(2) of each other: a small box fully nested in a
# large one then always has IoU above 0.5, so a proposal scoring high by
# sitting entirely inside an object is still a correct detection rather
# than an undersized near miss.
BOX_MIN_SIZE = 0.22
BOX_MAX_SIZE = 0.30
# Ground-truth boxes are rejection-sampled to at most this pairwise IoU,
# keeping instances distinguishable after proposal deduplication.
GT_MAX_OVERLAP = 0.3
# Proposal deduplication threshold.
PROPOSAL_NMS_THRESHOLD = 0.75
# Probability that an additional object repeats the class of the one
# drawn before it, mimicking how real scenes cluster instances of a kind
# (herds, fleets, crowds).  Repeated instances are what separate
# selective labelling from label-everything baselines downstream.
CLASS_REPEAT_AFFINITY = 0.5


def substream(seed: int, *tags) -> np.random.Generator:
    """Independent generator derived from a base seed and named tags.

    String tags are folded in via CRC32 so the derivation is stable across
    runs and platforms.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode()))
        else:
            entropy.append(int(tag) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class WorldConfig:
    num_source_classes: int = 6
    num_target_classes: int = 4
    raw_dim: int = 16
    grid_height: int = 8
    grid_width: int = 8
    noise_sigma: float = 0.3
    clutter_sigma: float = 0.5
    jitter: float = 0.15
    proposals_per_scene: int = 32
    objects_per_scene: tuple[int, int] = (1, 3)
    seed: int = 0

    def __post_init__(self):
        if self.num_source_classes < 1 or self.num_target_classes < 1:
            raise ValueError("need at least one class per domain")
        if self.raw_dim < self.num_prototypes:
            raise ValueError(
                f"raw_dim {self.raw_dim} too small for {self.num_prototypes} "
                "mutually low-overlap prototypes"
            )
        if self.grid_height < 1 or self.grid_width < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not (0.0 <= self.jitter < 0.5):
            raise ValueError(f"jitter {self.jitter} outside [0, 0.5)")
        lo, hi = self.objects_per_scene
        if not (1 <= lo <= hi):
            raise ValueError(f"bad objects_per_scene range ({lo}, {hi})")
        if self.proposals_per_scene < hi:
            raise ValueError("proposals_per_scene must cover the largest scene")
        if self.noise_sigma < 0 or self.clutter_sigma < 0:
            raise ValueError("noise scales must be nonnegative")

    @property
    def num_prototypes(self) -> int:
        return self.num_source_classes + self.num_target_classes + 1

    def classes_in(self, domain: str) -> int:
        if domain not in DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        return self.num_source_classes if domain == "source" else self.num_target_classes


@dataclass(frozen=True)
class World:
    """Immutable world: config plus one unit prototype per class."""

    config: WorldConfig
    prototypes: np.ndarray  # (num_prototypes, raw_dim), unit rows

    def prototype_index(self, domain: str, local_class: int) -> int:
        if not (0 <= local_class < self.config.classes_in(domain)):
            raise ValueError(f"class {local_class} outside {domain} domain")
        offset = 0 if domain == "source" else self.config.num_source_classes
        return offset + local_class

    @property
    def background_prototype(self) -> np.ndarray:
        return self.prototypes[-1]


@dataclass(frozen=True)
class Scene:
    raw_grid: np.ndarray  # (H, W, raw_dim)
    gt: tuple[tuple[int, BBox], ...]  # (domain-local class, box)
    proposals: tuple[BBox, ...]
    annotation_mode: str  # "full" | "weak"
    image_label: np.ndarray  # binary vector over the domain's classes
    domain: str

    def __post_init__(self):
        if self.annotation_mode not in MODES:
            raise ValueError(f"unknown annotation mode {self.annotation_mode!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if not self.gt:
            raise ValueError("scene without ground-truth objects")


# Fraction of each target prototype's energy lying inside the source
# class subspace.  Nonzero overlap is what lets source-class supervision
# stabilize target-relevant feature directions; zero would make the two
# domains mutually invisible, full overlap would violate the pairwise
# inner-product bound.
CROSS_DOMAIN_ENERGY = 0.35
# Cap on any single source coefficient of a target prototype, keeping
# every target/source inner product at most sqrt(CROSS_DOMAIN_ENERGY)
# times this value, safely below the 0.5 bound.
_MIX_COEFF_CAP = 0.7


def make_world(config: WorldConfig) -> World:
    """Deterministically build a world from its config seed.

    Source prototypes and the background prototype form an orthonormal
    frame.  Each target prototype splits its energy between a random unit
    direction inside the source span and a dedicated fresh orthogonal
    direction, so the domains are related but never collide.
    """
    rng = substream(config.seed, "prototypes")
    cs, ct = config.num_source_classes, config.num_target_classes
    raw = rng.standard_normal((config.raw_dim, config.num_prototypes))
    q, r = np.linalg.qr(raw)
    frame = (q * np.sign(np.diag(r))).T  # rows orthonormal
    source = frame[:cs]
    fresh = frame[cs : cs + ct]
    background = frame[cs + ct]

    targets = np.empty_like(fresh)
    for i in range(ct):
        for _ in range(1000):
            coeffs = rng.standard_normal(cs)
            coeffs /= np.linalg.norm(coeffs)
            if np.abs(coeffs).max() <= _MIX_COEFF_CAP:
                break
        else:
            raise ValueError("could not sample a bounded source mixture")
        in_span = coeffs @ source
        targets[i] = (
            np.sqrt(CROSS_DOMAIN_ENERGY) * in_span
            + np.sqrt(1.0 - CROSS_DOMAIN_ENERGY) * fresh[i]
        )

    prototypes = np.ascontiguousarray(
        np.vstack([source, targets, background[None, :]])
    )
    gram = prototypes @ prototypes.T
    off_diag = gram - np.diag(np.diag(gram))
    if np.any(np.abs(off_diag) >= 0.5):
        raise ValueError("could not place prototypes under the 0.5 bound")
    return World(config=config, prototypes=prototypes)


def _sample_box(rng: np.random.Generator) -> BBox:
    w = rng.uniform(BOX_MIN_SIZE, BOX_MAX_SIZE)
    h = rng.uniform(BOX_MIN_SIZE, BOX_MAX_SIZE)
    x1 = rng.uniform(0.0, 1.0 - w)
    y1 = rng.uniform(0.0, 1.0 - h)
    return BBox(x1, y1, x1 + w, y1 + h)


def _boxes_from_draws(u: np.ndarray) -> np.ndarray:
    """(n, 4) corner rows from an (n, 4) block of unit draws, row i being
    bit-identical to the box ``_sample_box`` makes from the same four draws.

    ``Generator.uniform(low, high)`` returns ``low + (high - low) * u`` for
    a unit draw ``u``, so mapping a block drawn with ``Generator.random``
    the same way consumes the same doubles in the same order, and leaves
    the generator in the same state, as ``n`` calls of ``_sample_box``.
    """
    w = BOX_MIN_SIZE + (BOX_MAX_SIZE - BOX_MIN_SIZE) * u[:, 0]
    h = BOX_MIN_SIZE + (BOX_MAX_SIZE - BOX_MIN_SIZE) * u[:, 1]
    x1 = (1.0 - w) * u[:, 2]
    y1 = (1.0 - h) * u[:, 3]
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def _sample_gt_boxes(rng: np.random.Generator, count: int) -> list[BBox]:
    boxes: list[BBox] = []
    for _ in range(count):
        box = _sample_box(rng)
        for _ in range(200):
            if all(iou(box, other) <= GT_MAX_OVERLAP for other in boxes):
                break
            box = _sample_box(rng)
        boxes.append(box)
    return boxes


def _jitter_box(rng: np.random.Generator, box: BBox, jitter: float) -> BBox:
    if jitter == 0.0:
        return box
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    x1 = min(max(box.x1 + rng.uniform(-jitter, jitter) * w, 0.0), 1.0)
    x2 = min(max(box.x2 + rng.uniform(-jitter, jitter) * w, 0.0), 1.0)
    y1 = min(max(box.y1 + rng.uniform(-jitter, jitter) * h, 0.0), 1.0)
    y2 = min(max(box.y2 + rng.uniform(-jitter, jitter) * h, 0.0), 1.0)
    return BBox(x1, y1, x2, y2)


def sample_scene(
    world: World, domain: str, mode: str, rng: np.random.Generator
) -> Scene:
    """Draw one scene from the world using the caller's stream."""
    cfg = world.config
    num_classes = cfg.classes_in(domain)
    lo, hi = cfg.objects_per_scene
    n = int(rng.integers(lo, hi + 1))
    classes = [int(rng.integers(0, num_classes))]
    for _ in range(n - 1):
        if rng.uniform() < CLASS_REPEAT_AFFINITY:
            classes.append(classes[-1])
        else:
            classes.append(int(rng.integers(0, num_classes)))
    boxes = _sample_gt_boxes(rng, n)

    height, width, dim = cfg.grid_height, cfg.grid_width, cfg.raw_dim
    covered = np.zeros((height, width), dtype=bool)
    grid = np.zeros((height, width, dim))
    for cls, cov in zip(classes, coverage_masks(height, width, boxes)):
        proto = world.prototypes[world.prototype_index(domain, cls)]
        grid += cov[:, :, None] * proto[None, None, :]
        covered |= cov
    grid += (
        (~covered)[:, :, None]
        * cfg.clutter_sigma
        * world.background_prototype[None, None, :]
    )
    grid += cfg.noise_sigma * rng.standard_normal((height, width, dim))

    # Proposals: jittered ground truth first (kept unconditionally, so the
    # zero-jitter case reproduces the GT boxes verbatim), then the random
    # pool boxes clear of it, greedily deduplicated at 0.75 in
    # uniform-random score order, padded with fresh random boxes to exactly K.
    # The pool and the padding are one block draw each (see _boxes_from_draws);
    # only the boxes a scene keeps become BBox objects.
    proposals = [_jitter_box(rng, box, cfg.jitter) for box in boxes]
    pool = _boxes_from_draws(rng.random((2 * cfg.proposals_per_scene, 4)))
    pool_scores = rng.uniform(0.0, 1.0, size=len(pool))
    room = cfg.proposals_per_scene - len(proposals)
    if room > 0:
        clear = np.flatnonzero(
            np.all(pairwise_iou(pool, proposals) <= PROPOSAL_NMS_THRESHOLD, axis=1)
        )
        if clear.size:
            keep = nms(
                pool_scores[clear],
                pairwise_iou(pool[clear]),
                PROPOSAL_NMS_THRESHOLD,
                room,
            )
            proposals += [BBox(*row) for row in pool[clear[keep]].tolist()]
    pad = cfg.proposals_per_scene - len(proposals)
    proposals += [BBox(*row) for row in _boxes_from_draws(rng.random((pad, 4))).tolist()]

    label = np.zeros(num_classes, dtype=int)
    for cls in classes:
        label[cls] = 1
    return Scene(
        raw_grid=grid,
        gt=tuple(zip(classes, boxes)),
        proposals=tuple(proposals),
        annotation_mode=mode,
        image_label=label,
        domain=domain,
    )


def sample_scenes(
    world: World, domain: str, mode: str, rng: np.random.Generator, count: int
) -> list[Scene]:
    return [sample_scene(world, domain, mode, rng) for _ in range(count)]


# --- serialization ----------------------------------------------------------
#
# Line-oriented text records.  Floats are written with repr(), which
# round-trips float64 exactly, making save/load bit-identical.

WORLD_MAGIC = "# transferdet world v1"
SCENES_MAGIC = "# transferdet scene set v1"

_CONFIG_FIELDS = (
    "num_source_classes",
    "num_target_classes",
    "raw_dim",
    "grid_height",
    "grid_width",
    "noise_sigma",
    "clutter_sigma",
    "jitter",
    "proposals_per_scene",
    "objects_per_scene",
    "seed",
)


def _config_lines(config: WorldConfig) -> list[str]:
    lines = []
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if name == "objects_per_scene":
            lines.append(f"config {name} {value[0]} {value[1]}")
        elif isinstance(value, float):
            lines.append(f"config {name} {value!r}")
        else:
            lines.append(f"config {name} {value}")
    return lines


_FLOAT_FIELDS = ("noise_sigma", "clutter_sigma", "jitter")


def _parse_config(lines: list[str]) -> WorldConfig:
    """WorldConfig from the ``config <field> <value...>`` lines of a file.

    Every field of ``_CONFIG_FIELDS`` must appear exactly once; a missing,
    repeated or unknown field, or a missing or non-numeric value, raises
    ValueError.  So does a ``seed <n>`` header line that is missing,
    repeated, malformed or different from ``config seed``.
    """
    seeds = [
        line.split() for line in lines
        if line.startswith("seed") and line.split()[0] == "seed"
    ]
    if len(seeds) != 1 or len(seeds[0]) != 2:
        raise ValueError("file needs exactly one 'seed <n>' header line")
    kwargs = {}
    for line in lines:
        if line.split()[:1] != ["config"]:
            continue
        name, *rest = line.split()[1:] or [""]
        if name not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config field in line {line!r}")
        if name in kwargs:
            raise ValueError(f"config field {name} given more than once")
        arity = 2 if name == "objects_per_scene" else 1
        if len(rest) != arity:
            raise ValueError(f"config {name} needs {arity} value(s): {line!r}")
        try:
            values = [float(v) if name in _FLOAT_FIELDS else int(v) for v in rest]
        except ValueError:
            raise ValueError(f"non-numeric value in config line {line!r}") from None
        kwargs[name] = tuple(values) if arity == 2 else values[0]
    missing = [name for name in _CONFIG_FIELDS if name not in kwargs]
    if missing:
        raise ValueError(f"missing config line(s) for {', '.join(missing)}")
    if seeds[0][1] != str(kwargs["seed"]):
        raise ValueError(
            f"seed header {seeds[0][1]!r} does not match config seed {kwargs['seed']}"
        )
    return WorldConfig(**kwargs)


def save_world(path, world: World) -> None:
    lines = [WORLD_MAGIC, f"seed {world.config.seed}"]
    lines += _config_lines(world.config)
    for row in world.prototypes.tolist():
        lines.append("prototype " + " ".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_world(path) -> World:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != WORLD_MAGIC:
        raise ValueError(f"{path} is not a world file")
    config = _parse_config(lines)
    rows = [
        np.array([float(v) for v in ln.split()[1:]])
        for ln in lines
        if ln.startswith("prototype ")
    ]
    prototypes = np.vstack(rows)
    if prototypes.shape != (config.num_prototypes, config.raw_dim):
        raise ValueError("prototype block does not match config dimensions")
    return World(config=config, prototypes=prototypes)


def save_scenes(path, world: World, scenes: list[Scene]) -> None:
    cfg = world.config
    lines = [SCENES_MAGIC, f"seed {cfg.seed}"]
    lines += _config_lines(cfg)
    lines.append(f"count {len(scenes)}")
    for idx, scene in enumerate(scenes):
        lines.append(
            f"scene {idx} {scene.annotation_mode} {scene.domain} "
            f"{len(scene.gt)} {len(scene.proposals)} {scene.image_label.size}"
        )
        for cell in scene.raw_grid.reshape(-1, cfg.raw_dim).tolist():
            lines.append("cell " + " ".join(map(repr, cell)))
        gt_corners = box_corners([box for _, box in scene.gt]).tolist()
        for (cls, _), corners in zip(scene.gt, gt_corners):
            lines.append(f"gt {cls} " + " ".join(map(repr, corners)))
        for corners in box_corners(scene.proposals).tolist():
            lines.append("prop " + " ".join(map(repr, corners)))
        lines.append("label " + " ".join(str(int(v)) for v in scene.image_label))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenes(path) -> tuple[WorldConfig, list[Scene]]:
    """Read a scene set; a record cut short or a scene count differing from
    the ``count`` header raises ValueError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != SCENES_MAGIC:
        raise ValueError(f"{path} is not a scene set file")
    config = _parse_config(lines)
    counts = [ln.split() for ln in lines if ln.startswith("count ")]
    if len(counts) != 1 or len(counts[0]) != 2:
        raise ValueError("scene set needs exactly one 'count <n>' line")
    count = int(counts[0][1])
    height, width, dim = config.grid_height, config.grid_width, config.raw_dim

    scenes: list[Scene] = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("scene "):
            i += 1
            continue
        _, _, mode, domain, n_gt, n_prop, label_len = lines[i].split()
        n_gt, n_prop, label_len = int(n_gt), int(n_prop), int(label_len)
        if i + 1 + height * width + n_gt + n_prop + 1 > len(lines):
            raise ValueError(f"scene record {len(scenes)} runs past the end of {path}")
        i += 1
        cells = []
        for _ in range(height * width):
            cells.append([float(v) for v in lines[i].split()[1:]])
            i += 1
        grid = np.array(cells).reshape(height, width, dim)
        gt = []
        for _ in range(n_gt):
            parts = lines[i].split()
            gt.append((int(parts[1]), BBox(*(float(v) for v in parts[2:]))))
            i += 1
        proposals = []
        for _ in range(n_prop):
            parts = lines[i].split()
            proposals.append(BBox(*(float(v) for v in parts[1:])))
            i += 1
        label = np.array([int(v) for v in lines[i].split()[1:]], dtype=int)
        if label.size != label_len:
            raise ValueError("label length mismatch in scene record")
        i += 1
        scenes.append(
            Scene(
                raw_grid=grid,
                gt=tuple(gt),
                proposals=tuple(proposals),
                annotation_mode=mode,
                image_label=label,
                domain=domain,
            )
        )
    if len(scenes) != count:
        raise ValueError(f"{path} holds {len(scenes)} scenes but its header says {count}")
    return config, scenes
