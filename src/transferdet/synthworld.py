"""Seeded generator of synthetic detection scenes.

A world owns one unit prototype vector per class (source classes, then
target classes, then background).  A scene is an H x W grid of raw
observation vectors: cells covered by an object emit that object's class
prototype, uncovered cells emit a scaled background prototype, and
isotropic Gaussian noise is added everywhere.  Proposals are the
ground-truth boxes under corner jitter plus random background boxes clear
of them, deduplicated by the pipeline's one greedy NMS
(:func:`transferdet.geometry.nms`); cell coverage for painting comes from
the same batched test that pooling uses.  A scene holds its proposals as
one read-only (K, 4) array of corner rows.

All randomness flows from named substreams of a single seed, so a fixed
seed reproduces every world, scene, and experiment bit-exactly.  The
corner jitter, the random proposal pool and its padding are each one block
draw, mapped to offsets and boxes the way ``Generator.uniform`` maps its
draws, so they consume the same doubles in the same order as one scalar
draw per coordinate; only ground-truth rejection sampling, whose draw
count depends on the data, stays scalar.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, box_corners, coverage_masks, iou, nms, pairwise_iou
from .textfile import apply_overrides, named_decode_errors

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
        if not (np.isfinite(self.noise_sigma) and np.isfinite(self.clutter_sigma)):
            raise ValueError("noise scales must be finite")
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
    """One scene.  ``proposals`` is given as (K, 4) corner rows (x1, y1,
    x2, y2), each a box :class:`~transferdet.geometry.BBox` would accept,
    and stored as a read-only float copy; ``BBox(*row)`` makes a row a box
    object."""

    raw_grid: np.ndarray  # (H, W, raw_dim)
    gt: tuple[tuple[int, BBox], ...]  # (domain-local class, box)
    proposals: np.ndarray  # (K, 4) corner rows, read-only
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
        if not np.isfinite(self.raw_grid).all():
            raise ValueError("scene with a non-finite raw grid value")
        object.__setattr__(self, "proposals", _corner_rows(self.proposals))


def _corner_rows(proposals) -> np.ndarray:
    """A read-only float copy of (K, 4) proposal corner rows; ValueError
    for another shape, a non-finite corner or a row that is not a box."""
    try:
        corners = np.array(proposals, dtype=float)
    except (TypeError, ValueError):
        corners = None
    if corners is None or corners.ndim != 2 or corners.shape[1] != 4:
        raise ValueError("scene proposals must be (K, 4) corner rows (x1, y1, x2, y2)")
    lo, hi = corners[:, :2], corners[:, 2:]
    valid = ((lo >= 0.0) & (lo < hi) & (hi <= 1.0)).all(axis=1)
    if not valid.all():  # a NaN or infinite corner fails the bounds too
        if not np.isfinite(corners).all():
            raise ValueError("scene with a non-finite proposal corner")
        k = int(np.argmin(valid))
        raise ValueError(
            f"invalid proposal {k} {tuple(corners[k].tolist())}: "
            "need 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1"
        )
    corners.flags.writeable = False
    return corners


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


def _jitter_corners(
    rng: np.random.Generator, corners: np.ndarray, jitter: float
) -> np.ndarray:
    """Corner rows with each side moved by a uniform fraction in
    [-jitter, jitter) of the box's extent along it, clipped to [0, 1].

    The offsets are one (n, 4) block of unit draws, box by box in the
    order x1, x2, y1, y2, each mapped as ``Generator.uniform(-jitter,
    jitter)`` maps its draw, so they are the doubles of four scalar draws
    per box.  Zero jitter draws nothing and returns ``corners``.
    """
    if jitter == 0.0:
        return corners
    low, high = -jitter, jitter
    offsets = low + (high - low) * rng.random((len(corners), 4))
    extent = np.tile(corners[:, 2:] - corners[:, :2], 2)  # w, h, w, h
    moved = corners + offsets[:, [0, 2, 1, 3]] * extent
    return np.minimum(np.maximum(moved, 0.0), 1.0)


def _dedup(boxes: np.ndarray, scores: np.ndarray, room: int) -> np.ndarray:
    """The indices of the at most ``room`` boxes that greedy suppression at
    :data:`PROPOSAL_NMS_THRESHOLD` keeps, in visit order: those of
    ``nms(scores, pairwise_iou(boxes), PROPOSAL_NMS_THRESHOLD, room)``.

    A box's fate depends only on the boxes visited before it, so the boxes
    kept from a prefix of the visit order are the first ones kept from the
    whole.  Suppression runs on a prefix of ``room`` and a quarter more
    boxes, doubled until it keeps ``room`` or holds every box, so the IoU
    of the boxes past it is never computed.  (For K = 16 to 64 and the
    default box sizes, the first prefix suffices in about 999 scenes of
    1,000.)
    """
    order = np.argsort(-scores, kind="stable")
    size = room + room // 4 + 1
    while True:
        prefix = order[:size]
        overlaps = pairwise_iou(boxes[prefix])
        keep = nms(scores[prefix], overlaps, PROPOSAL_NMS_THRESHOLD, room)
        if len(keep) == room or size >= len(order):
            return prefix[keep]
        size *= 2


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
    # The jitter, the pool and the padding are one block draw each (see
    # _jitter_corners and _boxes_from_draws), and every part stays corner rows.
    jittered = _jitter_corners(rng, box_corners(boxes), cfg.jitter)
    parts = [jittered]
    pool = _boxes_from_draws(rng.random((2 * cfg.proposals_per_scene, 4)))
    pool_scores = rng.uniform(0.0, 1.0, size=len(pool))
    room = cfg.proposals_per_scene - n
    if room > 0:
        clear = np.flatnonzero(
            np.all(pairwise_iou(pool, jittered) <= PROPOSAL_NMS_THRESHOLD, axis=1)
        )
        if clear.size:
            parts.append(pool[clear[_dedup(pool[clear], pool_scores[clear], room)]])
    pad = cfg.proposals_per_scene - sum(map(len, parts))
    parts.append(_boxes_from_draws(rng.random((pad, 4))))

    label = np.zeros(num_classes, dtype=int)
    for cls in classes:
        label[cls] = 1
    return Scene(
        raw_grid=grid,
        gt=tuple(zip(classes, boxes)),
        proposals=np.concatenate(parts),
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
# round-trips float64 exactly, making save/load bit-identical: the loaders
# parse with float() or, for the bulk of a scene set (its cell rows), with
# np.loadtxt, which rounds correctly too and so gives the same floats.
#
# A scene set file is its header, then one record per scene.  The header is
# the magic line, then the ``seed``, ``config`` and ``count`` lines, all
# before the first ``scene`` line.  A record is a ``scene`` line, one
# ``cell`` row per grid cell, its ``gt`` and ``prop`` lines and a ``label``
# line.  Blank lines may stand between records; any other line outside a
# record, a header line after the first record included, is an error.
# Both ends stream: save_scenes writes each record as it is formatted, and
# load_scenes reads records one at a time and parses their cell rows in
# chunks of SCENE_CHUNK_ROWS rows, so neither holds the file's text whole.
# No allocation is sized from the ``count`` header, which is only compared
# with the number of records read.

WORLD_MAGIC = "# transferdet world v1"
SCENES_MAGIC = "# transferdet scene set v1"


def _config_lines(config: WorldConfig) -> list[str]:
    """One ``config <field> <value...>`` line per field of ``config``, in
    field order: a tuple as its items' reprs, any other value as its repr."""
    lines = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        text = " ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"config {field.name} {text}")
    return lines


def _parse_config(lines: list[str]) -> WorldConfig:
    """WorldConfig from the ``config <field> <value...>`` lines of a file.

    Every field of :class:`WorldConfig` must appear exactly once; a
    missing, repeated or unknown field raises ValueError.  So does a
    ``seed <n>`` header line that is missing, repeated, malformed or
    different from ``config seed``.  The other values, a tuple's joined
    with ``,``, are typed and checked by
    :func:`~transferdet.textfile.apply_overrides`, like a ``--set`` line.
    """
    # Only these lines can have "seed" or "config" as their first word.
    lines = [
        line for line in lines
        if line.startswith(("seed", "config")) or line[:1].isspace()
    ]
    seeds = [
        line.split() for line in lines
        if line.startswith("seed") and line.split()[0] == "seed"
    ]
    if len(seeds) != 1 or len(seeds[0]) != 2:
        raise ValueError("file needs exactly one 'seed <n>' header line")
    names = [f.name for f in dataclasses.fields(WorldConfig)]
    values = {}
    for line in lines:
        if line.split()[:1] != ["config"]:
            continue
        name, *rest = line.split()[1:] or [""]
        if name not in names:
            raise ValueError(f"unknown config field in line {line!r}")
        if name in values:
            raise ValueError(f"config field {name} given more than once")
        values[name] = ",".join(rest)
    missing = [name for name in names if name not in values]
    if missing:
        raise ValueError(f"missing config line(s) for {', '.join(missing)}")
    seed = values.pop("seed")
    if seeds[0][1] != seed:
        raise ValueError(f"seed header {seeds[0][1]!r} does not match config seed {seed}")
    try:
        seed = int(seed)
    except ValueError:
        raise ValueError(f"seed {seed!r} is not an integer") from None
    return apply_overrides(WorldConfig(seed=seed), values)


def save_world(path, world: World) -> None:
    lines = [WORLD_MAGIC, f"seed {world.config.seed}"]
    lines += _config_lines(world.config)
    for row in world.prototypes.tolist():
        lines.append("prototype " + " ".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_world(path) -> World:
    """The world :func:`save_world` wrote to ``path``; ValueError for a
    malformed file, naming the line of a ``prototype`` row without
    ``raw_dim`` finite values, of any other non-blank line after the magic
    line that is not a ``seed`` or ``config`` header line, and the first
    undecodable line of a file that is not text."""
    with named_decode_errors(path), open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != WORLD_MAGIC:
        raise ValueError(f"{path} is not a world file")
    config = _parse_config(lines)
    rows = []
    for number, ln in enumerate(lines[1:], start=2):
        kind = ln.split()[:1]
        if kind == ["prototype"]:
            rows.append(_named(number, _prototype_row, ln, config.raw_dim))
        elif kind and kind[0] not in ("seed", "config"):
            raise ValueError(
                f"line {number}: expected a 'seed', 'config' or 'prototype' line, "
                f"got {ln!r}"
            )
    if len(rows) != config.num_prototypes:
        raise ValueError("prototype block does not match config dimensions")
    return World(config=config, prototypes=np.array(rows))


def _prototype_row(line: str, dim: int) -> list[float]:
    """The ``dim`` finite values of a ``prototype`` line."""
    message = f"expected 'prototype' and {dim} finite values, got {line!r}"
    try:
        row = [float(v) for v in line.split()[1:]]
    except ValueError:
        raise ValueError(message) from None
    if len(row) != dim or not np.isfinite(row).all():
        raise ValueError(message)
    return row


def save_scenes(path, world: World, scenes: list[Scene]) -> None:
    """Write a scene set: the header, then each scene's record as soon as
    it is formatted, so the file's text is never held whole."""
    cfg = world.config
    header = [SCENES_MAGIC, f"seed {cfg.seed}", *_config_lines(cfg), f"count {len(scenes)}"]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for idx, scene in enumerate(scenes):
            fh.write(_scene_record(idx, scene, cfg.raw_dim))


def _scene_record(index: int, scene: Scene, dim: int) -> str:
    """One scene's record, newline-terminated."""
    lines = [
        f"scene {index} {scene.annotation_mode} {scene.domain} "
        f"{len(scene.gt)} {len(scene.proposals)} {scene.image_label.size}"
    ]
    for cell in scene.raw_grid.reshape(-1, dim).tolist():
        lines.append("cell " + " ".join(map(repr, cell)))
    gt_corners = box_corners([box for _, box in scene.gt]).tolist()
    for (cls, _), corners in zip(scene.gt, gt_corners):
        lines.append(f"gt {cls} " + " ".join(map(repr, corners)))
    for corners in scene.proposals.tolist():
        lines.append("prop " + " ".join(map(repr, corners)))
    lines.append("label " + " ".join(str(int(v)) for v in scene.image_label))
    return "\n".join(lines) + "\n"


# Cell rows parsed per np.loadtxt call when reading a scene set: 64 scenes
# of the default 8x8 grid.  A chunk holds whole scenes (one, if a scene has
# more rows) and its array backs their raw grids.
SCENE_CHUNK_ROWS = 4096

_HEADER_WORDS = ("seed", "config", "count")


def load_scenes(path) -> tuple[WorldConfig, list[Scene]]:
    """Read a scene set written by :func:`save_scenes`.

    The file is read as a stream of lines.  The header ends at the first
    ``scene`` line, and only it is parsed for the config.  Records are then
    read one at a time; their cell rows collect in a chunk that one
    ``np.loadtxt`` call parses once it holds ``SCENE_CHUNK_ROWS`` rows, so
    memory beyond the returned scenes stays about one chunk whatever the
    file's size.  Nothing is sized from the ``count`` header.

    Raises ValueError for a file without the magic line, a bad header, a
    record cut short or a scene count differing from ``count``.  Naming
    the 1-based line, it also raises for a ``scene``, ``cell``, ``gt``,
    ``prop`` or ``label`` line of the wrong form, a label of another
    length than its ``scene`` line says, an unknown mode or domain, a
    scene without GT, a GT class outside ``[0, classes_in(domain))``, a
    bad box, and any non-blank line outside a record, a header line after
    the first record included, and for the first line that is not text.
    """
    with named_decode_errors(path), open(path) as fh:
        lines = enumerate((ln.rstrip("\n") for ln in fh), start=1)
        if next(lines, (0, ""))[1] != SCENES_MAGIC:
            raise ValueError(f"{path} is not a scene set file")
        header, record = _read_header(lines)
        config = _parse_config(header)
        counts = [ln.split() for ln in header if ln.startswith("count ")]
        if len(counts) != 1 or len(counts[0]) != 2:
            raise ValueError("scene set needs exactly one 'count <n>' line")
        count = int(counts[0][1])
        height, width, dim = config.grid_height, config.grid_width, config.raw_dim
        cell_rows = height * width

        scenes: list[Scene] = []
        chunk: list[str] = []  # the cell rows of the pending records
        pending = []  # (scene line number, then Scene's fields after raw_grid)

        def flush():
            starts = [number + 1 for number, *_ in pending]
            grids = _parse_cells(chunk, starts, cell_rows, dim).reshape(
                len(pending), height, width, dim
            )
            for grid, (number, *fields) in zip(grids, pending):
                scenes.append(_named(number, Scene, grid, *fields))
            chunk.clear()
            pending.clear()

        while record is not None:
            number, line = record
            mode, domain, n_gt, n_prop, label_len = _named(number, _record_header, line)
            classes = _named(number, config.classes_in, domain)
            size = cell_rows + n_gt + n_prop + 1
            # no file holds more than sys.maxsize lines, nor can islice count them
            body = list(itertools.islice(lines, min(size, sys.maxsize)))
            if len(body) < size:
                raise ValueError(
                    f"scene record {len(scenes) + len(pending)} runs past the end of {path}"
                )
            chunk.extend(ln for _, ln in body[:cell_rows])
            gts, props = body[cell_rows:cell_rows + n_gt], body[cell_rows + n_gt:-1]
            gt = tuple(_named(n, _gt_line, ln, classes) for n, ln in gts)
            proposals = np.array(
                [_named(n, _prop_line, ln) for n, ln in props], dtype=float
            ).reshape(n_prop, 4)
            label_number, label_line = body[-1]
            label = _named(label_number, _label_line, label_line, label_len)
            pending.append((number, gt, proposals, mode, label, domain))
            if len(chunk) >= SCENE_CHUNK_ROWS:
                flush()
            record = _next_record(lines)
    read = len(scenes) + len(pending)
    if read != count:
        raise ValueError(f"{path} holds {read} scenes but its header says {count}")
    flush()
    return config, scenes


def _named(number: int, fn, *args):
    """``fn(*args)``, a ValueError from it naming line ``number``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None


def _read_header(lines) -> tuple[list[str], tuple[int, str] | None]:
    """The header lines up to the first ``scene`` line, and that line
    numbered (None if there is none)."""
    header = []
    for number, line in lines:
        if line.startswith("scene "):
            return header, (number, line)
        words = line.split()
        if words and words[0] not in _HEADER_WORDS:
            raise ValueError(
                f"line {number}: expected a 'seed', 'config' or 'count' header "
                f"line or a scene record, got {line!r}"
            )
        header.append(line)
    return header, None


def _next_record(lines) -> tuple[int, str] | None:
    """The next ``scene`` line, numbered, past blank lines (None at the end
    of the file)."""
    for number, line in lines:
        if line.startswith("scene "):
            return number, line
        words = line.split()
        if words and words[0] in _HEADER_WORDS:
            raise ValueError(f"line {number}: header line {line!r} after the first scene record")
        if words:
            raise ValueError(f"line {number}: {line!r} is outside any scene record")
    return None


def _record_header(line: str) -> tuple[str, str, int, int, int]:
    """(mode, domain, GT count, proposal count, label size) of a ``scene``
    line."""
    try:
        _, _, mode, domain, *sizes = line.split()
        n_gt, n_prop, label_len = (int(v) for v in sizes)
        if min(n_gt, n_prop, label_len) < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            "expected 'scene <index> <mode> <domain> <GT count> "
            f"<proposal count> <label size>', got {line!r}"
        ) from None
    return mode, domain, n_gt, n_prop, label_len


def _gt_line(line: str, classes: int) -> tuple[int, BBox]:
    """The class and box of a ``gt`` line, the class in ``[0, classes)``."""
    parts = line.split()
    if len(parts) != 6 or parts[0] != "gt":
        raise ValueError(f"expected 'gt' and a class and 4 corners, got {line!r}")
    cls, box = int(parts[1]), BBox(*map(float, parts[2:]))
    if not 0 <= cls < classes:
        raise ValueError(f"GT class {cls} outside [0, {classes})")
    return cls, box


def _prop_line(line: str) -> tuple[float, float, float, float]:
    """The corners of a ``prop`` line, checked as a :class:`BBox`."""
    parts = line.split()
    if len(parts) != 5 or parts[0] != "prop":
        raise ValueError(f"expected 'prop' and 4 corners, got {line!r}")
    return BBox(*map(float, parts[1:])).as_tuple()


def _label_line(line: str, size: int) -> np.ndarray:
    """The ``size`` integers of a ``label`` line."""
    parts = line.split()
    if parts[:1] != ["label"]:
        raise ValueError(f"expected 'label' and {size} integers, got {line!r}")
    label = np.array([int(v) for v in parts[1:]], dtype=int)
    if label.size != size:
        raise ValueError("label length mismatch in scene record")
    return label


_CELL = "cell "


def _parse_cells(
    block: list[str], starts: list[int], rows: int, dim: int
) -> np.ndarray:
    """The (len(block), dim) values of the ``cell`` lines of ``block``,
    parsed in one call: ``rows`` lines per scene, the first of scene ``i``
    being line ``starts[i]`` of the file.  A line that is not ``cell`` and
    ``dim`` numbers raises ValueError naming it."""
    if not block:
        return np.empty((0, dim))
    try:
        if all(ln.startswith(_CELL) for ln in block):
            values = np.loadtxt(
                [ln[len(_CELL):] for ln in block], dtype=float, comments=None, ndmin=2
            )
            # loadtxt skips a line of no values and parses rows of another width
            if values.shape == (len(block), dim):
                return values
    except ValueError:
        pass
    # Find the first bad line one line at a time.
    for k, ln in enumerate(block):
        try:
            ok = ln.startswith(_CELL) and len(
                [float(v) for v in ln[len(_CELL):].split()]
            ) == dim
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"line {starts[k // rows] + k % rows}: "
                f"expected 'cell' and {dim} numbers, got {ln!r}"
            )
    raise ValueError("np.loadtxt refuses a cell row that str.split and float() read")
