"""World generation tests: prototypes, scene sampling, serialization."""

import numpy as np
import pytest

from transferdet.geometry import BBox, coverage_masks, iou
from transferdet.synthworld import (
    BOX_MAX_SIZE,
    BOX_MIN_SIZE,
    CLASS_REPEAT_AFFINITY,
    GT_MAX_OVERLAP,
    PROPOSAL_NMS_THRESHOLD,
    Scene,
    World,
    WorldConfig,
    load_scenes,
    load_world,
    make_world,
    sample_scene,
    sample_scenes,
    save_scenes,
    save_world,
    substream,
)
from transferdet import synthworld

from reference import ref_iou


def test_substream_is_reproducible_and_tag_sensitive():
    a = substream(3, "eval").standard_normal(8)
    b = substream(3, "eval").standard_normal(8)
    assert np.array_equal(a, b)
    c = substream(3, "weak").standard_normal(8)
    d = substream(4, "eval").standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    e = substream(3, "eval", 7).standard_normal(8)
    f = substream(3, "eval", 8).standard_normal(8)
    assert not np.array_equal(e, f)


def test_world_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(num_source_classes=0)
    with pytest.raises(ValueError, match="raw_dim"):
        WorldConfig(raw_dim=5)
    with pytest.raises(ValueError):
        WorldConfig(jitter=0.5)
    with pytest.raises(ValueError):
        WorldConfig(jitter=-0.1)
    with pytest.raises(ValueError):
        WorldConfig(objects_per_scene=(0, 2))
    with pytest.raises(ValueError):
        WorldConfig(objects_per_scene=(3, 2))
    with pytest.raises(ValueError):
        WorldConfig(proposals_per_scene=2, objects_per_scene=(1, 3))
    with pytest.raises(ValueError):
        WorldConfig(noise_sigma=-0.1)
    cfg = WorldConfig()
    assert cfg.classes_in("source") == 6
    assert cfg.classes_in("target") == 4
    assert cfg.num_prototypes == 11
    with pytest.raises(ValueError, match="domain"):
        cfg.classes_in("test")


def test_make_world_is_deterministic():
    a = make_world(WorldConfig(seed=5))
    b = make_world(WorldConfig(seed=5))
    assert np.array_equal(a.prototypes, b.prototypes)
    c = make_world(WorldConfig(seed=6))
    assert not np.array_equal(a.prototypes, c.prototypes)


def test_prototype_geometry():
    for seed in range(10):
        world = make_world(WorldConfig(seed=seed))
        protos = world.prototypes
        assert protos.shape == (11, 16)
        norms = np.linalg.norm(protos, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)
        gram = protos @ protos.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.5
        # the background direction is untouched by target mixing
        background = world.background_prototype
        assert np.allclose(protos[:-1] @ background, 0.0, atol=1e-9)


def test_prototype_index_layout():
    world = make_world(WorldConfig(seed=0))
    assert world.prototype_index("source", 0) == 0
    assert world.prototype_index("source", 5) == 5
    assert world.prototype_index("target", 0) == 6
    assert world.prototype_index("target", 3) == 9
    with pytest.raises(ValueError):
        world.prototype_index("target", 4)
    with pytest.raises(ValueError):
        world.prototype_index("source", -1)
    assert np.array_equal(world.background_prototype, world.prototypes[-1])


def test_scene_validation():
    world = make_world(WorldConfig(seed=0))
    scene = sample_scene(world, "target", "weak", substream(0, "s"))
    with pytest.raises(ValueError):
        Scene(
            raw_grid=scene.raw_grid,
            gt=(),
            proposals=scene.proposals,
            annotation_mode="weak",
            image_label=scene.image_label,
            domain="target",
        )
    with pytest.raises(ValueError):
        Scene(
            raw_grid=scene.raw_grid,
            gt=scene.gt,
            proposals=scene.proposals,
            annotation_mode="partial",
            image_label=scene.image_label,
            domain="target",
        )
    with pytest.raises(ValueError):
        Scene(
            raw_grid=scene.raw_grid,
            gt=scene.gt,
            proposals=scene.proposals,
            annotation_mode="weak",
            image_label=scene.image_label,
            domain="desk",
        )


def test_sample_scene_is_deterministic():
    world = make_world(WorldConfig(seed=2))
    a = sample_scene(world, "target", "full", substream(2, "probe"))
    b = sample_scene(world, "target", "full", substream(2, "probe"))
    assert np.array_equal(a.raw_grid, b.raw_grid)
    assert a.gt == b.gt
    assert a.proposals == b.proposals
    assert np.array_equal(a.image_label, b.image_label)


def test_sample_scene_structure():
    cfg = WorldConfig(seed=1)
    world = make_world(cfg)
    lo, hi = cfg.objects_per_scene
    for domain, n_classes in (("source", 6), ("target", 4)):
        scenes = sample_scenes(world, domain, "full", substream(1, domain), 40)
        for scene in scenes:
            assert scene.domain == domain
            assert scene.annotation_mode == "full"
            assert lo <= len(scene.gt) <= hi
            assert len(scene.proposals) == cfg.proposals_per_scene
            assert scene.raw_grid.shape == (8, 8, 16)
            assert scene.image_label.shape == (n_classes,)
            present = set()
            for cls, box in scene.gt:
                assert 0 <= cls < n_classes
                present.add(cls)
                assert BOX_MIN_SIZE <= box.x2 - box.x1 <= BOX_MAX_SIZE
                assert BOX_MIN_SIZE <= box.y2 - box.y1 <= BOX_MAX_SIZE
            assert present == set(np.nonzero(scene.image_label)[0])
            boxes = [b for _, b in scene.gt]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) <= GT_MAX_OVERLAP + 1e-12


def test_zero_jitter_reproduces_gt_as_leading_proposals():
    cfg = WorldConfig(seed=3, jitter=0.0)
    world = make_world(cfg)
    for k in range(10):
        scene = sample_scene(world, "target", "weak", substream(3, "zj", k))
        for (cls, gt_box), prop in zip(scene.gt, scene.proposals):
            assert prop.as_tuple() == gt_box.as_tuple()


def test_proposal_count_respects_config_override():
    for k in (16, 64):
        cfg = WorldConfig(seed=4, proposals_per_scene=k)
        world = make_world(cfg)
        scene = sample_scene(world, "target", "weak", substream(4, "pk"))
        assert len(scene.proposals) == k


def scalar_scene(world, domain, rng):
    """Replay sample_scene's draws one scalar at a time: classes, GT boxes,
    the grid painted cell by cell, then proposals, each pool box drawn by
    ``_sample_box`` and, in descending score order, kept iff it overlaps no
    jittered GT box and no earlier kept box above 0.75.  Returns the grid,
    the GT as (class, corners) pairs and the proposal corners."""
    cfg = world.config
    k = cfg.proposals_per_scene
    lo, hi = cfg.objects_per_scene
    n = int(rng.integers(lo, hi + 1))
    classes = [int(rng.integers(0, cfg.classes_in(domain)))]
    for _ in range(n - 1):
        if rng.uniform() < CLASS_REPEAT_AFFINITY:
            classes.append(classes[-1])
        else:
            classes.append(int(rng.integers(0, cfg.classes_in(domain))))
    boxes = synthworld._sample_gt_boxes(rng, n)
    height, width, dim = cfg.grid_height, cfg.grid_width, cfg.raw_dim
    noise = rng.standard_normal((height, width, dim))
    grid = np.zeros((height, width, dim))
    for i in range(height):
        for j in range(width):
            cx, cy = (j + 0.5) / width, (i + 0.5) / height
            covered = False
            for cls, b in zip(classes, boxes):
                if b.x1 <= cx <= b.x2 and b.y1 <= cy <= b.y2:
                    grid[i, j] += world.prototypes[world.prototype_index(domain, cls)]
                    covered = True
            if not covered:
                grid[i, j] += cfg.clutter_sigma * world.background_prototype
            grid[i, j] += cfg.noise_sigma * noise[i, j]
    proposals = [synthworld._jitter_box(rng, b, cfg.jitter).as_tuple() for b in boxes]
    pool = [synthworld._sample_box(rng).as_tuple() for _ in range(2 * k)]
    scores = rng.uniform(0.0, 1.0, size=len(pool))
    for i in sorted(range(len(pool)), key=lambda i: (-scores[i], i)):
        if len(proposals) >= k:
            break
        if all(ref_iou(pool[i], kept) <= PROPOSAL_NMS_THRESHOLD for kept in proposals):
            proposals.append(pool[i])
    while len(proposals) < k:
        proposals.append(synthworld._sample_box(rng).as_tuple())
    return grid, [(c, b.as_tuple()) for c, b in zip(classes, boxes)], proposals


@pytest.mark.parametrize(
    "k, objects", [(3, (3, 3)), (4, (1, 3)), (16, (1, 3)), (32, (1, 3)), (64, (2, 5))]
)
def test_sample_scene_proposals_match_scalar_dedup_oracle(k, objects):
    # k == 3 with three objects leaves no room after the jittered GT boxes
    for seed in (0, 1, 2):
        world = make_world(
            WorldConfig(seed=seed, proposals_per_scene=k, objects_per_scene=objects)
        )
        for domain in ("source", "target"):
            rng, oracle_rng = substream(seed, "dedup"), substream(seed, "dedup")
            for _ in range(8):
                scene = sample_scene(world, domain, "weak", rng)
                grid, gt, proposals = scalar_scene(world, domain, oracle_rng)
                assert np.array_equal(scene.raw_grid, grid)
                assert [(c, b.as_tuple()) for c, b in scene.gt] == gt
                assert [b.as_tuple() for b in scene.proposals] == proposals
                # the block draws yield Python floats, as scalar draws do
                assert all(type(v) is float for b in scene.proposals for v in b.as_tuple())
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_coverage_mask_half_plane():
    (mask,) = coverage_masks(8, 8, [BBox(0.0, 0.0, 0.5, 1.0)])
    expected = np.zeros((8, 8), dtype=bool)
    expected[:, :4] = True
    assert np.array_equal(mask, expected)


def test_coverage_mask_single_and_empty():
    # one cell center at (0.3125, 0.4375) for an 8x8 grid
    mask, tiny = coverage_masks(
        8, 8, [BBox(0.28, 0.40, 0.35, 0.47), BBox(0.126, 0.126, 0.13, 0.13)]
    )
    assert mask.sum() == 1
    assert mask[3, 2]
    assert not tiny.any()


def test_scene_grid_composition():
    # with zero noise the grid is exactly prototypes on covered cells and
    # scaled background elsewhere
    cfg = WorldConfig(seed=6, noise_sigma=0.0)
    world = make_world(cfg)
    scene = sample_scene(world, "target", "full", substream(6, "paint"))
    covered = np.zeros((8, 8), dtype=bool)
    expected = np.zeros_like(scene.raw_grid)
    for cls, box in scene.gt:
        (cov,) = coverage_masks(8, 8, [box])
        proto = world.prototypes[world.prototype_index("target", cls)]
        expected += cov[:, :, None] * proto
        covered |= cov
    expected += (
        (~covered)[:, :, None] * cfg.clutter_sigma * world.background_prototype
    )
    assert np.allclose(scene.raw_grid, expected, atol=1e-12)


def test_world_round_trip(tmp_path):
    world = make_world(WorldConfig(seed=9, jitter=0.2, noise_sigma=0.25))
    path = tmp_path / "world.txt"
    save_world(path, world)
    loaded = load_world(path)
    assert loaded.config == world.config
    assert np.array_equal(loaded.prototypes, world.prototypes)


def test_world_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "world.txt"
    path.write_text("not a world\n")
    with pytest.raises(ValueError, match="not a world file"):
        load_world(path)


def test_world_file_rejects_shape_mismatch(tmp_path):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    del lines[-1]  # drop one prototype row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="does not match"):
        load_world(path)


@pytest.mark.parametrize(
    "line",
    ["config seed", "config seed x", "config jitter", "config objects_per_scene 1",
     "config colour 3", "config "],
)
def test_world_file_rejects_corrupt_config_line(tmp_path, line):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    seed_line = lines.index("config seed 9")
    lines[seed_line] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="config"):
        load_world(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines, i: lines.__setitem__(i, "config"), "unknown config field"),
        (lambda lines, i: lines.pop(i), "missing config line.*seed"),
        (lambda lines, i: lines.pop(i - 1), "missing config line.*objects_per_scene"),
        (lambda lines, i: lines.insert(i + 1, "config seed 3"), "more than once"),
        (lambda lines, i: lines.insert(i, "config seed 9"), "more than once"),
    ],
    ids=["bare", "seed_dropped", "other_dropped", "repeated", "repeated_same"],
)
def test_world_file_needs_each_config_field_once(tmp_path, edit, message):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    edit(lines, lines.index("config seed 9"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_world(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ("seed 3", "does not match config seed 9"),
        ("seed x", "does not match config seed 9"),
        ("seed", "exactly one 'seed <n>'"),
        ("seed 9\nseed 9", "exactly one 'seed <n>'"),
        ("", "exactly one 'seed <n>'"),
    ],
    ids=["other_seed", "non_numeric", "bare", "repeated", "dropped"],
)
def test_world_file_seed_header_must_match_config(tmp_path, header, message):
    # the prototypes are made from the header's seed, the config from its
    # own line: a file where they disagree is corrupt
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    assert lines[1] == "seed 9"
    lines[1:2] = header.splitlines()
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_world(path)


def test_scenes_round_trip(tmp_path):
    world = make_world(WorldConfig(seed=10))
    scenes = sample_scenes(world, "target", "weak", substream(10, "rt"), 5)
    scenes += sample_scenes(world, "source", "full", substream(10, "rt2"), 3)
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, scenes)
    config, loaded = load_scenes(path)
    assert config == world.config
    assert len(loaded) == len(scenes)
    for a, b in zip(scenes, loaded):
        assert np.array_equal(a.raw_grid, b.raw_grid)
        assert a.gt == b.gt
        assert a.proposals == b.proposals
        assert np.array_equal(a.image_label, b.image_label)
        assert a.annotation_mode == b.annotation_mode
        assert a.domain == b.domain


def test_scenes_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "scenes.txt"
    path.write_text("# transferdet world v1\n")
    with pytest.raises(ValueError, match="not a scene set"):
        load_scenes(path)
