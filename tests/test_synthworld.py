"""World generation tests: prototypes, scene sampling, serialization."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.geometry import BBox, coverage_masks, iou
from transferdet.synthworld import (
    BOX_MAX_SIZE,
    BOX_MIN_SIZE,
    CLASS_REPEAT_AFFINITY,
    DOMAINS,
    GT_MAX_OVERLAP,
    MODES,
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

from reference import (
    REF_BOX_MAX_SIZE,
    REF_BOX_MIN_SIZE,
    REF_CLASS_REPEAT_AFFINITY,
    REF_GT_MAX_OVERLAP,
    REF_PROPOSAL_NMS_THRESHOLD,
    ref_sample_scene,
    ref_scene_set_text,
)
from memtrace import traced


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


def test_scene_checks_and_freezes_its_proposal_array():
    world = make_world(WorldConfig(seed=0))
    scene = sample_scene(world, "target", "weak", substream(0, "s"))
    assert scene.proposals.shape == (32, 4) and scene.proposals.dtype == float
    assert not scene.proposals.flags.writeable
    with pytest.raises(ValueError):
        scene.proposals[0, 0] = 0.5
    rows = scene.proposals.copy()
    copy = replace(scene, proposals=rows)
    rows[0, 0] = 0.0
    assert copy.proposals.tobytes() == scene.proposals.tobytes()  # a copy is kept
    assert replace(scene, proposals=np.empty((0, 4))).proposals.shape == (0, 4)
    assert replace(scene, proposals=[(0.0, 0.0, 1.0, 1.0)]).proposals.shape == (1, 4)

    inverted = scene.proposals.copy()
    inverted[3] = inverted[3, [2, 3, 0, 1]]
    with pytest.raises(ValueError, match=r"^invalid proposal 3 \(.*need 0 <= x1 < x2"):
        replace(scene, proposals=inverted)
    for bad in (np.nan, np.inf, -np.inf):
        corners = scene.proposals.copy()
        corners[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite proposal corner"):
            replace(scene, proposals=corners)
    for corners in ([(0.2, 0.1, 0.2, 0.5)], [(0.2, 0.1, 1.2, 0.5)], [(-0.1, 0.1, 0.2, 0.5)]):
        with pytest.raises(ValueError, match="^invalid proposal 0"):
            replace(scene, proposals=corners)
    for shape in (scene.proposals[0], scene.proposals[:, :3], scene.proposals[None]):
        with pytest.raises(ValueError, match=r"\(K, 4\) corner rows"):
            replace(scene, proposals=shape)
    with pytest.raises(ValueError, match=r"\(K, 4\) corner rows"):
        replace(scene, proposals=(BBox(0.1, 0.1, 0.5, 0.5),))


@pytest.mark.parametrize("corners", ["0.5 0.1 0.2 0.6", "0.1 0.1 0.4 nan"])
def test_scenes_file_names_the_prop_line_of_a_bad_box(tmp_path, corners):
    world = make_world(WorldConfig(seed=11))
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, sample_scenes(world, "target", "full", substream(11, "c"), 2))
    lines = path.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if ln.startswith("prop ")][40]
    lines[row] = "prop " + corners
    path.write_text("".join(ln + "\n" for ln in lines))
    expected = rf"^line {row + 1}: invalid box \({corners.replace(' ', ', ')}\): need 0 <="
    with pytest.raises(ValueError, match=expected):
        load_scenes(path)


def test_sample_scene_is_deterministic():
    world = make_world(WorldConfig(seed=2))
    a = sample_scene(world, "target", "full", substream(2, "probe"))
    b = sample_scene(world, "target", "full", substream(2, "probe"))
    assert np.array_equal(a.raw_grid, b.raw_grid)
    assert a.gt == b.gt
    assert np.array_equal(a.proposals, b.proposals)
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
            assert tuple(prop.tolist()) == gt_box.as_tuple()


def test_proposal_count_respects_config_override():
    for k in (16, 64):
        cfg = WorldConfig(seed=4, proposals_per_scene=k)
        world = make_world(cfg)
        scene = sample_scene(world, "target", "weak", substream(4, "pk"))
        assert len(scene.proposals) == k


def test_reference_sampler_constants_are_the_modules():
    assert (BOX_MIN_SIZE, BOX_MAX_SIZE, GT_MAX_OVERLAP) == (
        REF_BOX_MIN_SIZE, REF_BOX_MAX_SIZE, REF_GT_MAX_OVERLAP
    )
    assert (PROPOSAL_NMS_THRESHOLD, CLASS_REPEAT_AFFINITY) == (
        REF_PROPOSAL_NMS_THRESHOLD, REF_CLASS_REPEAT_AFFINITY
    )


@pytest.mark.parametrize(
    "k, jitter, objects",
    [
        (k, jitter, objects)
        for k in (3, 16, 32, 64)
        for jitter in (0.0, 0.15)
        for objects in ((1, 3), (3, 3))
    ] + [(4, 0.15, (1, 3)), (64, 0.15, (2, 5))],
)
def test_sample_scene_proposals_match_scalar_dedup_oracle(k, jitter, objects):
    # k == 3 with three objects leaves no room after the jittered GT boxes
    for seed in range(100, 120):
        world = make_world(
            WorldConfig(
                seed=seed, proposals_per_scene=k, jitter=jitter, objects_per_scene=objects
            )
        )
        for domain in ("source", "target"):
            rng, oracle_rng = substream(seed, "dedup"), substream(seed, "dedup")
            for _ in range(2):
                scene = sample_scene(world, domain, "weak", rng)
                grid, gt, proposals, label = ref_sample_scene(world, domain, oracle_rng)
                assert np.array_equal(scene.raw_grid, grid)
                assert [(c, b.as_tuple()) for c, b in scene.gt] == gt
                assert scene.proposals.dtype == float
                assert scene.proposals.tobytes() == np.array(proposals).tobytes()
                assert scene.image_label.tolist() == label
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
    "row",
    [
        "prototype nan" + " 0.25" * 15,
        "prototype" + " 0.25" * 15 + " -inf",
        "prototype" + " 0.25" * 15,
        "prototype" + " 0.25" * 17,
        "prototype 0.25 x" + " 0.25" * 14,
    ],
    ids=["nan", "inf", "short", "long", "non_numeric"],
)
def test_world_file_rejects_bad_prototype_row_naming_its_line(tmp_path, row):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    at = [i for i, ln in enumerate(lines) if ln.startswith("prototype ")][2]
    lines[at] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {at + 1}: expected 'prototype' and 16 finite"):
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


@pytest.mark.parametrize(
    "stray, where",
    [
        ("garbage line here", "after_first_config"),
        ("prototype_extra 1 2", "end"),
        ("count 3", "end"),
        ("# transferdet world v1", "after_first_config"),
        ("  stray indented words", "before_seed"),
    ],
    ids=["garbage", "prototype_prefix", "scene_set_header", "second_magic", "indented"],
)
def test_world_file_rejects_a_stray_line_naming_it(tmp_path, stray, where):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    first_config = next(i for i, ln in enumerate(lines) if ln.startswith("config "))
    at = {"after_first_config": first_config + 1, "end": len(lines), "before_seed": 1}[where]
    lines.insert(at, stray)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {at + 1}: expected a 'seed', 'config'"):
        load_world(path)


def test_world_file_allows_blank_lines(tmp_path):
    world = make_world(WorldConfig(seed=9))
    path = tmp_path / "world.txt"
    save_world(path, world)
    lines = path.read_text().splitlines()
    lines[2:2] = ["", "   "]
    path.write_text("\n".join(lines) + "\n\n")
    loaded = load_world(path)
    assert loaded.config == world.config
    assert np.array_equal(loaded.prototypes, world.prototypes)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scene_rejects_a_non_finite_raw_grid(value):
    world = make_world(WorldConfig(seed=9))
    scene = sample_scenes(world, "target", "full", substream(9, "finite"), 1)[0]
    grid = scene.raw_grid.copy()
    grid[3, 4, 5] = value
    with pytest.raises(ValueError, match="non-finite raw grid"):
        replace(scene, raw_grid=grid)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_scenes_file_with_a_non_finite_cell_names_its_scene_line(tmp_path, value):
    world = make_world(WorldConfig(seed=11))
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, sample_scenes(world, "target", "full", substream(11, "c"), 3))
    lines = path.read_text().splitlines()
    scene_lines = [i for i, ln in enumerate(lines) if ln.startswith("scene ")]
    row = scene_lines[1] + 7  # a cell row of the second scene
    words = lines[row].split()
    words[3] = value
    lines[row] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {scene_lines[1] + 1}: .*non-finite raw grid"):
        load_scenes(path)


def assert_same_scenes(loaded, scenes):
    assert len(loaded) == len(scenes)
    for a, b in zip(scenes, loaded):
        assert np.array_equal(a.raw_grid, b.raw_grid)
        assert a.raw_grid.tobytes() == b.raw_grid.tobytes()
        assert a.gt == b.gt
        assert a.proposals.tobytes() == b.proposals.tobytes()
        assert np.array_equal(a.image_label, b.image_label)
        assert a.annotation_mode == b.annotation_mode
        assert a.domain == b.domain


def test_scenes_round_trip(tmp_path):
    world = make_world(WorldConfig(seed=10))
    scenes = sample_scenes(world, "target", "weak", substream(10, "rt"), 5)
    scenes += sample_scenes(world, "source", "full", substream(10, "rt2"), 3)
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, scenes)
    config, loaded = load_scenes(path)
    assert config == world.config
    assert_same_scenes(loaded, scenes)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.sampled_from([(8, 8), (3, 5), (1, 1)]),
    kinds=st.lists(st.tuples(st.sampled_from(DOMAINS), st.sampled_from(MODES)), max_size=6),
    chunk_rows=st.sampled_from([1, 15, 64, 100, synthworld.SCENE_CHUNK_ROWS]),
)
def test_scene_set_file_equals_the_whole_file_oracle_and_round_trips(
    seed, grid, kinds, chunk_rows
):
    # 0-6 scenes of any domain and mode, read in chunks of whole scenes
    # that hold one scene's rows or fewer, some scenes' rows, or all of them
    world = make_world(WorldConfig(seed=seed, grid_height=grid[0], grid_width=grid[1]))
    rng = substream(seed, "file")
    scenes = [sample_scene(world, domain, mode, rng) for domain, mode in kinds]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthworld, "SCENE_CHUNK_ROWS", chunk_rows)
        path = Path(tmp) / "scenes.txt"
        save_scenes(path, world, scenes)
        assert path.read_text() == ref_scene_set_text(world.config, scenes)
        config, loaded = load_scenes(path)
    assert config == world.config
    assert_same_scenes(loaded, scenes)


def test_scenes_file_allows_blank_lines_between_records(tmp_path):
    world = make_world(WorldConfig(seed=10))
    scenes = sample_scenes(world, "target", "weak", substream(10, "blank"), 3)
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, scenes)
    text = path.read_text().replace("\nscene ", "\n\n  \t\nscene ")
    path.write_text(text + "\n \n")
    assert_same_scenes(load_scenes(path)[1], scenes)


def test_scene_set_memory_is_bounded_by_a_chunk(tmp_path):
    # the writer holds one record at a time, and the reader's memory beyond
    # the scenes it returns does not grow with the file (whole-file buffers
    # would make it grow about fourfold from 50 to 200 scenes)
    world = make_world(WorldConfig(seed=12))
    scenes = sample_scenes(world, "target", "full", substream(12, "mem"), 200)
    paths = {n: tmp_path / f"scenes{n}.txt" for n in (50, 200)}
    _, save_peak, _ = traced(lambda: save_scenes(paths[200], world, scenes))
    assert save_peak < 1_000_000
    save_scenes(paths[50], world, scenes[:50])
    transient = {}
    for n, path in paths.items():
        (_, loaded), peak, held = traced(lambda: load_scenes(path))
        assert len(loaded) == n
        transient[n] = peak - held
    assert transient[200] <= 1.5 * transient[50]


def test_scenes_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "scenes.txt"
    path.write_text("# transferdet world v1\n")
    with pytest.raises(ValueError, match="not a scene set"):
        load_scenes(path)


CELL_EDITS = {
    "one value too many": lambda values: values + ["0.5"],
    "one value too few": lambda values: values[:-1],
    "a comment mark for a value": lambda values: values[:3] + ["#"] + values[4:],
    "a comment mark between values": lambda values: values[:3] + ["#"] + values[3:-1],
    "a trailing comment": lambda values: values + ["#", "note"],
    "no values": lambda values: [""],
    "a number with a suffix": lambda values: values[:5] + ["0.1x"] + values[6:],
    "a word": lambda values: values[:5] + ["one"] + values[6:],
}


@pytest.mark.parametrize("edit", sorted(CELL_EDITS))
@pytest.mark.parametrize("which", [0, 1, -1])
def test_scenes_file_rejects_malformed_cell_row(tmp_path, edit, which):
    # the first and second cell rows of scene 0, and the last of scene 1
    assert_cell_edit_named(tmp_path, edit, which)


@pytest.mark.parametrize("edit", sorted(CELL_EDITS))
@pytest.mark.parametrize("which", [0, 63, 64, 65, -1])
def test_scenes_file_names_a_malformed_cell_row_in_a_later_chunk(
    tmp_path, monkeypatch, edit, which
):
    # one chunk per scene of the 8x8 grid: rows 64 on are the second chunk's
    monkeypatch.setattr(synthworld, "SCENE_CHUNK_ROWS", 64)
    assert_cell_edit_named(tmp_path, edit, which)


def assert_cell_edit_named(tmp_path, edit, which):
    """Cell row ``which`` of a two-scene file, edited, is named by line."""
    world = make_world(WorldConfig(seed=11))
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, sample_scenes(world, "target", "full", substream(11, "c"), 2))
    lines = path.read_text().splitlines()
    cells = [i for i, ln in enumerate(lines) if ln.startswith("cell ")]
    row = cells[which]
    values = lines[row].split()[1:]
    lines[row] = " ".join(["cell"] + CELL_EDITS[edit](values))
    path.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(ValueError, match=f"line {row + 1}: expected 'cell' and"):
        load_scenes(path)


def test_scenes_file_rejects_a_record_line_in_place_of_a_cell_row(tmp_path):
    world = make_world(WorldConfig(seed=11))
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, sample_scenes(world, "target", "full", substream(11, "c"), 1))
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("cell "))
    lines[row] = "prop" + lines[row][len("cell"):]
    path.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(ValueError, match=f"line {row + 1}: expected 'cell'"):
        load_scenes(path)


def test_scenes_file_rejects_cell_rows_of_another_width(tmp_path):
    # every row parses, but as raw_dim - 1 values
    world = make_world(WorldConfig(seed=11))
    path = tmp_path / "scenes.txt"
    save_scenes(path, world, sample_scenes(world, "target", "full", substream(11, "c"), 2))
    dim = world.config.raw_dim
    text = path.read_text().replace(f"config raw_dim {dim}\n", f"config raw_dim {dim + 1}\n")
    path.write_text(text)
    with pytest.raises(ValueError, match="expected 'cell' and"):
        load_scenes(path)
