"""Model tests: linear backbone, ROI pooling, heads, Adam, checkpoints."""

import numpy as np
import pytest

from transferdet.geometry import BBox, coverage_masks
from transferdet.model import (
    FEATURE_GAIN,
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
    load_model,
    pool_raw_means,
    pooling_index,
    save_model,
)
from transferdet.numerics import column_softmax
from transferdet.pipeline import anchor_boxes
from transferdet.synthworld import WorldConfig, make_world, sample_scenes, substream

from reference import random_boxes, ref_pool


def small_model(rng, with_sdk=True, rol=0, source_classes=6):
    backbone = init_backbone(16, rng)
    return DetectorModel(
        backbone=backbone,
        main_head=init_head(4, 16, rng),
        sdk_head=init_head(source_classes, 16, rng) if with_sdk else None,
        rol_heads=[init_head(4, 16, rng) for _ in range(rol)],
        source_classes=source_classes,
    )


def model_blocks(rng):
    """The blocks of a model with an SDK head over 6 source classes and 2
    ROL heads, by name."""
    model = small_model(rng, rol=2)
    return {name: getattr(model, name)
            for name in ("backbone", "main_head", "sdk_head", "rol_heads")}


# What a model says of each block that is not finite or of another rank.
BLOCK_MESSAGES = {
    "backbone": "backbone map must be a finite 2-D matrix",
    "main_head": "head weights must be a finite 2-D matrix",
    "sdk_head": "head weights must be a finite 2-D matrix",
    "rol_heads": "rol heads must be a finite 3-D array",
}


@pytest.mark.parametrize("name", sorted(BLOCK_MESSAGES))
def test_detector_model_rejects_a_block_of_another_rank(name):
    blocks = model_blocks(np.random.default_rng(0))
    blocks[name] = blocks[name].ravel()
    with pytest.raises(ValueError, match=f"^{BLOCK_MESSAGES[name]}$"):
        DetectorModel(**blocks, source_classes=6)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(BLOCK_MESSAGES))
def test_detector_model_rejects_a_non_finite_block(name, value):
    blocks = model_blocks(np.random.default_rng(0))
    blocks[name].flat[-1] = value
    with pytest.raises(ValueError, match=f"^{BLOCK_MESSAGES[name]}$"):
        DetectorModel(**blocks, source_classes=6)


@pytest.mark.parametrize("name", ["backbone", "main_head", "sdk_head", "rol_heads"])
def test_detector_model_rejects_a_feature_dim_mismatch(name):
    # one feature fewer in the backbone, or one weight column fewer in a head
    blocks = model_blocks(np.random.default_rng(0))
    blocks[name] = blocks[name][1:] if name == "backbone" else blocks[name][..., 1:]
    head, backbone = (15, 16) if name != "backbone" else (16, 15)
    message = f"^head feature dim {head} != backbone feature dim {backbone}$"
    with pytest.raises(ValueError, match=message):
        DetectorModel(**blocks, source_classes=6)


def test_detector_model_holds_float_blocks_and_stacks_rol_heads():
    eye = np.eye(2, dtype=int)
    head = np.zeros((3, 3), dtype=int)
    model = DetectorModel(backbone=eye, main_head=head)
    assert model.backbone.dtype == model.main_head.dtype == float
    assert model.sdk_head is None and model.rol_heads.shape == (0, 3, 3)
    stacked = DetectorModel(backbone=eye, main_head=head, rol_heads=[head, head + 1])
    assert stacked.rol_heads.shape == (2, 3, 3) and stacked.rol_heads.dtype == float
    assert np.array_equal(stacked.rol_heads[1], head + 1)


def test_detector_model_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sdk head rows"):
        DetectorModel(
            backbone=init_backbone(16, rng),
            main_head=init_head(4, 16, rng),
            sdk_head=init_head(3, 16, rng),
            source_classes=6,
        )


def test_source_knowledge_head_selection():
    rng = np.random.default_rng(1)
    model = small_model(rng)
    assert model.source_knowledge_head() is model.sdk_head

    source_only = DetectorModel(
        backbone=init_backbone(16, rng),
        main_head=init_head(6, 16, rng),
        source_classes=6,
    )
    assert source_only.source_knowledge_head() is source_only.main_head

    target_only = DetectorModel(
        backbone=init_backbone(16, rng),
        main_head=init_head(4, 16, rng),
        source_classes=6,
    )
    with pytest.raises(ValueError, match="source classes"):
        target_only.source_knowledge_head()


def test_init_backbone_is_scaled_orthogonal():
    rng = np.random.default_rng(3)
    square = init_backbone(16, rng)
    assert square.shape == (16, 16)
    assert np.allclose(square @ square.T, FEATURE_GAIN**2 * np.eye(16), atol=1e-9)
    assert np.allclose(square.T @ square, FEATURE_GAIN**2 * np.eye(16), atol=1e-9)
    again = init_backbone(16, np.random.default_rng(3))
    assert np.array_equal(again, square)


def test_init_head_shape_and_scale():
    rng = np.random.default_rng(4)
    head = init_head(4, 16, rng)
    assert head.shape == (5, 17)
    assert np.abs(head).max() < 0.2


def test_roi_pool_means_covered_cells():
    rng = np.random.default_rng(6)
    grid = rng.standard_normal((4, 4, 2))
    # 4x4 cell centers at 0.125, 0.375, 0.625, 0.875
    single, pair = pool_raw_means(
        grid, [BBox(0.0, 0.0, 0.26, 0.26), BBox(0.0, 0.0, 0.6, 0.3)]
    )
    assert np.allclose(single, grid[0, 0], atol=1e-12)
    assert np.allclose(pair, 0.5 * (grid[0, 0] + grid[0, 1]), atol=1e-12)
    assert pool_raw_means(grid, []).shape == (0, 2)


def test_roi_pool_empty_box_falls_back_to_nearest_cell():
    rng = np.random.default_rng(7)
    grid = rng.standard_normal((4, 4, 2))
    # covers no cell center; box center (0.325, 0.325) is nearest (0.375, 0.375)
    (pooled,) = pool_raw_means(grid, [BBox(0.3, 0.3, 0.35, 0.35)])
    assert np.allclose(pooled, grid[1, 1], atol=1e-12)


def tuples(boxes):
    return [b.as_tuple() for b in boxes]


def test_pooling_index_pads_past_the_last_cell():
    # 4x4 cell centers at 0.125, 0.375, 0.625, 0.875; the last box covers
    # none and falls back to cell (1, 1), flat index 5
    boxes = [
        BBox(0.0, 0.0, 0.26, 0.26),
        BBox(0.0, 0.0, 0.6, 0.3),
        BBox(0.3, 0.3, 0.35, 0.35),
    ]
    index, counts = pooling_index(4, 4, boxes)
    assert counts.tolist() == [1, 2, 1]
    assert index.tolist() == [[0, 16], [0, 1], [5, 16]]
    index, counts = pooling_index(4, 4, [])
    assert index.shape == (0, 0) and counts.shape == (0,)


@pytest.mark.parametrize("k", [16, 32, 64])
def test_pool_raw_means_bit_identical_to_per_box_mean(k):
    world = make_world(WorldConfig(seed=k, proposals_per_scene=k))
    for scene in sample_scenes(world, "target", "weak", substream(k, "pool"), 25):
        got = pool_raw_means(scene.raw_grid, scene.proposals)
        assert np.array_equal(got, ref_pool(scene.raw_grid, scene.proposals.tolist()))


def test_pool_raw_means_bit_identical_on_anchor_lattice():
    rng = np.random.default_rng(21)
    anchors = anchor_boxes(8, 8)
    assert len(anchors) == 384
    for _ in range(10):
        grid = rng.standard_normal((8, 8, 16))
        assert np.array_equal(
            pool_raw_means(grid, anchors), ref_pool(grid, tuples(anchors))
        )


def test_pool_raw_means_bit_identical_on_boxes_covering_no_center():
    rng = np.random.default_rng(22)
    tiny = [BBox(*t) for t in random_boxes(rng, 30, lo=0.01, hi=0.1)]
    large = [BBox(*t) for t in random_boxes(rng, 30, lo=0.2, hi=0.9)]
    # centered on cell corners of the 8x8 grid: four nearest cells tie
    ties = [BBox(a - 0.01, b - 0.01, a + 0.01, b + 0.01)
            for a in (0.25, 0.5, 0.875) for b in (0.125, 0.625)]
    tiny += ties
    boxes = [b for pair in zip(tiny, large) for b in pair] + ties
    assert (~coverage_masks(8, 8, tiny).any(axis=(1, 2))).sum() >= 16
    for shape in ((8, 8, 16), (5, 7, 3)):
        grid = rng.standard_normal(shape)
        for chunk in (tiny, boxes):
            assert np.array_equal(
                pool_raw_means(grid, chunk), ref_pool(grid, tuples(chunk))
            )


def test_forward_grid_matches_per_cell_map():
    # The feature grid the BD term reads is the backbone applied to every cell.
    rng = np.random.default_rng(5)
    backbone = rng.standard_normal((3, 4))
    raw = rng.standard_normal((2, 5, 4))
    out = np.einsum("do,hwo->hwd", backbone, raw)
    assert out.shape == (2, 5, 3)
    for i in range(2):
        for j in range(5):
            assert np.allclose(out[i, j], backbone @ raw[i, j], atol=1e-12)


def test_forward_cache_consistency():
    # Pooling raw means and then mapping equals mapping every cell (the
    # feature grid) and then pooling: training relies on this to pool once.
    rng = np.random.default_rng(8)
    backbone = init_backbone(16, rng)[:10]
    raw = rng.standard_normal((8, 8, 16))
    feature_grid = np.einsum("do,hwo->hwd", backbone, raw)
    boxes = [BBox(0.1, 0.1, 0.4, 0.4), BBox(0.5, 0.5, 0.9, 0.8), BBox(0.3, 0.3, 0.35, 0.35)]
    features = pool_raw_means(raw, boxes) @ backbone.T
    assert features.shape == (3, 10)
    assert np.allclose(features, pool_raw_means(feature_grid, boxes), atol=1e-10)
    assert (pool_raw_means(raw, []) @ backbone.T).shape == (0, 10)


def test_score_proposals_shapes_and_softmax():
    rng = np.random.default_rng(9)
    head = init_head(4, 6, rng)
    pooled = rng.standard_normal((7, 6))
    logits = head_logits(head, pooled)
    assert logits.shape == (5, 7)
    for k in range(7):
        for c in range(5):
            manual = head[c, :-1] @ pooled[k] + head[c, -1]
            assert logits[c, k] == pytest.approx(manual, abs=1e-12)
    probs = column_softmax(logits)
    assert probs.shape == (5, 7)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_head_grads_match_manual_products():
    rng = np.random.default_rng(10)
    head = init_head(3, 5, rng)
    features = rng.standard_normal((6, 5))
    dlogits = rng.standard_normal((4, 6))
    dweights, dfeatures = head_backward(head, features, dlogits)
    assert np.allclose(dweights[:, :-1], dlogits @ features, atol=1e-12)
    assert np.allclose(dweights[:, -1], dlogits.sum(axis=1), atol=1e-12)
    assert np.allclose(dfeatures, dlogits.T @ head[:, :-1], atol=1e-12)


def test_optimizer_config_pinned_defaults():
    cfg = OptimizerConfig()
    assert cfg.learning_rate == 2e-4
    assert cfg.beta1 == 0.9
    assert cfg.beta2 == 0.99
    assert cfg.weight_decay == 1e-4
    assert cfg.lr_decay_factor == 0.1
    assert cfg.epsilon == 1e-8
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(beta1=1.0)


def scalar_adam(params, grads, m, v, t, cfg, lr):
    """The textbook Adam update, one coordinate at a time; updates ``m``
    and ``v`` and returns the new parameters."""
    out = params.copy()
    for i in range(len(params)):
        g = grads[i] + cfg.weight_decay * params[i]
        m[i] = cfg.beta1 * m[i] + (1 - cfg.beta1) * g
        v[i] = cfg.beta2 * v[i] + (1 - cfg.beta2) * g * g
        m_hat = m[i] / (1 - cfg.beta1**t)
        v_hat = v[i] / (1 - cfg.beta2**t)
        out[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return out


def test_adam_step_matches_scalar_recurrence():
    rng = np.random.default_rng(12)
    cfg = OptimizerConfig()
    layout = ParamLayout.of({"w": np.zeros((3, 2)), "b": np.zeros(4)})
    current = rng.standard_normal(10)
    state = AdamState.zeros(10)
    m = np.zeros(10)
    v = np.zeros(10)
    for t in range(1, 6):
        grads = rng.standard_normal(10)
        expected = scalar_adam(current, grads, m, v, t, cfg, cfg.learning_rate)
        adam_step(current, grads, state, cfg, layout)
        assert np.all(np.abs(current - expected) <= 1e-15)
    assert state.step == 5


def test_adam_step_is_pure_and_supports_lr_override():
    # The step updates the parameters and the moments in place, bit for bit
    # as the scalar recurrence, and reads the gradients only.
    rng = np.random.default_rng(13)
    cfg = OptimizerConfig()
    layout = ParamLayout.of({"w": np.zeros(5)})
    before = rng.standard_normal(5)
    grads = rng.standard_normal(5)
    grads_before = grads.copy()
    moved = {}
    for lr in (2e-3, None):
        params = before.copy()
        state = AdamState.zeros(5)
        m, v = state.m, state.v
        want_m, want_v = np.zeros(5), np.zeros(5)
        want = scalar_adam(
            before, grads, want_m, want_v, 1, cfg,
            cfg.learning_rate if lr is None else lr,
        )
        adam_step(params, grads, state, cfg, layout, learning_rate=lr)
        assert np.array_equal(params, want)
        assert state.m is m and state.v is v
        assert np.array_equal(state.m, want_m) and np.array_equal(state.v, want_v)
        assert state.step == 1
        assert np.array_equal(grads, grads_before)
        moved[lr] = np.abs(params - before)
    assert np.all(moved[2e-3] > moved[None])


def test_adam_step_rejects_nonfinite_gradients():
    cfg = OptimizerConfig()
    layout = ParamLayout.of({"w": np.ones(3), "b": np.ones((2, 2))})
    params = layout.flatten({"w": np.ones(3), "b": np.ones((2, 2))})
    state = AdamState.zeros(7)
    adam_step(params, np.full(7, 0.5), state, cfg, layout)
    params_before, m, v = params.copy(), state.m.copy(), state.v.copy()
    for bad, block in ((1, "w"), (3, "b"), (6, "b")):
        grads = np.zeros(7)
        grads[bad] = [np.nan, np.inf, -np.inf][bad % 3]
        message = f"non-finite gradient in parameter block '{block}'"
        with pytest.raises(ValueError, match=message):
            adam_step(params, grads, state, cfg, layout)
        # nothing is written on rejection
        assert np.array_equal(params, params_before)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.step == 1


def test_param_layout_views_share_one_buffer():
    rng = np.random.default_rng(15)
    blocks = {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((5,)),
              "c": rng.standard_normal((2, 1, 3))}
    layout = ParamLayout.of(blocks)
    assert layout.names == ("a", "b", "c")
    assert layout.stops == (24, 29, 35)
    buffer = layout.flatten(blocks)
    assert buffer.shape == (35,) and buffer.flags.c_contiguous
    views = layout.views(buffer)
    for name, block in blocks.items():
        assert views[name].shape == block.shape
        assert np.array_equal(views[name], block)
        assert np.shares_memory(views[name], buffer)
    buffer[...] = 0.0
    assert not any(views[name].any() for name in views)
    assert [layout.block_at(i) for i in (0, 23, 24, 28, 29, 34)] == list("aabbcc")
    # gradients shaped like the blocks, even non-contiguous ones, join in
    # buffer order
    grads = {"a": blocks["a"].transpose(0, 2, 1).copy().transpose(0, 2, 1),
             "b": blocks["b"], "c": blocks["c"]}
    assert np.array_equal(layout.flatten(grads), layout.flatten(blocks))


def test_extract_sdk_returns_teacher_distributions():
    rng = np.random.default_rng(14)
    model = small_model(rng)
    raw = rng.standard_normal((8, 8, 16))
    boxes = [BBox(0.1, 0.1, 0.4, 0.4), BBox(0.4, 0.5, 0.8, 0.9)]
    probs = extract_sdk(model, pool_raw_means(raw, boxes))
    assert probs.shape == (7, 2)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)
    features = pool_raw_means(raw, boxes) @ model.backbone.T
    manual = column_softmax(head_logits(model.sdk_head, features))
    assert np.array_equal(probs, manual)


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(15)
    model = small_model(rng, rol=3)
    path = tmp_path / "model.txt"
    save_model(path, model, seed=17)
    assert "seed 17" in path.read_text()
    loaded = load_model(path)
    assert np.array_equal(loaded.backbone, model.backbone)
    assert np.array_equal(loaded.main_head, model.main_head)
    assert np.array_equal(loaded.sdk_head, model.sdk_head)
    assert loaded.rol_heads.shape == (3, 5, 17)
    assert np.array_equal(loaded.rol_heads, model.rol_heads)
    assert loaded.source_classes == model.source_classes


def test_checkpoint_block_headers_name_each_slot_and_its_role(tmp_path):
    path = tmp_path / "model.txt"
    save_model(path, small_model(np.random.default_rng(19), rol=2))
    headers = [ln for ln in path.read_text().splitlines() if ln.startswith("block ")]
    assert headers == [
        "block backbone shape 16 16",
        "block main_head shape 5 17 role main",
        "block sdk_head shape 7 17 role sdk_branch",
        "block rol_head_0 shape 5 17 role rol_classifier",
        "block rol_head_1 shape 5 17 role rol_classifier",
    ]


def test_checkpoint_without_optional_heads(tmp_path):
    rng = np.random.default_rng(16)
    model = small_model(rng, with_sdk=False, source_classes=0)
    path = tmp_path / "model.txt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.sdk_head is None
    assert loaded.rol_heads.shape == (0, 5, 17)


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("junk\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_model(path)
    path.write_text(
        "# transferdet checkpoint v1\nblock backbone shape 1 1\nrow 1.0\n"
    )
    with pytest.raises(ValueError, match="missing backbone or main head"):
        load_model(path)


def _header(lines, name):
    return next(i for i, ln in enumerate(lines) if ln.startswith(f"block {name} "))


def _rename_rol_heads(lines):
    # rol_head_0 and rol_head_1 saved as rol_head_1 and rol_head_2
    first = _header(lines, "rol_head_0")
    lines = [ln.replace("rol_head_1 ", "rol_head_2 ") for ln in lines]
    lines[first] = lines[first].replace("rol_head_0 ", "rol_head_1 ")
    return lines, first


def _insert(index, line):
    return lambda lines: (lines[:index] + [line] + lines[index:], index)


def _replace_header(name, line):
    def edit(lines):
        i = _header(lines, name)
        return lines[:i] + [line] + lines[i + 1:], i
    return edit


def _repeat_backbone(lines):
    start, stop = _header(lines, "backbone"), _header(lines, "main_head")
    return lines + lines[start:stop], len(lines)


def _bad_row(lines):
    i = _header(lines, "backbone") + 1
    return lines[:i] + ["row 1.0 x"] + lines[i + 1:], i


def _non_finite_in(name, value):
    # the last value of the block's first row; the block's header is named
    def edit(lines):
        i = _header(lines, name)
        row = lines[i + 1].split()[:-1] + [value]
        return lines[:i + 1] + [" ".join(row)] + lines[i + 2:], i
    return edit


def _ragged_rol_head(lines):
    # rol_head_1 one row short of rol_head_0, and its header saying so
    i = _header(lines, "rol_head_1")
    header = "block rol_head_1 shape 4 17 role rol_classifier"
    return lines[:i] + [header] + lines[i + 2:], i


def _short_main_head(lines):
    end = _header(lines, "sdk_head")
    return lines[:end - 1] + lines[end:], _header(lines, "main_head")


# Each malformed checkpoint: an edit of a saved one's lines that returns
# the new lines and the 0-based index of the line the error must name.
MALFORMED_CHECKPOINTS = {
    "rol_heads_not_from_0": (_rename_rol_heads, "rol_head_1 without rol_head_0"),
    "row_before_first_block": (_insert(1, "row 1.0"), "row before the first block"),
    "unknown_line_kind": (_insert(3, "bias 1.0"), "unknown line kind 'bias'"),
    "repeated_block": (_repeat_backbone, "repeated block 'backbone'"),
    "shape_not_an_int": (
        _replace_header("backbone", "block backbone shape four 16"), "invalid literal"
    ),
    "repeated_seed": (_insert(3, "seed 3"), "repeated 'seed' line"),
    "repeated_source_classes": (
        _insert(3, "source_classes 6"), "repeated 'source_classes' line"
    ),
    "unknown_block": (
        _replace_header("sdk_head", "block teacher shape 7 17"), "unknown block 'teacher'"
    ),
    "rol_head_with_leading_zero": (
        _replace_header("rol_head_0", "block rol_head_00 shape 5 17"),
        "unknown block 'rol_head_00'",
    ),
    "row_value_not_a_float": (_bad_row, "could not convert"),
    "rows_short_of_shape": (_short_main_head, "block main_head does not match its shape"),
    "nan_in_backbone": (
        _non_finite_in("backbone", "nan"),
        "block backbone: backbone map must be a finite 2-D matrix",
    ),
    "nan_in_main_head": (
        _non_finite_in("main_head", "nan"),
        "block main_head: head weights must be a finite 2-D matrix",
    ),
    "unknown_head_role": (
        _replace_header("main_head", "block main_head shape 5 17 role teacher"),
        "block main_head: unknown head role 'teacher'",
    ),
    "backbone_role": (
        _replace_header("backbone", "block backbone shape 16 16 role teacher"),
        "block backbone: role 'teacher' on the backbone",
    ),
    "misplaced_head_role": (
        _replace_header("main_head", "block main_head shape 5 17 role rol_classifier"),
        "block main_head: head role 'rol_classifier' where main_head takes 'main'",
    ),
    "missing_head_role": (
        _replace_header("sdk_head", "block sdk_head shape 7 17"),
        "block sdk_head: missing head role 'sdk_branch'",
    ),
    "ragged_rol_heads": (
        _ragged_rol_head, "block rol_head_1: shape 4 17 differs from rol_head_0's 5 17"
    ),
    "inf_in_rol_head": (
        _non_finite_in("rol_head_1", "-inf"),
        "block rol_head_1: head weights must be a finite 2-D matrix",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_checkpoint_rejects_malformed_lines_naming_the_line(tmp_path, case):
    path = tmp_path / "model.txt"
    save_model(path, small_model(np.random.default_rng(18), rol=2), seed=5)
    assert len(load_model(path).rol_heads) == 2
    edit, message = MALFORMED_CHECKPOINTS[case]
    lines, bad = edit(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {bad + 1}: .*{message}"):
        load_model(path)


def test_checkpoint_rows_must_match_shape_header(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "model.txt"
    save_model(path, small_model(rng))
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.txt"

    bad.write_text("\n".join(lines[:-1]) + "\n")  # one row short
    with pytest.raises(ValueError, match="does not match its shape"):
        load_model(bad)
    narrow = lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]  # one value short
    bad.write_text("\n".join(narrow) + "\n")
    with pytest.raises(ValueError, match="does not match its shape"):
        load_model(bad)

    header = next(i for i, ln in enumerate(lines) if ln.startswith("block main_head"))
    for broken in (
        "block main_head shape 5",
        "block main_head shape five 17 role main",
        "block main_head shape 5 17 role",
        "block",
    ):
        bad.write_text("\n".join(lines[:header] + [broken] + lines[header + 1:]) + "\n")
        with pytest.raises(ValueError):
            load_model(bad)
