"""The one reader of override text, :func:`transferdet.textfile.apply_overrides`:
typing by field, one build per config whatever the key order, and the
``config`` lines of world and scene files read through it."""

import dataclasses
import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet import pipeline, textfile
from transferdet.pipeline import StageConfig
from transferdet.synthworld import WorldConfig, _config_lines, _parse_config
from transferdet.textfile import apply_overrides


def leaf_fields(cfg, prefix=""):
    """``(dotted key, value)`` of every field of ``cfg`` and of its groups
    that an override can set: all but the groups themselves and ``seed``."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{f.name}.")
        elif f.name != "seed":
            yield prefix + f.name, value


def override_text(value) -> str:
    """``value`` as a ``--set`` line writes it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def field_value(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


def test_pipeline_keeps_the_one_reader_importable():
    assert pipeline.apply_overrides is textfile.apply_overrides


@pytest.mark.parametrize("cfg", [WorldConfig(), StageConfig()], ids=["world", "stage"])
def test_the_text_of_each_default_gives_the_default_config(cfg):
    fields = dict(leaf_fields(cfg))
    # between them the two configs hold every kind of field
    kinds = {type(value) for value in fields.values()}
    if isinstance(cfg, WorldConfig):
        assert kinds == {int, float, tuple}
    else:
        assert kinds == {int, float, bool, str}
        assert {key.split(".")[0] for key in fields} >= {"weights", "rol", "optimizer"}
    for key, value in fields.items():
        typed = apply_overrides(type(cfg)(), {key: override_text(value)})
        assert typed == cfg, key
        assert type(field_value(typed, key)) is type(value), key
    texts = {key: override_text(value) for key, value in fields.items()}
    assert apply_overrides(type(cfg)(), texts) == cfg


@st.composite
def world_configs(draw):
    source, target = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo = draw(st.integers(1, 4))
    hi = draw(st.integers(lo, 8))
    scale = st.floats(0, 1e6)
    return WorldConfig(
        num_source_classes=source,
        num_target_classes=target,
        raw_dim=source + target + 1 + draw(st.integers(0, 8)),
        grid_height=draw(st.integers(1, 12)),
        grid_width=draw(st.integers(1, 12)),
        noise_sigma=draw(scale),
        clutter_sigma=draw(scale),
        jitter=draw(st.floats(0, 0.5, exclude_max=True)),
        proposals_per_scene=hi + draw(st.integers(0, 40)),
        objects_per_scene=(lo, hi),
        seed=draw(st.integers(-(2**63), 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(world_configs())
def test_world_file_config_lines_parse_like_overrides(cfg):
    lines = [f"seed {cfg.seed}", *_config_lines(cfg)]
    pairs = {
        name: ",".join(values)
        for _, name, *values in map(str.split, lines[1:])
        if name != "seed"
    }
    expected = replace(apply_overrides(WorldConfig(), pairs), seed=cfg.seed)
    assert _parse_config(lines) == expected == cfg


@pytest.mark.parametrize("cfg, lines", [
    (StageConfig(), ["rol.phi_bg=0.6", "rol.phi_obj=0.8"]),
    (WorldConfig(), ["num_source_classes=10", "num_target_classes=10", "raw_dim=25"]),
    (WorldConfig(), ["objects_per_scene=1:40", "proposals_per_scene=64"]),
])
def test_every_key_order_builds_one_config(cfg, lines):
    pairs = [line.split("=") for line in lines]
    built = {apply_overrides(cfg, dict(order)) for order in itertools.permutations(pairs)}
    assert len(built) == 1
    (one,) = built
    for key, raw in pairs:
        assert override_text(field_value(one, key)) == raw.replace(":", ",")


def test_a_rejected_combination_names_the_keys_that_set_it():
    with pytest.raises(ValueError, match=r"^config field 'rol\.phi_bg': need 0 <= phi_bg"):
        apply_overrides(StageConfig(), {"rol.phi_bg": "0.6"})
    # the rol group rejects its values before the stage config is built
    overrides = {"shots_per_class": "2", "rol.phi_obj": "0.4", "rol.phi_bg": "0.45"}
    with pytest.raises(
        ValueError, match=r"^config fields 'rol\.phi_bg', 'rol\.phi_obj': need"
    ):
        apply_overrides(StageConfig(), overrides)
    with pytest.raises(
        ValueError, match=r"^config fields 'num_target_classes', 'raw_dim': raw_dim 12"
    ):
        apply_overrides(WorldConfig(), {"raw_dim": "12", "num_target_classes": "6"})


@pytest.mark.parametrize("line, message", [
    ("config objects_per_scene 1", r"config field 'objects_per_scene': expected 2"),
    ("config objects_per_scene 1 2 3", r"config field 'objects_per_scene': expected 2"),
    ("config objects_per_scene", r"config field 'objects_per_scene': expected 2"),
    ("config jitter x", r"config field 'jitter': could not convert"),
    ("config jitter 0.1 0.2", r"config field 'jitter'"),
    ("config raw_dim 16.0", r"config field 'raw_dim': invalid literal"),
    ("config raw_dim 5", r"config fields .*'raw_dim'.*: raw_dim 5 too small"),
])
def test_world_file_config_values_are_checked_like_overrides(line, message):
    lines = [f"seed {WorldConfig().seed}", *_config_lines(WorldConfig())]
    name = line.split()[1]
    lines = [line if ln.split()[1] == name else ln for ln in lines]
    with pytest.raises(ValueError, match=message):
        _parse_config(lines)


@pytest.mark.parametrize("cfg, key, value, expected", [
    (StageConfig(), "shots_per_class", 1.5, "an integer"),
    (StageConfig(), "shots_per_class", True, "an integer"),
    (StageConfig(), "sdk_weighted", 1, "a boolean"),
    (StageConfig(), "labeller", 3, "a string"),
    (StageConfig(), "rol.phi_obj", None, "a number"),
    (WorldConfig(), "objects_per_scene", 5, "2 integers"),
    (WorldConfig(), "objects_per_scene", (1, 2, 3), "2 integers"),
    (WorldConfig(), "objects_per_scene", (1, 2.5), "2 integers"),
])
def test_a_value_that_is_not_text_must_fit_its_field(cfg, key, value, expected):
    with pytest.raises(ValueError, match=rf"^config field '{re.escape(key)}': .*{expected}"):
        apply_overrides(cfg, {key: value})


def test_a_value_that_is_not_text_is_set_as_its_field_takes_it():
    cfg = apply_overrides(
        WorldConfig(), {"objects_per_scene": [2, 4], "noise_sigma": 1, "raw_dim": 20}
    )
    assert cfg.objects_per_scene == (2, 4)
    assert cfg.noise_sigma == 1.0 and type(cfg.noise_sigma) is float
    assert cfg.raw_dim == 20 and type(cfg.raw_dim) is int
    stage = apply_overrides(StageConfig(), {"sdk_weighted": True, "weights.lambda_bd": 0})
    assert stage.sdk_weighted is True
    assert type(stage.weights.lambda_bd) is float
