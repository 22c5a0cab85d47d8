"""End-to-end command tests driven through ``main(argv)``: artifact
layout, byte determinism, and the documented exit-code partition."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferdet.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_MALFORMED,
    EXIT_MISSING_INPUT,
    EXIT_UNKNOWN_EXPERIMENT,
    GRADCHECKS,
    _gather_overrides,
    _parse_seeds,
    build_parser,
    main,
    run_gradcheck_suite,
)
from transferdet.evaluation import Detection, write_detections_csv
from transferdet.geometry import BBox
from transferdet.model import load_model
from transferdet.pipeline import EXPERIMENTS, StageConfig, apply_overrides
from transferdet.synthworld import Scene, WorldConfig, make_world, save_scenes

# Every stage length is pinned tiny through overrides, so these tests
# never depend on the production training defaults.
SOURCE_ARGS = ["--set", "source_epochs=2", "--set", "source_scenes=20"]


@pytest.fixture(scope="module")
def train_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    assert main(
        ["train", "source", "--seed", "7", "--out-dir", str(root / "source")]
        + SOURCE_ARGS
    ) == 0
    assert main([
        "train", "lstd", "--seed", "7",
        "--set", "shots_per_class=1", "--set", "lstd_epochs=5",
        "--source-model", str(root / "source" / "source_model.txt"),
        "--out-dir", str(root / "lstd"),
    ]) == 0
    return root


def warmup_path(root):
    return str(root / "lstd" / "lstd_model.txt")


# --- argument plumbing ---------------------------------------------------


def test_parse_seeds():
    assert _parse_seeds(None) is None
    assert _parse_seeds("0:3") == [0, 1, 2]
    assert _parse_seeds("4, 1,9") == [4, 1, 9]


def test_parse_overrides_types(tmp_path):
    # The CLI splits each line at its first '='; apply_overrides types it.
    cfg_file = tmp_path / "stage.cfg"
    cfg_file.write_text("# comment\n shots_per_class = 2\nlabeller=oicr\n")
    args = build_parser().parse_args([
        "train", "source", "--config", str(cfg_file),
        "--set", "shots_per_class=4", "--set", "rol.phi_obj=0.45",
        "--set", "enable_bd=false",
    ])
    raw = _gather_overrides(args)
    assert raw == {
        "shots_per_class": "4", "labeller": "oicr", "rol.phi_obj": "0.45",
        "enable_bd": "false",
    }
    cfg = apply_overrides(StageConfig(), raw)
    assert (cfg.shots_per_class, cfg.labeller, cfg.rol.phi_obj, cfg.enable_bd) == (
        4, "oicr", 0.45, False
    )
    args = build_parser().parse_args(["world", "--set", "shots_per_class"])
    with pytest.raises(ValueError, match="expected key=value"):
        _gather_overrides(args)


# Each malformed override, the offending key, which stderr must name.
BAD_OVERRIDES = [
    ("seed.x=1", "seed.x"),
    ("weights=1", "weights"),
    ("optimizer=x", "optimizer"),
    ("rol.bogus=1", "rol.bogus"),
    ("seed=5", "seed"),
    ("objects_per_scene=a", "objects_per_scene"),
    ("enable_bd=maybe", "enable_bd"),
    ("shots_per_class", "shots_per_class"),
    ("optimizer.learning_rate=nan", "optimizer.learning_rate"),
    ("optimizer.learning_rate=inf", "optimizer.learning_rate"),
    ("optimizer.weight_decay=nan", "optimizer.weight_decay"),
    ("optimizer.lr_decay_factor=inf", "optimizer.lr_decay_factor"),
    ("optimizer.epsilon=-inf", "optimizer.epsilon"),
]

OVERRIDE_COMMANDS = {
    "world": ["world", "--seed", "1", "--count", "1"],
    "train": ["train", "source", "--seed", "1"],
    "experiment": ["experiment", "table3", "--seeds", "0"],
}


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("line, key", BAD_OVERRIDES)
@pytest.mark.parametrize("command", sorted(OVERRIDE_COMMANDS))
def test_malformed_override_exits_2(tmp_path, capsys, command, line, key, via):
    if via == "set":
        extra = ["--set", line]
    else:
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        extra = ["--config", str(cfg_file)]
    out = tmp_path / "out"
    code = main(OVERRIDE_COMMANDS[command] + extra + ["--out-dir", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("command", ["eval", "gradcheck"])
def test_commands_without_overrides_reject_them(tmp_path, capsys, command, via):
    # eval and gradcheck read no config, so an override is a usage error
    # (argparse exits 2) rather than silently ignored.
    cfg_file = tmp_path / "any.cfg"
    cfg_file.write_text("bogus=1\n")
    extra = ["--set", "bogus=1"] if via == "set" else ["--config", str(cfg_file)]
    argv = {
        "eval": ["eval", "--detections", "d.csv", "--scenes", "s.txt"],
        "gradcheck": ["gradcheck", "--instances", "1"],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + extra + ["--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# --- world ---------------------------------------------------------------


def test_world_outputs_and_determinism(tmp_path, capsys):
    argv = ["world", "--seed", "3", "--count", "4"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "seed 3" in out
    for name in ("world.txt", "scenes.txt", "manifest.json"):
        assert (tmp_path / "a" / name).exists()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seeds"] == [3]
    assert manifest["subcommand"] == "world"
    for name in manifest["outputs"]:
        assert (tmp_path / "a" / name).exists()
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("world.txt", "scenes.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_world_draws_seed_when_omitted(tmp_path, capsys):
    assert main(["world", "--count", "2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    seed = int(out.split("seed ", 1)[1].split()[0])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == [seed]


def test_world_invalid_jitter_exits_2(tmp_path, capsys):
    code = main([
        "world", "--seed", "1", "--set", "jitter=0.9",
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "jitter" in capsys.readouterr().err


def test_world_missing_config_file_exits_3(tmp_path):
    code = main([
        "world", "--seed", "1", "--config", str(tmp_path / "none.cfg"),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MISSING_INPUT


def test_world_config_file_applies(tmp_path):
    cfg = tmp_path / "world.cfg"
    cfg.write_text("# comment line\nproposals_per_scene=16\n")
    assert main([
        "world", "--seed", "2", "--count", "1", "--config", str(cfg),
        "--out-dir", str(tmp_path / "w"),
    ]) == 0
    text = (tmp_path / "w" / "scenes.txt").read_text()
    assert text.count("\nprop ") == 16


# --- train ---------------------------------------------------------------


def test_train_source_deterministic_bytes(tmp_path, train_root):
    assert main(
        ["train", "source", "--seed", "7", "--out-dir", str(tmp_path)]
        + SOURCE_ARGS
    ) == 0
    for name in ("source_model.txt", "source_losses.csv"):
        assert (tmp_path / name).read_bytes() == (
            train_root / "source" / name
        ).read_bytes()


def test_train_lstd_without_source_exits_3(capsys):
    assert main(["train", "lstd", "--seed", "1"]) == EXIT_MISSING_INPUT
    assert "source checkpoint" in capsys.readouterr().err


def test_train_missing_checkpoint_file_exits_3(tmp_path):
    code = main([
        "train", "lstd", "--seed", "1",
        "--source-model", str(tmp_path / "nope.txt"),
    ])
    assert code == EXIT_MISSING_INPUT


def test_train_garbage_checkpoint_exits_4(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\n")
    code = main([
        "train", "lstd", "--seed", "1", "--source-model", str(bad),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED


def test_train_truncated_source_checkpoint_exits_4(tmp_path, train_root, capsys):
    lines = (train_root / "source" / "source_model.txt").read_text().splitlines()
    truncated = tmp_path / "source_model.txt"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    code = main([
        "train", "lstd", "--seed", "7",
        "--set", "shots_per_class=1", "--set", "lstd_epochs=1",
        "--source-model", str(truncated), "--out-dir", str(tmp_path / "lstd"),
    ])
    assert code == EXIT_MALFORMED
    assert "main_head" in capsys.readouterr().err


def test_train_wstd_zero_epochs_keeps_input_params(tmp_path, train_root):
    assert main([
        "train", "wstd", "--seed", "7", "--set", "wstd_epochs=0",
        "--set", "weak_scenes_per_class=2", "--warmup-model", warmup_path(train_root),
        "--out-dir", str(tmp_path),
    ]) == 0
    warm = load_model(warmup_path(train_root))
    out = load_model(tmp_path / "wstd_model.txt")
    assert np.array_equal(out.backbone.map, warm.backbone.map)
    assert np.array_equal(out.main_head.weights, warm.main_head.weights)
    assert np.array_equal(out.sdk_head.weights, warm.sdk_head.weights)
    for head in out.rol_heads:
        assert np.array_equal(head.weights, warm.main_head.weights)


def test_train_wstd_labeller_flag(tmp_path, train_root):
    for labeller in ("rol", "oicr"):
        assert main([
            "train", "wstd", "--seed", "7", "--set", "wstd_epochs=1",
            "--set", "weak_scenes_per_class=2", "--set", f"labeller={labeller}",
            "--warmup-model", warmup_path(train_root),
            "--out-dir", str(tmp_path / labeller),
        ]) == 0
    rol = (tmp_path / "rol" / "wstd_model.txt").read_bytes()
    oicr = (tmp_path / "oicr" / "wstd_model.txt").read_bytes()
    assert rol != oicr


# --- eval ----------------------------------------------------------------


def _eval_fixture(tmp_path):
    """One scene, one class with two GT boxes, and a detections file whose
    flag sequence is TP, FP, TP from the top score down."""
    world = make_world(WorldConfig(seed=2))
    gt1 = BBox(0.10, 0.10, 0.35, 0.35)
    gt2 = BBox(0.60, 0.60, 0.85, 0.85)
    scene = Scene(
        raw_grid=np.zeros((8, 8, world.config.raw_dim)),
        gt=((0, gt1), (0, gt2)),
        proposals=(gt1, gt2),
        annotation_mode="full",
        image_label=np.array([1, 0, 0, 0]),
        domain="target",
    )
    scenes_path = tmp_path / "scenes.txt"
    save_scenes(scenes_path, world, [scene])
    detections = [
        Detection(0, 0, gt1, 0.9),
        Detection(0, 0, BBox(0.1, 0.6, 0.35, 0.85), 0.5),
        Detection(0, 0, gt2, 0.1),
    ]
    det_path = tmp_path / "detections.csv"
    write_detections_csv(det_path, detections)
    return scenes_path, det_path


def _eval_map(tmp_path, capsys, extra=()):
    scenes_path, det_path = _eval_fixture(tmp_path)
    assert main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path), *extra,
    ]) == 0
    return float(capsys.readouterr().out.split("mAP ", 1)[1])


def test_eval_known_fixture(tmp_path, capsys):
    got = _eval_map(tmp_path, capsys)
    assert abs(got - (6.0 + 5.0 * (2.0 / 3.0)) / 11.0) <= 1e-9
    rows = (tmp_path / "eval.csv").read_text().strip().split("\n")
    assert rows[0] == "class,ap"
    assert rows[2:5] == ["1,excluded", "2,excluded", "3,excluded"]


def test_eval_ap_method_changes_interpolation(tmp_path, capsys):
    got = _eval_map(tmp_path, capsys, extra=("--ap-method", "all_points"))
    assert abs(got - (0.5 + 0.5 * (2.0 / 3.0))) <= 1e-9


def test_eval_empty_detections_all_zero(tmp_path, capsys):
    scenes_path, det_path = _eval_fixture(tmp_path)
    det_path.write_text("scene_id,class,x1,y1,x2,y2,score\n")
    assert main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ]) == 0
    assert float(capsys.readouterr().out.split("mAP ", 1)[1]) == 0.0


def test_eval_malformed_row_exits_4(tmp_path, capsys):
    scenes_path, det_path = _eval_fixture(tmp_path)
    det_path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        "0,0,0.1,0.1,0.2,0.2,0.9\n"
        "0,0,oops,0.1,0.2,0.2,0.5\n"
    )
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    assert "line 3" in capsys.readouterr().err


def test_eval_corrupt_config_line_exits_4(tmp_path, capsys):
    scenes_path, det_path = _eval_fixture(tmp_path)
    text = scenes_path.read_text()
    for corrupt in ("config seed\n", "config seed two\n", "config colour 3\n"):
        scenes_path.write_text(text.replace("config seed 2\n", corrupt))
        code = main([
            "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_MALFORMED
        assert "config" in capsys.readouterr().err


def test_eval_incomplete_config_exits_4(tmp_path, capsys):
    # a config field without its line, or with two, is malformed too
    scenes_path, det_path = _eval_fixture(tmp_path)
    text = scenes_path.read_text()
    for edited in ("config\n", "", "config seed 2\nconfig seed 3\n"):
        scenes_path.write_text(text.replace("config seed 2\n", edited))
        code = main([
            "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_MALFORMED
        assert "config" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_seed_header_mismatch_exits_4(tmp_path, capsys):
    # the seed header must be one line equal to the config seed
    scenes_path, det_path = _eval_fixture(tmp_path)
    text = scenes_path.read_text()
    assert text.count("seed 2\n") == 2  # the header and the config line
    header = text.index("seed 2\n")
    for edited in ("seed 9\n", "", "seed 2\nseed 2\n", "seed\n"):
        scenes_path.write_text(text[:header] + edited + text[header + len("seed 2\n"):])
        code = main([
            "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_MALFORMED
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_out_of_range_class_exits_4(tmp_path, capsys):
    # the fixture's scene file is over 4 target classes
    scenes_path, det_path = _eval_fixture(tmp_path)
    for cls in (9, 4):
        box = BBox(0.1, 0.1, 0.35, 0.35)
        write_detections_csv(det_path, [Detection(0, cls, box, 0.9)])
        code = main([
            "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_MALFORMED
        assert f"class {cls}" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_missing_inputs_exit_3(tmp_path):
    scenes_path, det_path = _eval_fixture(tmp_path)
    assert main([
        "eval", "--detections", str(tmp_path / "none.csv"),
        "--scenes", str(scenes_path), "--out-dir", str(tmp_path),
    ]) == EXIT_MISSING_INPUT
    assert main([
        "eval", "--detections", str(det_path), "--out-dir", str(tmp_path),
    ]) == EXIT_MISSING_INPUT


@pytest.fixture(scope="module")
def three_scene_lines(tmp_path_factory):
    root = tmp_path_factory.mktemp("world3")
    assert main(["world", "--count", "3", "--seed", "3", "--out-dir", str(root)]) == 0
    return (root / "scenes.txt").read_text().splitlines()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_truncated_scene_file_exits_4(three_scene_lines, data):
    # Prefixes that end on a record boundary hold whole scenes, fewer than
    # the header's count; draw them as often as arbitrary cut points.
    boundaries = [i for i, ln in enumerate(three_scene_lines) if ln.startswith("scene ")]
    keep = data.draw(
        st.one_of(
            st.integers(0, len(three_scene_lines) - 1), st.sampled_from(boundaries)
        ),
        label="lines kept",
    )
    with tempfile.TemporaryDirectory() as tmp:
        scenes = Path(tmp) / "scenes.txt"
        scenes.write_text("".join(ln + "\n" for ln in three_scene_lines[:keep]))
        detections = Path(tmp) / "detections.csv"
        detections.write_text("scene_id,class,x1,y1,x2,y2,score\n")
        assert main([
            "eval", "--detections", str(detections), "--scenes", str(scenes),
            "--out-dir", tmp,
        ]) == EXIT_MALFORMED


# --- experiment ----------------------------------------------------------

EXPERIMENT_ARGS = [
    "--set", "source_scenes=20", "--set", "source_epochs=2",
    "--set", "lstd_epochs=4", "--set", "wstd_epochs=1",
    "--set", "weak_scenes_per_class=2", "--set", "eval_scenes=4",
]


def test_experiment_unknown_name_exits_5(tmp_path, capsys):
    code = main(["experiment", "table9", "--out-dir", str(tmp_path)])
    assert code == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "fig7, fig9, table3, table5, table6" in err


@pytest.mark.parametrize("seeds", ["", "3:1"])
def test_experiment_empty_seed_list_exits_2(tmp_path, capsys, seeds):
    code = main(["experiment", "table3", "--seeds", seeds, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "table3.csv").exists()


def test_experiment_runs_and_reproduces(tmp_path, capsys):
    argv = ["experiment", "fig7", "--seeds", "0"] + EXPERIMENT_ARGS
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    for cell in ("sdk_without", "sdk_unweighted", "sdk_weighted"):
        assert f"fig7/{cell}: mAP" in out
    for name in (
        "fig7.csv", "fig7_summary.csv", "fig7_manifest.json", "manifest.json"
    ):
        assert (tmp_path / "a" / name).exists()
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("fig7.csv", "fig7_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seeds"] == [0]
    fig7 = json.loads((tmp_path / "a" / "fig7_manifest.json").read_text())
    assert fig7["seeds"] == manifest["seeds"]


@pytest.mark.parametrize("seeds, expected", [("0,0", [0, 0]), (None, [1, 0])])
def test_experiment_manifests_agree_on_seeds(tmp_path, monkeypatch, seeds, expected):
    # Both manifests list the seeds as run, the defaults when none are given.
    monkeypatch.setitem(
        EXPERIMENTS, "table3", replace(EXPERIMENTS["table3"], default_seeds=(1, 0))
    )
    argv = ["experiment", "table3", "--out-dir", str(tmp_path)] + EXPERIMENT_ARGS
    assert main(argv + (["--seeds", seeds] if seeds else [])) == 0
    for name in ("manifest.json", "table3_manifest.json"):
        assert json.loads((tmp_path / name).read_text())["seeds"] == expected


# --- gradcheck -----------------------------------------------------------


def test_gradcheck_suite_unit():
    results = run_gradcheck_suite(["bd"], instances=2)
    assert [name for name, _, _ in results] == ["bd"]
    assert all(passed for _, _, passed in results)
    with pytest.raises(ValueError, match="unknown loss"):
        run_gradcheck_suite(["nope"], instances=1)
    assert len(GRADCHECKS) == 9


def test_gradcheck_default_passes(tmp_path, capsys):
    assert main([
        "gradcheck", "--instances", "3", "--out-dir", str(tmp_path)
    ]) == 0
    rows = (tmp_path / "gradcheck.csv").read_text().strip().split("\n")
    assert rows[0] == "loss,max_relative_error,passed"
    assert len(rows) == 1 + len(GRADCHECKS)
    assert all(row.endswith(",true") for row in rows[1:])
    assert capsys.readouterr().out.count("ok") == len(GRADCHECKS)


def test_gradcheck_passes_at_default_instances(tmp_path, capsys):
    assert main(["gradcheck", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count(" ok\n") == len(GRADCHECKS)


def test_gradcheck_only_restricts(tmp_path):
    assert main([
        "gradcheck", "--only", "bd", "--instances", "2",
        "--out-dir", str(tmp_path),
    ]) == 0
    rows = (tmp_path / "gradcheck.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("bd,")
    assert main([
        "gradcheck", "--only", "nope", "--out-dir", str(tmp_path)
    ]) == EXIT_CONFIG


def test_gradcheck_unreachable_tolerance_exits_6(tmp_path, capsys):
    code = main([
        "gradcheck", "--only", "sdk", "--instances", "1",
        "--tolerance", "1e-15", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_GRADCHECK
    assert "failed" in capsys.readouterr().err
