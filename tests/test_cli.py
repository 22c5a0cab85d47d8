"""End-to-end command tests driven through ``main(argv)``: artifact
layout, byte determinism, and the documented exit-code partition."""

import hashlib
import itertools
import json
import shlex
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
    _wstd_instance,
    build_parser,
    main,
    run_gradcheck_suite,
)
from transferdet.evaluation import Detection, write_detections_csv
from transferdet.geometry import BBox
from transferdet.model import load_model
from transferdet.pipeline import EXPERIMENTS, StageConfig, apply_overrides
from transferdet.synthworld import (
    Scene,
    WorldConfig,
    load_scenes,
    load_world,
    make_world,
    sample_scenes,
    save_scenes,
    save_world,
    substream,
)

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
        "--set", "sdk_weighted=true",
    ])
    raw = _gather_overrides(args)
    assert raw == {
        "shots_per_class": "4", "labeller": "oicr", "rol.phi_obj": "0.45",
        "sdk_weighted": "true",
    }
    cfg = apply_overrides(StageConfig(), raw)
    assert (cfg.shots_per_class, cfg.labeller, cfg.rol.phi_obj, cfg.sdk_weighted) == (
        4, "oicr", 0.45, True
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
    ("sdk_weighted=maybe", "sdk_weighted"),
    ("shots_per_class", "shots_per_class"),
    ("optimizer.learning_rate=nan", "optimizer.learning_rate"),
    ("optimizer.learning_rate=inf", "optimizer.learning_rate"),
    ("optimizer.weight_decay=nan", "optimizer.weight_decay"),
    ("optimizer.lr_decay_factor=inf", "optimizer.lr_decay_factor"),
    ("optimizer.epsilon=-inf", "optimizer.epsilon"),
    ("rol.phi_obj=1", "rol.phi_obj"),
    ("freeze_backbone=1", "freeze_backbone"),
    ("weights.lambda_main=2", "weights.lambda_main"),
    ("weights.lambda_bd=nan", "weights.lambda_bd"),
    ("weights.lambda_bd=inf", "weights.lambda_bd"),
    ("weights.lambda_wstd_rol=nan", "weights.lambda_wstd_rol"),
    ("noise_sigma=nan", "noise_sigma"),
    ("clutter_sigma=inf", "clutter_sigma"),
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


def test_train_wstd_refuses_phi_obj_1(tmp_path, capsys):
    # no IoU exceeds 1, so phi_obj = 1 could never label a seed
    out = tmp_path / "out"
    argv = ["train", "wstd", "--seed", "1", "--set", "rol.phi_obj=1"]
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'rol.phi_obj'" in err and "phi_obj < 1" in err
    assert not out.exists()


def test_diverging_training_names_its_stage_and_step(tmp_path, train_root, capsys):
    argv = [
        "train", "source", "--seed", "1", "--set", "source_epochs=1",
        "--set", "source_scenes=2", "--set", "optimizer.learning_rate=1e300",
        "--out-dir", str(tmp_path / "source"),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "source training step" in err and "finite" in err
    assert "Traceback" not in err
    # a loss weight that overflows the gradient fails in the Adam step
    argv = [
        "train", "lstd", "--seed", "7", "--set", "weights.lambda_bd=1e308",
        "--source-model", str(train_root / "source" / "source_model.txt"),
        "--out-dir", str(tmp_path / "lstd"),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: lstd training step 0: non-finite gradient" in err
    assert "Traceback" not in err and not (tmp_path / "lstd").exists()


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


@pytest.mark.parametrize("argv", [
    ["world", "--seed", "3", "--count", "2"],
    ["gradcheck", "--only", "bd", "--instances", "1"],
])
def test_manifest_records_the_command_main_ran(tmp_path, argv):
    # an out dir with a space needs quoting to read back as one argument
    argv = argv + ["--out-dir", str(tmp_path / "out dir")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out dir" / "manifest.json").read_text())
    assert shlex.split(manifest["command"]) == ["transferdet"] + argv


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_manifest_config_digest_covers_the_config_file_and_set_lines(tmp_path):
    # the digest hashes the sorted key=value lines of the overrides applied
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("source_epochs=2\nsource_scenes=20\n")

    def run(name, *extra):
        out = tmp_path / name
        argv = ["train", "source", "--seed", "7", "--out-dir", str(out), *extra]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["config_digest"], (out / "source_model.txt").read_bytes()

    file_only, _ = run("file", "--config", str(cfg))
    slow, slow_model = run(
        "slow", "--config", str(cfg), "--set", "optimizer.learning_rate=0.001"
    )
    fast, fast_model = run(
        "fast", "--config", str(cfg), "--set", "optimizer.learning_rate=0.002"
    )
    assert slow_model != fast_model
    assert len({file_only, slow, fast}) == 3
    sets = ["source_epochs=2", "source_scenes=20"]
    assert file_only == _sha256("\n".join(sets))
    assert slow == _sha256("\n".join(["optimizer.learning_rate=0.001", *sets]))
    # the equivalent --set lines, in either order, give the file's digest
    for name, lines in (("set", sets), ("swapped", sets[::-1])):
        digest, _ = run(name, "--set", lines[0], "--set", lines[1])
        assert digest == file_only
    # a --set that replaces a file's value is hashed as applied
    replaced, _ = run("replaced", "--config", str(cfg), "--set", "source_epochs=3")
    assert replaced == _sha256("source_epochs=3\nsource_scenes=20")


def test_manifest_config_digest_follows_the_value_that_wins(tmp_path):
    # the later --set of a key wins, so swapping two --set lines of one key
    # writes other scenes under another digest
    def run(name, first, second):
        out = tmp_path / name
        argv = ["world", "--seed", "1", "--count", "2", "--out-dir", str(out),
                "--set", first, "--set", second]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["config_digest"], (out / "scenes.txt").read_bytes()

    low, low_scenes = run("low", "noise_sigma=0.3", "noise_sigma=0.1")
    high, high_scenes = run("high", "noise_sigma=0.1", "noise_sigma=0.3")
    assert low_scenes != high_scenes
    assert (low, high) == (_sha256("noise_sigma=0.1"), _sha256("noise_sigma=0.3"))


def test_manifest_config_digest_of_commands_without_overrides(tmp_path):
    scenes_path, det_path = _eval_fixture(tmp_path)
    for name, argv in (
        ("eval", ["eval", "--detections", str(det_path), "--scenes", str(scenes_path)]),
        ("gradcheck", ["gradcheck", "--only", "bd", "--instances", "1"]),
    ):
        assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config_digest"] == _sha256("")


# Override sets a config accepts only as a whole: applied one key at a
# time, some order of each passes through a config its checks reject.
ORDERED_OVERRIDES = [
    pytest.param(["train", "source", "--seed", "1"] + SOURCE_ARGS,
                 ["rol.phi_bg=0.6", "rol.phi_obj=0.8"], id="rol_bands"),
    pytest.param(["world", "--seed", "1", "--count", "2"],
                 ["num_source_classes=10", "num_target_classes=10", "raw_dim=25"],
                 id="class_counts"),
    pytest.param(["world", "--seed", "1", "--count", "2"],
                 ["objects_per_scene=1:40", "proposals_per_scene=64"],
                 id="object_counts"),
]


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("argv, lines", ORDERED_OVERRIDES)
def test_override_order_does_not_decide_validity(tmp_path, argv, lines, via):
    written = set()
    for n, order in enumerate(itertools.permutations(lines)):
        out = tmp_path / str(n)
        if via == "set":
            extra = [arg for line in order for arg in ("--set", line)]
        else:
            cfg_file = tmp_path / f"{n}.cfg"
            cfg_file.write_text("\n".join(order) + "\n")
            extra = ["--config", str(cfg_file)]
        assert main(argv + extra + ["--out-dir", str(out)]) == 0, order
        outputs = sorted(p for p in out.iterdir() if p.name != "manifest.json")
        written.add(tuple((p.name, p.read_bytes()) for p in outputs))
    assert len(written) == 1  # every order writes the same bytes
    if argv[0] == "world":
        expected = replace(
            apply_overrides(WorldConfig(), dict(line.split("=") for line in lines)),
            seed=1,
        )
        world = load_world(out / "world.txt")
        assert world.config == expected
        assert load_scenes(out / "scenes.txt")[0] == expected
        save_world(tmp_path / "again.txt", world)
        assert (tmp_path / "again.txt").read_bytes() == (out / "world.txt").read_bytes()


def test_world_whose_noise_overflows_exits_2_writing_nothing(tmp_path, capsys):
    out = tmp_path / "w"
    with np.errstate(over="ignore"):
        code = main([
            "world", "--count", "2", "--seed", "1", "--set", "noise_sigma=1e308",
            "--out-dir", str(out),
        ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "non-finite raw grid" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_world_count_below_1_exits_2(tmp_path, capsys, count):
    out = tmp_path / "w"
    code = main(["world", "--seed", "1", "--count", count, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


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


def test_train_checkpoint_with_a_repeated_block_exits_4(tmp_path, train_root, capsys):
    lines = (train_root / "source" / "source_model.txt").read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("block backbone "))
    stop = next(i for i, ln in enumerate(lines) if ln.startswith("block main_head "))
    repeated = tmp_path / "source_model.txt"
    repeated.write_text("\n".join(lines + lines[start:stop]) + "\n")
    code = main([
        "train", "lstd", "--seed", "7",
        "--set", "shots_per_class=1", "--set", "lstd_epochs=1",
        "--source-model", str(repeated), "--out-dir", str(tmp_path / "lstd"),
    ])
    assert code == EXIT_MALFORMED
    assert f"line {len(lines) + 1}: repeated block 'backbone'" in capsys.readouterr().err
    assert not (tmp_path / "lstd").exists()


@pytest.mark.parametrize(
    "stage, checkpoint, world_set, field",
    [
        # a source checkpoint from a world with another raw_dim
        ("lstd", "source", "raw_dim=40", "backbone is 16x16, the world needs 40x40"),
        # ... with another source class count
        ("lstd", "source", "num_source_classes=5", "main_head has 7 rows"),
        # a source checkpoint given as the warm-up: six source classes
        # against four target classes
        ("wstd", "source", None, "main_head has 7 rows"),
        # ... on a world whose target classes it happens to match
        ("wstd", "source", "num_target_classes=6", "no sdk_head"),
    ],
)
def test_train_checkpoint_that_does_not_fit_the_world_exits_4(
    tmp_path, train_root, capsys, stage, checkpoint, world_set, field
):
    # checked when the checkpoint is loaded, before any training work
    path = str(train_root / checkpoint / f"{checkpoint}_model.txt")
    argv = ["train", stage, "--seed", "7", "--out-dir", str(tmp_path / "out")]
    argv += ["--source-model" if stage == "lstd" else "--warmup-model", path]
    if world_set is not None:
        assert main([
            "world", "--seed", "7", "--count", "1", "--set", world_set,
            "--out-dir", str(tmp_path / "world"),
        ]) == 0
        argv += ["--world", str(tmp_path / "world" / "world.txt")]
    capsys.readouterr()
    assert main(argv) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert path in err and field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _with_source_classes(lines, value):
    # the source_classes line set to ``value``, or dropped for None
    return [
        f"source_classes {value}" if ln.startswith("source_classes ") else ln
        for ln in lines
        if value is not None or not ln.startswith("source_classes ")
    ]


def _with_sdk_head_of_2_source_classes(lines):
    header = "block sdk_head shape 3 17 role sdk_branch"
    return _with_source_classes(lines, 2) + [header] + ["row" + " 0.0" * 17] * 3


NO_SOURCE_HEAD = "has no head over the source classes"

# Source checkpoints without a head over the world's six source classes,
# the one LSTD distils from, and the problem each must name.
NO_TEACHER_CHECKPOINTS = {
    "source_classes_missing": (
        lambda lines: _with_source_classes(lines, None), NO_SOURCE_HEAD
    ),
    "source_classes_0": (lambda lines: _with_source_classes(lines, 0), NO_SOURCE_HEAD),
    "sdk_head_of_2_source_classes": (
        _with_sdk_head_of_2_source_classes, "sdk_head has 3 rows, the world needs 7"
    ),
}


@pytest.mark.parametrize("case", sorted(NO_TEACHER_CHECKPOINTS))
def test_train_lstd_from_a_checkpoint_without_a_source_head_exits_4(
    tmp_path, train_root, capsys, case
):
    edit, problem = NO_TEACHER_CHECKPOINTS[case]
    lines = (train_root / "source" / "source_model.txt").read_text().splitlines()
    path = tmp_path / "source_model.txt"
    path.write_text("\n".join(edit(lines)) + "\n")
    load_model(path)  # a well-formed checkpoint
    capsys.readouterr()
    assert main([
        "train", "lstd", "--seed", "7", "--set", "shots_per_class=1",
        "--source-model", str(path), "--out-dir", str(tmp_path / "out"),
    ]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert f"source checkpoint {path}: {problem}" in err
    assert "training step" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_wstd_zero_epochs_keeps_input_params(tmp_path, train_root):
    assert main([
        "train", "wstd", "--seed", "7", "--set", "wstd_epochs=0",
        "--set", "weak_scenes_per_class=2", "--warmup-model", warmup_path(train_root),
        "--out-dir", str(tmp_path),
    ]) == 0
    warm = load_model(warmup_path(train_root))
    out = load_model(tmp_path / "wstd_model.txt")
    assert np.array_equal(out.backbone, warm.backbone)
    assert np.array_equal(out.main_head, warm.main_head)
    assert np.array_equal(out.sdk_head, warm.sdk_head)
    for head in out.rol_heads:
        assert np.array_equal(head, warm.main_head)


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
        proposals=[gt1.as_tuple(), gt2.as_tuple()],
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


def test_eval_undecodable_detections_exits_4(tmp_path, capsys):
    # 0xff starts no UTF-8 sequence, on the first line or after good rows
    scenes_path, det_path = _eval_fixture(tmp_path)
    rows = det_path.read_bytes()
    for text, line in ((b"\xff\xfe", 1), (rows + b"0,\xff\n", rows.count(b"\n") + 1)):
        det_path.write_bytes(text)
        code = main([
            "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"line {line}: {det_path}" in err and "Traceback" not in err


def test_train_on_world_with_nonfinite_prototype_exits_4(tmp_path, capsys):
    path = tmp_path / "world.txt"
    save_world(path, make_world(WorldConfig(seed=2)))
    lines = path.read_text().splitlines()
    at = lines.index(next(ln for ln in lines if ln.startswith("prototype ")))
    lines[at] = "prototype nan" + lines[at][lines[at].index(" ", 10):]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["train", "source", "--seed", "2", "--world", str(path),
                 "--out-dir", str(out)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert f"error: line {at + 1}: expected 'prototype' and 16 finite values" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("stray, last", [
    ("garbage line here", False), ("prototype_extra 1 2", True),
])
def test_train_on_world_with_a_stray_line_exits_4(tmp_path, capsys, stray, last):
    path = tmp_path / "world.txt"
    save_world(path, make_world(WorldConfig(seed=2)))
    lines = path.read_text().splitlines()
    at = len(lines) if last else lines.index(
        next(ln for ln in lines if ln.startswith("config "))
    ) + 1
    lines.insert(at, stray)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["train", "source", "--seed", "2", "--world", str(path),
                 "--out-dir", str(out)]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert (
        f"error: line {at + 1}: expected a 'seed', 'config' or 'prototype' line, "
        f"got {stray!r}"
    ) in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("what", ["world", "checkpoint", "scenes", "config"])
def test_undecodable_input_file_names_file_and_line(tmp_path, capsys, what):
    # 0xff starts no UTF-8 sequence, on the first line or after good lines;
    # data files exit 4 and a config file exits 2, as other malformed lines
    # of each do
    scenes_path, det_path = _eval_fixture(tmp_path)
    world_path = tmp_path / "world.txt"
    save_world(world_path, make_world(WorldConfig(seed=2)))
    path = tmp_path / f"bad-{what}.txt"
    commands = {
        "world": (["train", "source", "--world", str(path)], world_path),
        "checkpoint": (
            ["train", "lstd", "--source-model", str(path)], None,
        ),
        "scenes": (
            ["eval", "--detections", str(det_path), "--scenes", str(path)],
            scenes_path,
        ),
        "config": (["train", "source", "--config", str(path)], None),
    }
    argv, good = commands[what]
    good_text = {
        "checkpoint": b"# transferdet checkpoint v1\nsource_classes 6\n",
        "config": b"# overrides\nsource_epochs=1\n",
    }.get(what) or good.read_bytes()
    after_good_lines = (good_text + b"\xff\n", good_text.count(b"\n") + 1)
    for text, line in ((b"\xff\xfe", 1), after_good_lines):
        path.write_bytes(text)
        code = main(argv + ["--seed", "1", "--out-dir", str(tmp_path / "out")])
        assert code == (EXIT_CONFIG if what == "config" else EXIT_MALFORMED)
        err = capsys.readouterr().err
        assert f"error: line {line}: {path} is not utf-8 text" in err, err
        assert "Traceback" not in err and "codec" not in err


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


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_eval_nonfinite_score_exits_4_naming_the_line(tmp_path, capsys, score):
    scenes_path, det_path = _eval_fixture(tmp_path)
    det_path.write_text(
        "scene_id,class,x1,y1,x2,y2,score\n"
        "0,0,0.1,0.1,0.2,0.2,0.9\n"
        f"0,0,0.1,0.1,0.2,0.2,{score}\n"
    )
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("scene", [1, 7, -1])
def test_eval_detection_in_a_missing_scene_exits_4(tmp_path, capsys, scene):
    # the fixture's scene file holds scene 0 only
    scenes_path, det_path = _eval_fixture(tmp_path)
    box = BBox(0.1, 0.1, 0.35, 0.35)
    write_detections_csv(
        det_path, [Detection(0, 0, box, 0.9), Detection(scene, 0, box, 0.5)]
    )
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    assert f"scene {scene}" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_malformed_cell_row_exits_4(tmp_path, capsys):
    scenes_path, det_path = _eval_fixture(tmp_path)
    lines = scenes_path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("cell "))
    lines[row] += " 0.0"
    scenes_path.write_text("".join(ln + "\n" for ln in lines))
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    assert f"line {row + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_eval_scene_file_with_a_non_finite_cell_exits_4_naming_its_scene(
    tmp_path, capsys, value
):
    scenes_path, det_path = _eval_fixture(tmp_path)
    lines = scenes_path.read_text().splitlines()
    scene = next(i for i, ln in enumerate(lines) if ln.startswith("scene "))
    words = lines[scene + 5].split()
    lines[scene + 5] = " ".join(words[:3] + [value] + words[4:])
    scenes_path.write_text("".join(ln + "\n" for ln in lines))
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert f"error: line {scene + 1}: scene with a non-finite raw grid value" in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("domains", [
    ("target", "target", "source", "source"), ("source", "target", "source"),
])
def test_eval_scene_set_of_mixed_domains_exits_4_naming_the_scene(
    tmp_path, capsys, domains
):
    # the class count of scene 0's domain would score every other scene
    world = make_world(WorldConfig(seed=2))
    rng = substream(2, "mixed")
    scenes = [sample_scenes(world, d, "full", rng, 1)[0] for d in domains]
    scenes_path = tmp_path / "scenes.txt"
    save_scenes(scenes_path, world, scenes)
    det_path = tmp_path / "detections.csv"
    write_detections_csv(det_path, [Detection(0, 3, scenes[0].gt[0][1], 0.9)])
    first = next(i for i, d in enumerate(domains) if d != domains[0])
    out = tmp_path / "out"
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(out),
    ])
    assert code == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert (
        f"scene {first} is a {domains[first]} scene but scene 0 is a "
        f"{domains[0]} scene"
    ) in err
    assert "Traceback" not in err and not out.exists()


def test_eval_missing_inputs_exit_3(tmp_path):
    scenes_path, det_path = _eval_fixture(tmp_path)
    assert main([
        "eval", "--detections", str(tmp_path / "none.csv"),
        "--scenes", str(scenes_path), "--out-dir", str(tmp_path),
    ]) == EXIT_MISSING_INPUT
    assert main([
        "eval", "--detections", str(det_path), "--out-dir", str(tmp_path),
    ]) == EXIT_MISSING_INPUT


# Each path argument given a path of the wrong kind, ``{dir}`` an existing
# directory and ``{file}`` an existing file: the argv, what stderr must
# say, and the exit code.  Every case fails before any work.
WRONG_KIND_PATHS = {
    "config_dir": (["world", "--config", "{dir}"], "not a file", EXIT_MISSING_INPUT),
    "world_dir": (["train", "source", "--world", "{dir}"], "not a file", EXIT_MISSING_INPUT),
    "source_model_dir": (
        ["train", "lstd", "--source-model", "{dir}"], "not a file", EXIT_MISSING_INPUT
    ),
    "warmup_model_dir": (
        ["train", "wstd", "--warmup-model", "{dir}"], "not a file", EXIT_MISSING_INPUT
    ),
    "detections_dir": (
        ["eval", "--detections", "{dir}", "--scenes", "{file}"], "not a file",
        EXIT_MISSING_INPUT,
    ),
    "scenes_dir": (
        ["eval", "--detections", "{file}", "--scenes", "{dir}"], "not a file",
        EXIT_MISSING_INPUT,
    ),
    "out_dir_a_file": (
        ["world", "--out-dir", "{file}"], "not a directory", EXIT_CONFIG
    ),
    "out_dir_under_a_file": (
        ["gradcheck", "--out-dir", "{file}/out"], "not a directory", EXIT_CONFIG
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND_PATHS))
def test_path_of_the_wrong_kind_exits_without_a_traceback(tmp_path, capsys, case):
    argv, message, code = WRONG_KIND_PATHS[case]
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("x\n")
    argv = [
        arg.format(dir=tmp_path / "dir", file=tmp_path / "file") for arg in argv
    ]
    out = tmp_path / "out"
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(out)]
    assert main(argv + ["--seed", "1"]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


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


def _line_of(lines, word, nth=0):
    """The index of the ``nth`` line whose first word is ``word``."""
    return [i for i, ln in enumerate(lines) if ln.split()[:1] == [word]][nth]


def _replace_words(lines, word, edit, nth=0):
    """(lines with the ``nth`` ``word`` line's words edited, its index)."""
    i = _line_of(lines, word, nth)
    return lines[:i] + [" ".join(edit(lines[i].split()))] + lines[i + 1:], i


def _insert_before_record(lines, line, nth=1):
    """(lines with ``line`` put just before scene record ``nth``, its index)."""
    i = _line_of(lines, "scene", nth) if nth is not None else len(lines)
    return lines[:i] + [line] + lines[i:], i


# Each edit of a 3-scene target-domain file (4 classes) gives the edited
# lines and the index of the line its error must name.
SCENE_FILE_EDITS = {
    "gt line with 3 corners": lambda ls: _replace_words(ls, "gt", lambda w: w[:-1]),
    "gt line with 5 corners": lambda ls: _replace_words(ls, "gt", lambda w: w + ["0.9"], 2),
    "prop line with 3 corners": lambda ls: _replace_words(ls, "prop", lambda w: w[:-1], 40),
    "prop line with 5 corners": lambda ls: _replace_words(ls, "prop", lambda w: w + ["0.9"]),
    "gt class -1": lambda ls: _replace_words(ls, "gt", lambda w: w[:1] + ["-1"] + w[2:]),
    "gt class equal to the class count": lambda ls: _replace_words(
        ls, "gt", lambda w: w[:1] + ["4"] + w[2:], 1
    ),
    "gt class 9": lambda ls: _replace_words(ls, "gt", lambda w: w[:1] + ["9"] + w[2:], -1),
    "gt class not an integer": lambda ls: _replace_words(
        ls, "gt", lambda w: w[:1] + ["0.5"] + w[2:]
    ),
    "gt line in place of a prop line": lambda ls: _replace_words(
        ls, "prop", lambda w: ["gt", "0"] + w[1:]
    ),
    "prop word on a gt line": lambda ls: _replace_words(ls, "gt", lambda w: ["prop"] + w[1:]),
    "inverted proposal box": lambda ls: _replace_words(
        ls, "prop", lambda w: w[:1] + w[3:5] + w[1:3]
    ),
    "scene line short of a field": lambda ls: _replace_words(ls, "scene", lambda w: w[:-1], 1),
    "scene line with a negative GT count": lambda ls: _replace_words(
        ls, "scene", lambda w: w[:4] + ["-1"] + w[5:]
    ),
    "unknown domain": lambda ls: _replace_words(
        ls, "scene", lambda w: w[:3] + ["sea"] + w[4:], 2
    ),
    "unknown mode": lambda ls: _replace_words(ls, "scene", lambda w: w[:2] + ["half"] + w[3:], 1),
    "label one value short": lambda ls: _replace_words(ls, "label", lambda w: w[:-1]),
    "label of a float": lambda ls: _replace_words(ls, "label", lambda w: w[:-1] + ["1.0"], 1),
    "config line after the first record": lambda ls: _insert_before_record(
        ls, "config seed 3"
    ),
    "count line after the first record": lambda ls: _insert_before_record(ls, "count 3", 2),
    "seed line after the last record": lambda ls: _insert_before_record(ls, "seed 3", None),
    "stray line between records": lambda ls: _insert_before_record(ls, "note: 3 scenes"),
    "stray line after the last record": lambda ls: _insert_before_record(ls, "x", None),
    "stray line in the header": lambda ls: _insert_before_record(ls, "# more", 0),
}


@pytest.mark.parametrize("edit", sorted(SCENE_FILE_EDITS))
def test_eval_malformed_scene_record_exits_4_naming_the_line(
    three_scene_lines, tmp_path, capsys, edit
):
    lines, bad = SCENE_FILE_EDITS[edit](three_scene_lines)
    assert lines != three_scene_lines
    scenes = tmp_path / "scenes.txt"
    scenes.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(ValueError, match=f"^line {bad + 1}: "):
        load_scenes(scenes)
    detections = tmp_path / "detections.csv"
    detections.write_text("scene_id,class,x1,y1,x2,y2,score\n")
    assert main([
        "eval", "--detections", str(detections), "--scenes", str(scenes),
        "--out-dir", str(tmp_path),
    ]) == EXIT_MALFORMED
    assert f"error: line {bad + 1}: " in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_count_header_beyond_the_records_exits_4(tmp_path, capsys):
    # nothing is sized from the count header: it is only compared
    scenes_path, det_path = _eval_fixture(tmp_path)
    text = scenes_path.read_text()
    scenes_path.write_text(text.replace("count 1\n", "count 1000000000000\n"))
    code = main([
        "eval", "--detections", str(det_path), "--scenes", str(scenes_path),
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_MALFORMED
    assert "holds 1 scenes but its header says 1000000000000" in capsys.readouterr().err


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
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "fig7.csv", "fig7_summary.csv", "manifest.json"
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("fig7.csv", "fig7_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_experiment_manifest_records_the_experiment(tmp_path):
    argv = ["experiment", "fig7", "--seeds", "0,1"] + EXPERIMENT_ARGS
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    experiment = EXPERIMENTS["fig7"]
    assert manifest["subcommand"] == "experiment"
    assert manifest["experiment"] == "fig7"
    assert manifest["description"] == experiment.description
    assert manifest["seeds"] == [0, 1]
    assert manifest["outputs"] == ["fig7.csv", "fig7_summary.csv"]
    assert manifest["overrides"]["source_scenes"] == "20"
    assert len(manifest["overrides"]) == len(EXPERIMENT_ARGS) // 2
    assert [c["cell"] for c in manifest["cells"]] == [
        c.cell_id for c in experiment.cells
    ]
    assert manifest["cells"][0] == {
        "cell": "sdk_without", "stage": "wstd", "classifier": None,
        "overrides": {"weights.lambda_wstd_sdk": "0.0"}, "world_overrides": {},
    }
    # the same overrides from a config file record the same experiment
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text("\n".join(EXPERIMENT_ARGS[1::2]) + "\n")
    assert main([
        "experiment", "fig7", "--seeds", "0,1", "--config", str(cfg),
        "--out-dir", str(tmp_path / "b"),
    ]) == 0
    rerun = json.loads((tmp_path / "b" / "manifest.json").read_text())
    for key in ("experiment", "description", "seeds", "outputs", "overrides", "cells"):
        assert rerun[key] == manifest[key], key


@pytest.mark.parametrize("seeds, expected", [("0,0", [0, 0]), (None, [1, 0])])
def test_experiment_manifest_lists_the_seeds_run(tmp_path, monkeypatch, seeds, expected):
    # the seeds as run, the defaults when none are given
    monkeypatch.setitem(
        EXPERIMENTS, "table3", replace(EXPERIMENTS["table3"], default_seeds=(1, 0))
    )
    argv = ["experiment", "table3", "--out-dir", str(tmp_path)] + EXPERIMENT_ARGS
    assert main(argv + (["--seeds", seeds] if seeds else [])) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == expected
    assert not list(tmp_path.glob("table3_manifest*"))


# --- gradcheck -----------------------------------------------------------


def test_gradcheck_suite_unit():
    results = run_gradcheck_suite(["bd"], instances=2)
    assert [name for name, _, _ in results] == ["bd"]
    assert all(passed for _, _, passed in results)
    with pytest.raises(ValueError, match="unknown loss"):
        run_gradcheck_suite(["nope"], instances=1)
    assert len(GRADCHECKS) == 9


@pytest.mark.parametrize("kwargs", [
    {"instances": 0}, {"instances": -1},
    {"tolerance": float("inf")}, {"tolerance": float("nan")},
    {"tolerance": 0.0}, {"tolerance": -1e-6},
])
def test_gradcheck_suite_rejects_settings_that_cannot_fail(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        run_gradcheck_suite(["bd"], **kwargs)


@pytest.mark.parametrize("flag", [
    "--instances=0", "--instances=-1", "--tolerance=inf", "--tolerance=nan",
    "--tolerance=0", "--tolerance=-1e-6",
])
def test_gradcheck_that_cannot_fail_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "g"
    assert main(["gradcheck", flag, "--out-dir", str(out)]) == EXIT_CONFIG
    assert flag[2:].split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_wstd_gradcheck_probes_the_stacked_rol_heads():
    rng = np.random.default_rng(0)
    pack, params = _wstd_instance(rng)
    assert params["rol_heads"].shape == (3, 1, 4, 5)
    _, analytic, point = GRADCHECKS["wstd_end_to_end"](rng)
    assert point.size == analytic.size == sum(p.size for p in params.values())


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
