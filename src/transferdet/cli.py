"""Command-line entry point.

Subcommands: ``world`` (generate a benchmark), ``train`` (one stage),
``eval`` (score a detections file), ``experiment`` (registered suites),
``gradcheck`` (finite-difference audit of every loss and of each stage's
scene loss end to end).  Exit codes: 2 bad configuration (an
``--out-dir`` that is not a directory too), 3 missing input (or an input
path that is not a file), 4 malformed data, 5 unknown experiment, 6
gradient-check failure.

``world``, ``train`` and ``experiment`` take config overrides as
``key=value`` lines of a ``--config`` file, then repeatable ``--set``
options; a later value of a key wins.  Dotted keys reach nested fields
(``rol.phi_obj=0.4``).  A value is typed by its field: a boolean word
(1/true/yes/on, 0/false/no/off), an int, a float, or for
``objects_per_scene`` two ints split on ``,`` or ``:``.  Each config is
built once from all its overrides, so their order never decides whether
it is valid.  An unknown field, a whole config group (``weights``,
``rol``, ``optimizer``) or a value the field or config rejects exits 2
before any work.  Seeds come only from ``--seed`` (``--seeds`` for
``experiment``), never from an override.  A manifest's ``config_digest``
is the SHA-256 of the sorted ``key=value`` lines of the overrides applied.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import shlex
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import (
    DetectionsFormatError,
    EvalConfig,
    evaluate_detections,
    read_detections_csv,
    write_eval_csv,
)
from .geometry import BBox, pairwise_iou
from .losses import (
    bd_loss,
    image_multilabel_loss,
    proposal_cls_loss,
    proposal_targets,
    rol_classifier_loss,
    sdk_loss,
    sdk_target,
)
from .model import ParamLayout, load_model, save_model
from .numerics import column_softmax, grad_check
from .pipeline import (
    EXPERIMENTS,
    RunReport,
    StageConfig,
    ScenePack,
    UnknownExperimentError,
    cell_maps,
    experiment_output_paths,
    lstd_finetune,
    lstd_scene_loss,
    run_experiment,
    source_scene_loss,
    train_source,
    wstd_scene_loss,
    wstd_train,
)
from .synthworld import (
    WorldConfig,
    load_scenes,
    load_world,
    make_world,
    sample_scenes,
    save_scenes,
    save_world,
    substream,
)
from .textfile import apply_overrides, named_decode_errors

EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_MALFORMED = 4
EXIT_UNKNOWN_EXPERIMENT = 5
EXIT_GRADCHECK = 6


class CliError(Exception):
    """Error with a dedicated process exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# --- configuration plumbing ---------------------------------------------------


def _read_config_file(path) -> list[str]:
    with named_decode_errors(path):
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _gather_overrides(args) -> dict[str, str]:
    """The ``--config`` file's lines, then the ``--set`` values, as
    ``{key: raw value}`` (a later value of a key replaces an earlier one;
    empty without overrides); :func:`apply_overrides` types them."""
    config = getattr(args, "config", None)
    pairs = _read_config_file(_require_input(config, "config file")) if config else []
    pairs += getattr(args, "set", None) or []
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        overrides[key.strip()] = raw.strip()
    return overrides


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return secrets.randbelow(2**31)


def _parse_seeds(raw: str | None):
    if raw is None:
        return None
    raw = raw.strip()
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(part) for part in raw.split(",") if part.strip()]


def _config_digest(overrides: dict[str, str]) -> str:
    """SHA-256 of the sorted ``key=value`` lines of the overrides a command
    applied; of nothing for a command that takes none."""
    lines = sorted(f"{key}={value}" for key, value in overrides.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _write_manifest(args, out_dir: Path, seeds, outputs, started: float,
                    **fields) -> Path:
    """Write ``manifest.json``: the command, its config digest, seeds,
    outputs and wall clock, plus a command's own ``fields``."""
    for path in outputs:
        if not Path(path).exists():
            raise RuntimeError(f"manifest lists missing output {path}")
    payload = {
        "command": args.command,
        "subcommand": args.cmd,
        "config_digest": _config_digest(args.overrides),
        "seeds": seeds if isinstance(seeds, list) else [seeds],
        "artifact_version": __version__,
        "outputs": [Path(p).name for p in outputs],
        "wall_clock_seconds": time.perf_counter() - started,
        **fields,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _require_input(path, what: str) -> Path:
    if path is None:
        raise CliError(EXIT_MISSING_INPUT, f"{what} required but not given")
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_MISSING_INPUT, f"{what} not found: {p}")
    if not p.is_file():
        raise CliError(EXIT_MISSING_INPUT, f"{what} is not a file: {p}")
    return p


def _check_out_dir(path) -> None:
    """Refuse, before any work, an ``--out-dir`` that no directory can be
    made at: its nearest existing path is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise CliError(EXIT_CONFIG, f"--out-dir {out}: {existing} is not a directory")


# --- subcommands --------------------------------------------------------------


def cmd_world(args) -> int:
    started = time.perf_counter()
    if args.count < 1:
        raise CliError(EXIT_CONFIG, f"--count must be at least 1, got {args.count}")
    seed = _resolve_seed(args)
    cfg = replace(apply_overrides(WorldConfig(), args.overrides), seed=seed)
    world = make_world(cfg)
    scenes = sample_scenes(
        world, args.domain, args.mode, substream(seed, "cli", "scenes"), args.count
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world_path = out / "world.txt"
    scenes_path = out / "scenes.txt"
    save_world(world_path, world)
    save_scenes(scenes_path, world, scenes)
    _write_manifest(args, out, seed, [world_path, scenes_path], started)
    print(f"seed {seed}")
    print(f"wrote {world_path} and {scenes_path} ({len(scenes)} scenes)")
    return 0


def _load_world_arg(args, seed: int):
    if args.world:
        path = _require_input(args.world, "world file")
        try:
            return load_world(path)
        except ValueError as exc:
            raise CliError(EXIT_MALFORMED, str(exc))
    return make_world(WorldConfig(seed=seed))


def _load_start_model(args, world):
    """The checkpoint ``train lstd`` or ``train wstd`` starts from, checked
    before any work: a raw_dim x raw_dim backbone, a main head over the
    source (lstd) or target (wstd) classes plus background, for lstd a
    source-knowledge head (the distillation teacher) over the source
    classes plus background, and for wstd an SDK head.  A malformed or
    unfitting checkpoint exits 4, naming the checkpoint and the field."""
    if args.stage == "lstd":
        path, what, domain = args.source_model, "source checkpoint", "source"
    else:
        path, what, domain = args.warmup_model, "warm-up checkpoint", "target"
    p = _require_input(path, what)
    try:
        model = load_model(p)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))
    dim, rows = world.config.raw_dim, world.config.classes_in(domain) + 1
    try:
        teacher_rows = len(model.source_knowledge_head())
    except ValueError:
        teacher_rows = 0
    if model.backbone.shape != (dim, dim):
        problem = "backbone is {}x{}, the world needs {d}x{d} (raw_dim)".format(
            *model.backbone.shape, d=dim
        )
    elif len(model.main_head) != rows:
        problem = (f"main_head has {len(model.main_head)} rows, the world "
                   f"needs {rows} (num_{domain}_classes + 1)")
    elif args.stage == "wstd" and model.sdk_head is None:
        problem = "has no sdk_head; a warm-up from train lstd has one"
    elif args.stage == "lstd" and not teacher_rows:
        problem = (f"has no head over the source classes: no sdk_head, and "
                   f"source_classes is {model.source_classes}, not {rows - 1}")
    elif args.stage == "lstd" and teacher_rows != rows:
        problem = (f"sdk_head has {teacher_rows} rows, the world needs {rows} "
                   f"(num_source_classes + 1)")
    else:
        return model
    raise CliError(EXIT_MALFORMED, f"{what} {p}: {problem}")


def cmd_train(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args)
    cfg = replace(apply_overrides(StageConfig(), args.overrides), seed=seed)
    world = _load_world_arg(args, seed)
    report = RunReport(seed=seed, stage=args.stage)
    if args.stage == "source":
        (model,) = train_source([world], [cfg], [report])
    elif args.stage == "lstd":
        (model,) = lstd_finetune(_load_start_model(args, world), world, [cfg], [report])
    else:
        (model,) = wstd_train(_load_start_model(args, world), world, [cfg], [report])

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"{args.stage}_model.txt"
    save_model(ckpt, model, seed)
    losses_csv = out / f"{args.stage}_losses.csv"
    lines = ["step,component,value"]
    for component in sorted(report.curves):
        for step, value in enumerate(report.curves[component].tolist()):
            lines.append(f"{step},{component},{value!r}")
    losses_csv.write_text("\n".join(lines) + "\n")
    _write_manifest(args, out, seed, [ckpt, losses_csv], started)
    print(f"seed {seed}")
    print(f"wrote {ckpt}")
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    detections_path = _require_input(args.detections, "detections file")
    scenes_path = _require_input(args.scenes, "scene file")
    detections = read_detections_csv(detections_path)
    try:
        world_cfg, scenes = load_scenes(scenes_path)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))
    if not scenes:
        raise CliError(EXIT_MALFORMED, f"no scenes in {scenes_path}")
    domain = scenes[0].domain
    for i, scene in enumerate(scenes):
        if scene.domain != domain:
            raise CliError(EXIT_MALFORMED, (
                f"{scenes_path}: scene {i} is a {scene.domain} scene but scene 0 "
                f"is a {domain} scene; a scene set is scored in one domain"
            ))
    ground_truths = [scene.gt for scene in scenes]
    num_classes = world_cfg.classes_in(domain)
    eval_cfg = EvalConfig(iou_threshold=args.iou_threshold, ap_method=args.ap_method)
    try:
        per_class, map_value = evaluate_detections(
            detections, ground_truths, num_classes, eval_cfg
        )
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "eval.csv"
    write_eval_csv(report_path, per_class, map_value)
    _write_manifest(args, out, args.seed if args.seed is not None else 0,
                    [report_path], started)
    print(f"mAP {map_value!r}")
    return 0


def cmd_experiment(args) -> int:
    """Run a registered experiment into ``--out-dir``: its two CSVs and a
    ``manifest.json`` that also records the experiment, its description,
    the overrides and every cell.  Prints each cell's mAP mean and std."""
    started = time.perf_counter()
    seeds = _parse_seeds(args.seeds)
    out = Path(args.out_dir)
    reports = run_experiment(args.name, seeds, out, args.overrides)
    experiment = EXPERIMENTS[args.name]
    _write_manifest(
        args, out, list(experiment.default_seeds) if seeds is None else seeds,
        list(experiment_output_paths(args.name, out).values()), started,
        experiment=args.name,
        description=experiment.description,
        overrides=args.overrides,
        cells=[
            {"cell": c.cell_id, "stage": c.stage, "classifier": c.classifier,
             "overrides": {k: str(v) for k, v in c.overrides},
             "world_overrides": {k: str(v) for k, v in c.world_overrides}}
            for c in experiment.cells
        ],
    )
    for cell_id, maps in cell_maps(reports).items():
        print(f"{args.name}/{cell_id}: mAP {maps.mean():.4f} +- {maps.std():.4f} "
              f"({maps.size} seeds)")
    return 0


# --- gradient-check suite ------------------------------------------------------


def _random_score_matrix(rng, rows: int, cols: int) -> np.ndarray:
    m = rng.uniform(0.05, 1.0, size=(rows, cols))
    return m / m.sum(axis=0, keepdims=True)


def _random_boxes(rng, count: int) -> list[BBox]:
    boxes = []
    for _ in range(count):
        x1 = rng.uniform(0.0, 0.7)
        y1 = rng.uniform(0.0, 0.7)
        boxes.append(
            BBox(x1, y1, x1 + rng.uniform(0.1, 0.3), y1 + rng.uniform(0.1, 0.3))
        )
    return boxes


def _grads_like(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One gradient array per parameter block, for a scene loss to fill."""
    return {name: np.empty_like(block) for name, block in params.items()}


def _end_to_end(loss, params: dict[str, np.ndarray]):
    """Finite-difference instance of a scene loss over all its parameter
    blocks, flattened in sorted order.  The blocks carry a member axis of
    one, as ``loss(params, grads)`` takes them; it writes the gradient of
    every block into ``grads``, here views into one buffer of the blocks'
    layout, and returns the loss components."""
    layout = ParamLayout.of({k: params[k] for k in sorted(params)})
    gradient = np.empty(layout.stops[-1])
    loss(params, layout.views(gradient))
    probe_grads = _grads_like(params)
    return (
        lambda vec: float(loss(layout.views(vec), probe_grads)["total"][0]),
        gradient,
        layout.flatten(params),
    )


def _gc_bd(rng):
    grid = rng.standard_normal((4, 5, 6))
    mask = rng.uniform(size=(4, 5)) < 0.5
    _, grad = bd_loss(grid, mask)
    return (lambda g: bd_loss(g, mask)[0]), grad, grid


def _gc_sdk(rng, weighted=False):
    target, mass = sdk_target(_random_score_matrix(rng, 5, 7), weighted)
    logits = rng.standard_normal((5, 7))
    _, grad = sdk_loss(target, mass, logits)
    return (lambda z: sdk_loss(target, mass, z)[0]), grad, logits


def _gc_image_multilabel(rng):
    logits = 0.4 * rng.standard_normal((5, 6))
    y = (rng.uniform(size=4) < 0.5).astype(float)
    _, grad = image_multilabel_loss(logits, y)
    return (lambda z: image_multilabel_loss(z, y)[0]), grad, logits


def _gc_rol(rng):
    logits = rng.standard_normal((5, 7))
    pseudo = np.zeros((5, 7))
    for k in range(7):
        if rng.uniform() < 0.7:
            pseudo[rng.integers(0, 5), k] = rng.uniform(0.1, 1.0)
    _, grad = rol_classifier_loss(column_softmax(logits), pseudo)
    return (lambda z: rol_classifier_loss(column_softmax(z), pseudo)[0]), grad, logits


def _gc_proposal_cls(rng):
    logits = rng.standard_normal((5, 7))
    targets = proposal_targets(rng.integers(0, 5, size=7), 5)
    _, grad = proposal_cls_loss(logits, targets)
    return (lambda z: proposal_cls_loss(z, targets)[0]), grad, logits


def _lstd_instance(rng):
    num_target, num_source, dim, k = 3, 4, 4, 5
    raw_means = rng.standard_normal((k, dim))
    raw_grid = rng.standard_normal((3, 3, dim))
    labels = rng.integers(0, num_target + 1, size=k)
    background_mask = rng.uniform(size=(3, 3)) < 0.5
    teacher = _random_score_matrix(rng, num_source + 1, k)
    pack = ScenePack(
        raw_means=raw_means,
        raw_grid=raw_grid,
        targets=proposal_targets(labels, num_target + 1),
        background_mask=background_mask,
        teacher=teacher,
        sdk=sdk_target(teacher),
    )
    params = {
        "backbone": 0.7 * rng.standard_normal((1, dim, dim)),
        "main_head": 0.5 * rng.standard_normal((1, num_target + 1, dim + 1)),
        "sdk_head": 0.5 * rng.standard_normal((1, num_source + 1, dim + 1)),
    }
    return pack, params


def _gc_source_end_to_end(rng):
    pack, params = _lstd_instance(rng)
    del params["sdk_head"]
    return _end_to_end(lambda p, g: source_scene_loss(p, pack, g), params)


def _gc_lstd_end_to_end(rng):
    pack, params = _lstd_instance(rng)
    return _end_to_end(
        lambda p, g: lstd_scene_loss(p, pack, [StageConfig()], g), params
    )


def _wstd_instance(rng):
    num_target, num_source, dim, k = 3, 4, 4, 6
    y = np.zeros(num_target)
    y[rng.integers(0, num_target)] = 1.0
    if rng.uniform() < 0.5:
        y[rng.integers(0, num_target)] = 1.0
    boxes = _random_boxes(rng, k)
    raw_means = rng.standard_normal((k, dim))
    teacher = _random_score_matrix(rng, num_source + 1, k)
    pack = ScenePack(
        raw_means=raw_means,
        teacher=teacher,
        sdk=sdk_target(teacher),
        y_img=y,
        iou=pairwise_iou(boxes),
        present=np.flatnonzero(y),
    )
    params = {
        "backbone": 0.7 * rng.standard_normal((1, dim, dim)),
        "sdk_head": 0.5 * rng.standard_normal((1, num_source + 1, dim + 1)),
        "rol_heads": 0.5 * rng.standard_normal((3, 1, num_target + 1, dim + 1)),
    }
    return pack, params


def _gc_wstd_end_to_end(rng):
    pack, params = _wstd_instance(rng)
    cfgs = [StageConfig()]
    # Pseudo labels are constants of a step: probes keep the mined ones.
    _, pseudo = wstd_scene_loss(params, pack, cfgs, _grads_like(params))
    return _end_to_end(
        lambda p, g: wstd_scene_loss(p, pack, cfgs, g, fixed_pseudo=pseudo)[0],
        params,
    )


GRADCHECKS = {
    "bd": _gc_bd,
    "sdk": _gc_sdk,
    "sdk_weighted": lambda rng: _gc_sdk(rng, weighted=True),
    "image_multilabel": _gc_image_multilabel,
    "rol": _gc_rol,
    "proposal_cls": _gc_proposal_cls,
    "source_end_to_end": _gc_source_end_to_end,
    "lstd_end_to_end": _gc_lstd_end_to_end,
    "wstd_end_to_end": _gc_wstd_end_to_end,
}


def run_gradcheck_suite(
    names=None, instances: int = 25, tolerance: float = 1e-6, seed: int = 0
) -> list[tuple[str, float, bool]]:
    """Run every named check ``instances`` times; returns per-loss results.

    ``instances`` must be at least 1 and ``tolerance`` finite and positive:
    otherwise no check could fail, and the suite raises ValueError.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    names = list(GRADCHECKS) if not names else list(names)
    results = []
    for name in names:
        if name not in GRADCHECKS:
            raise ValueError(
                f"unknown loss {name!r}; available: {', '.join(GRADCHECKS)}"
            )
        rng = substream(seed, "gradcheck", name)
        worst = 0.0
        for _ in range(instances):
            f, analytic, point = GRADCHECKS[name](rng)
            report = grad_check(f, analytic, point, tolerance=tolerance)
            worst = max(worst, report.max_relative_error)
        results.append((name, worst, worst <= tolerance))
    return results


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    try:
        results = run_gradcheck_suite(
            names=args.only, instances=args.instances,
            tolerance=args.tolerance, seed=seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "gradcheck.csv"
    lines = ["loss,max_relative_error,passed"]
    for name, worst, passed in results:
        lines.append(f"{name},{repr(float(worst))},{str(passed).lower()}")
        print(f"{name}: max relative error {worst:.3e} "
              f"{'ok' if passed else 'FAIL'}")
    report_path.write_text("\n".join(lines) + "\n")
    _write_manifest(args, out, seed, [report_path], started)
    failures = [name for name, _, passed in results if not passed]
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferdet",
        description="Synthetic low-shot to weakly-supervised detector transfer.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out-dir", default=".", help="output directory")
    # Only the commands that read config overrides accept them.
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", help="key=value config file")
    configured.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="config override, repeatable; dotted keys reach nested fields, "
             "the value is typed by its field (bool word, int, float, ints "
             "split on , or :); seeds come only from --seed/--seeds",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_world = sub.add_parser("world", parents=[configured],
                             help="generate a world and a scene set")
    p_world.add_argument("--domain", choices=("source", "target"), default="target")
    p_world.add_argument("--mode", choices=("full", "weak"), default="full")
    p_world.add_argument("--count", type=int, default=32)
    p_world.set_defaults(func=cmd_world)

    p_train = sub.add_parser("train", parents=[configured], help="train one stage")
    p_train.add_argument("stage", choices=("source", "lstd", "wstd"))
    p_train.add_argument("--world", help="world file (defaults to seed-built world)")
    p_train.add_argument("--source-model", help="source checkpoint (lstd)")
    p_train.add_argument("--warmup-model", help="warm-up checkpoint (wstd)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a detections CSV against scenes")
    p_eval.add_argument("--detections", required=False)
    p_eval.add_argument("--scenes", required=False)
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.add_argument("--ap-method", choices=("voc07_11point", "all_points"),
                        default="voc07_11point")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("experiment", parents=[configured],
                           help="run a registered experiment")
    p_exp.add_argument("name")
    p_exp.add_argument("--seeds", default=None,
                       help="comma list or lo:hi range; defaults per experiment")
    p_exp.set_defaults(func=cmd_experiment)

    p_gc = sub.add_parser("gradcheck", parents=[common],
                          help="finite-difference audit of all losses")
    p_gc.add_argument("--tolerance", type=float, default=1e-6)
    p_gc.add_argument("--instances", type=int, default=25)
    p_gc.add_argument("--only", action="append", default=None,
                      help="restrict to named losses, repeatable")
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # The manifests' record of the command that ran, not the host process's argv.
    args.command = shlex.join(["transferdet", *argv])
    try:
        _check_out_dir(args.out_dir)
        args.overrides = _gather_overrides(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except DetectionsFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_EXPERIMENT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
