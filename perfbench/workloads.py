"""The benchmark's workloads: inputs from a seed, operations, output files.

Each workload is a closed loop with one caller in one process.  An
operation is one ``transferdet`` command line, run through
``transferdet.cli.main`` in a fresh interpreter the way a user's shell call
runs.  The driver (``run.py``) and the worker (``worker.py``) both read
these definitions; only the worker imports the program.
"""

from __future__ import annotations

# ``--seed n`` selects input set ``n % POOL``.  Reference digests exist for
# every input set, so any seed the driver picks can be checked.
POOL = 10


# Program seeds per input set.  The experiments take several seeds in one
# call, so cross-seed parallelism in the program would show, and the work
# per pass varies less between input sets.
SEEDS_PER_SET = {"finetune": 2, "weak": 2, "cli_io": 1}


def program_seeds(workload: str, seed: int) -> list[int]:
    """The program seeds of input set ``seed % POOL``."""
    count = SEEDS_PER_SET[workload]
    base = (seed % POOL) * count
    return list(range(base, base + count))


# cli_io sizes: 400 scenes is about 9.5 MB of scene text; detecting on
# them with a warm-up model gives about 37k detection rows.
CLI_SCENES = 400


def operations(workload: str, seeds: list[int], out: str, fixtures: str):
    """Command lines of one pass over the workload, in order.

    ``out`` is a fresh directory for this pass; ``fixtures`` holds what
    ``build_fixtures`` wrote for these seeds.
    """
    seed_list = ",".join(str(s) for s in seeds)
    if workload == "finetune":
        return [["experiment", "table3", "--seeds", seed_list, "--out-dir", out]]
    if workload == "weak":
        return [["experiment", "fig9", "--seeds", seed_list, "--out-dir", out]]
    if workload == "cli_io":
        (seed,) = seeds
        return [
            ["world", "--count", str(CLI_SCENES), "--seed", str(seed),
             "--out-dir", f"{out}/world"],
            ["train", "lstd", "--seed", str(seed),
             "--world", f"{out}/world/world.txt",
             "--source-model", f"{fixtures}/source_model.txt",
             "--out-dir", f"{out}/train"],
            ["eval", "--detections", f"{fixtures}/detections.csv",
             "--scenes", f"{out}/world/scenes.txt", "--out-dir", f"{out}/eval"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Files each operation writes whose bytes are a pure function of the
# seeds.  The manifests are left out: they hold wall-clock times and the
# command line, which names the run's directories.
OUTPUTS = {
    "finetune": [["table3.csv", "table3_summary.csv"]],
    "weak": [["fig9.csv", "fig9_summary.csv"]],
    "cli_io": [
        ["world/world.txt", "world/scenes.txt"],
        ["train/lstd_model.txt", "train/lstd_losses.csv"],
        ["eval/eval.csv"],
    ],
}

FIXTURE_FILES = {
    "finetune": [],
    "weak": [],
    "cli_io": ["source_model.txt", "detections.csv"],
}


def build_fixtures(workload: str, seeds: list[int], fixtures: str) -> None:
    """Write the inputs a workload reads but does not time.

    For cli_io: a source checkpoint, and the detections of the warm-up
    model on the same 400 scenes that ``world`` writes for this seed.
    """
    if workload != "cli_io":
        return
    from transferdet.evaluation import write_detections_csv
    from transferdet.model import save_model
    from transferdet.pipeline import StageConfig, detect, lstd_finetune, train_source
    from transferdet.synthworld import WorldConfig, make_world, sample_scenes, substream

    (seed,) = seeds
    world = make_world(WorldConfig(seed=seed))
    cfg = StageConfig(seed=seed)
    source = train_source(world, cfg)
    save_model(f"{fixtures}/source_model.txt", source, seed)
    warmup = lstd_finetune(source, world, cfg)
    # The same stream ``transferdet world`` draws its scenes from.
    scenes = sample_scenes(
        world, "target", "full", substream(seed, "cli", "scenes"), CLI_SCENES
    )
    detections = [d for i, s in enumerate(scenes) for d in detect(warmup, s, i)]
    write_detections_csv(f"{fixtures}/detections.csv", detections)
