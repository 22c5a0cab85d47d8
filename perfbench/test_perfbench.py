"""The benchmark's own checks.  Run from the root of a checkout:

    python3 -m pytest -q perfbench

They run real passes of ``cli_io`` and one traced pass of ``finetune``,
about 30 s in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.SEEDS_PER_SET)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == tracer.LAYER_METRICS


def test_references_cover_every_input_set():
    refs = run.load_refs()
    for workload in workloads.SEEDS_PER_SET:
        for i in range(workloads.POOL):
            entry = refs[workload][str(i)]
            assert entry["seeds"] == workloads.program_seeds(workload, i)
            assert set(entry["files"]) == {
                name for op in workloads.OUTPUTS[workload] for name in op
            }
            assert set(entry["fixtures"]) == set(workloads.FIXTURE_FILES[workload])


def _passes(workload: str, traces: list[bool]) -> list[dict]:
    work = ROOT / ".perfbench" / "work" / f"test-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(ROOT, work, workload, 0)
        assert runner.build_fixtures()[0] is not None
        return [runner.run_pass(trace=t) for t in traces]
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.fixture(scope="module")
def cli_io_passes():
    return _passes("cli_io", [False, True, True])


def test_passes_match_the_reference_digests(cli_io_passes):
    expected = run.load_refs()["cli_io"]["0"]
    for result in cli_io_passes:
        assert run.check_pass(result, expected) == (0, [])


def test_tracing_leaves_output_bytes_and_attributes_alone(cli_io_passes):
    untraced, *traced = cli_io_passes
    for result in traced:
        assert result["digests"] == untraced["digests"]
        assert result["restored"]


def test_counts_repeat_exactly_across_traced_runs(cli_io_passes):
    _, first, second = cli_io_passes
    assert first["counts"] == second["counts"]
    assert {k: v["calls"] for k, v in first["layers"].items()} == {
        k: v["calls"] for k, v in second["layers"].items()
    }
    assert first["counts"]["scenes_sampled"] >= workloads.CLI_SCENES


def test_cli_io_runs_no_training_stage_but_lstd(cli_io_passes):
    layers = cli_io_passes[1]["layers"]
    assert layers["pipeline.train_source"]["calls"] == 0
    assert layers["pipeline.wstd_train"]["calls"] == 0
    assert layers["pipeline.lstd_finetune"]["calls"] == 1
    for name in ("cli.world", "cli.train", "cli.eval"):
        assert layers[name]["calls"] == 1


def test_finetune_never_reaches_weak_stage_code():
    (result,) = _passes("finetune", [True])
    layers = result["layers"]
    for name in ("pipeline.warmup_proposals", "pipeline.pack_wstd_scene",
                 "labelling.mine_support", "pipeline.wstd_train"):
        assert layers[name]["calls"] == 0, name
    assert layers["pipeline.lstd_finetune"]["calls"] == 6 * 2
    assert result["restored"]


def test_tracer_wraps_and_restores_in_process():
    sys.path.insert(0, str(ROOT / "src"))
    from transferdet import pipeline

    original = pipeline.adam_step
    with tracer.Tracer() as t:
        assert pipeline.adam_step is not original
        assert not t.restored()
    assert pipeline.adam_step is original
    assert t.restored()


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == (1.0, "better")
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[1] == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1) == (0.0, "same")
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(base, base, "lower", None)[1] == "no bound"


def test_fails_without_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_io", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
