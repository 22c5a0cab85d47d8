"""The benchmark under ``perfbench/`` reaches into the package by name:
its tracer wraps module attributes, and its fixture builder and worker
import functions.  These tests fail when a change to the package removes
a name the benchmark needs, before a benchmark run would."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each ``from transferdet... import name`` in the
    file, function bodies included."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("transferdet")
        for alias in node.names
    ]


def test_every_tracer_target_is_a_callable_of_the_package():
    targets = load_tracer().TARGETS
    sites = [site for sites in targets.values() for site in sites]
    assert len(sites) >= len(targets) > 0
    for module_name, attr in sites:
        module = importlib.import_module(f"transferdet.{module_name}")
        assert callable(getattr(module, attr, None)), f"transferdet.{module_name}.{attr}"


def test_benchmark_imports_names_the_package_has():
    names = [
        name
        for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")
        for name in package_imports(path)
    ]
    # workloads.build_fixtures, which builds the cli_io fixtures, is scanned
    assert ("transferdet.pipeline", "detect") in names
    for module_name, name in names:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_io_fixtures_write_detections_the_reader_reads(tmp_path, monkeypatch):
    # build_fixtures detects scene by scene with pipeline.detect and writes
    # the rows with write_detections_csv; eval reads them back
    from transferdet.evaluation import read_detections_csv
    from transferdet.model import load_model

    workloads = load_workloads()
    monkeypatch.setattr(workloads, "CLI_SCENES", 3)
    workloads.build_fixtures("cli_io", [0], str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        workloads.FIXTURE_FILES["cli_io"]
    )
    dets = read_detections_csv(tmp_path / "detections.csv")
    assert len(dets.scene_ids) > 0
    assert set(dets.scene_ids.tolist()) <= {0, 1, 2}
    assert (dets.boxes[:, :2] < dets.boxes[:, 2:]).all()
    load_model(tmp_path / "source_model.txt")
