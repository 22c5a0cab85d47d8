"""Benchmark driver for transferdet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finetune --seed 3 --seconds 40 --trace 0

Every pass over a workload runs in a fresh interpreter (``worker.py``) with
``src`` on ``PYTHONPATH``.  With ``--trace 0`` the driver reports the
end-to-end metrics; with ``--trace 1`` it adds one traced pass and reports
the per-layer metrics.  Every file a pass writes is checked against the
reference SHA-256 digests in ``refs.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also appends the full record, environment
included, as one JSON line (``compare.py`` reads these).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# Fresh interpreters timed for set-up only, in every untraced run.  Every
# pass's interpreter is timed too, and setup_s is the median of all of them.
SETUP_PROBES = 5
# Longest a single worker may run before it is killed and its pass failed.
WORKER_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, names included."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Runner:
    """Spawns workers for one workload and input set inside ``work``."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seeds = workloads.program_seeds(workload, seed)
        self.fixtures = work / "fixtures"
        self._spawned = 0

    def spawn(self, task: str, **extra) -> tuple[float, dict | None, str]:
        """Run one worker; returns (set-up seconds, result or None, stderr)."""
        n = self._spawned
        self._spawned += 1
        result_path = self.work / f"result{n}.json"
        err_path = self.work / f"stderr{n}.txt"
        spec = {
            "task": task, "workload": self.workload, "seeds": self.seeds,
            "fixtures": str(self.fixtures), "result": str(result_path),
            "trace": False, **extra,
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=err,
                text=True,
            )
            try:
                if select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
                    ready = proc.stdout.readline()
                else:
                    ready = ""
                setup_s = time.perf_counter() - started
                proc.communicate(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        stderr = err_path.read_text()
        if ready.strip() != "ready" or proc.returncode != 0 or not result_path.exists():
            return setup_s, None, stderr or f"worker exited with {proc.returncode}"
        return setup_s, json.loads(result_path.read_text()), stderr

    def build_fixtures(self) -> tuple[dict | None, str]:
        """Write the untimed inputs; returns (their digests or None, error)."""
        names = workloads.FIXTURE_FILES[self.workload]
        if not names:
            return {}, ""
        _, result, stderr = self.spawn("fixtures")
        if result is None:
            return None, stderr
        return {name: sha256(self.fixtures / name) for name in names}, ""

    def run_pass(self, trace: bool) -> dict:
        """One pass over the workload's operations in a fresh interpreter.

        Returns the worker's result with ``setup_s`` and ``digests`` (per
        operation, file -> SHA-256) added, or ``{"error": ...}``.
        """
        n = self._spawned
        out = self.work / f"pass{n}"
        out.mkdir(parents=True)
        spans = self.root / ".perfbench" / f"spans-{self.workload}.jsonl"
        setup_s, result, stderr = self.spawn(
            "pass", out=str(out), trace=trace, spans=str(spans)
        )
        if result is None:
            shutil.rmtree(out)
            return {"error": stderr}
        result["setup_s"] = setup_s
        result["digests"] = [
            {name: sha256(out / name) if (out / name).is_file() else None
             for name in names}
            for names in workloads.OUTPUTS[self.workload]
        ]
        shutil.rmtree(out)
        return result


def check_pass(result: dict, expected: dict | None) -> tuple[int, list[str]]:
    """Failed operations of one pass (-1: all of them), and why each failed."""
    if "error" in result:
        return -1, [f"worker failed: {result['error'].strip()[-2000:]}"]
    reasons = []
    for i, (op, digests) in enumerate(zip(result["ops"], result["digests"])):
        if op["error"] is not None:
            reasons.append(f"operation {i} raised:\n{op['error']}")
        elif op["exit"] != 0:
            reasons.append(f"operation {i} exited with {op['exit']}")
        elif expected is None:
            reasons.append(f"operation {i}: no reference digests for this input set")
        else:
            wrong = [
                name for name, digest in digests.items()
                if digest != expected["files"].get(name)
            ]
            if wrong:
                reasons.append(f"operation {i}: output differs from reference: {wrong}")
    return len(reasons), reasons


def environment(root: Path, runner: Runner, input_set: int, blas: dict) -> dict:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": blas.get("numpy", "unknown"),
        "blas": blas.get("blas", "unknown"),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "workload": runner.workload,
        "input_set": input_set,
        "workload_seeds": runner.seeds,
    }


def load_refs() -> dict:
    if not REFS.is_file():
        return {}
    return json.loads(REFS.read_text())["workloads"]


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for about ``seconds`` and return the full record."""
    input_set = seed % workloads.POOL
    expected = load_refs().get(workload, {}).get(str(input_set))
    work = root / ".perfbench" / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, workload, seed)
    problems: list[str] = []
    try:
        probes = [] if trace else [runner.spawn("setup") for _ in range(SETUP_PROBES)]
        setup = [setup_s for setup_s, result, _ in probes if result is not None]
        problems += [f"set-up probe failed: {err.strip()[-2000:]}"
                     for _, result, err in probes if result is None]
        fixture_digests, error = runner.build_fixtures()
        if fixture_digests is None:
            problems.append(f"fixtures failed: {error.strip()[-2000:]}")
        elif expected is not None and fixture_digests != expected.get("fixtures", {}):
            problems.append("fixtures differ from reference")

        passes: list[dict] = []
        started = time.perf_counter()

        def time_left_for_another(share: float) -> bool:
            durations = [p["setup_s"] + sum(o["seconds"] for o in p["ops"])
                         for p in passes if "ops" in p]
            if not durations:
                return False
            elapsed = time.perf_counter() - started
            return elapsed + statistics.median(durations) <= share * seconds

        if fixture_digests is not None:
            passes.append(runner.run_pass(trace=False))
            while time_left_for_another(0.5 if trace else 1.0):
                passes.append(runner.run_pass(trace=False))
            if trace:
                passes.append(runner.run_pass(trace=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_ops = len(workloads.OUTPUTS[workload])
    attempted = failed = 0
    for p in passes:
        bad, reasons = check_pass(p, expected)
        attempted += n_ops
        failed += n_ops if bad < 0 else bad
        problems.extend(reasons)
    good = [p for p in passes if "ops" in p]
    untraced = [sum(o["seconds"] for o in p["ops"]) for p in good if "layers" not in p]
    traced = [p for p in good if "layers" in p]
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": environment(
            root, runner, input_set, good[0]["environment"] if good else {}
        ),
        "problems": problems,
        "attempted": attempted, "failed": failed,
        "samples": {"setup_s": setup, "wall_s": untraced},
        "metrics": None,
    }
    if not untraced or (trace and not traced) or (not trace and not setup):
        return record
    wall_s = statistics.median(untraced)
    # Set-up samples from every worker spread them over the whole run.
    setup += [p["setup_s"] for p in good]
    if trace:
        t = traced[0]
        if not t["restored"]:
            problems.append("tracer left a wrapped attribute in place")
        overhead = sum(o["seconds"] for o in t["ops"]) - wall_s
        record["metrics"] = layer_metrics(t["layers"], t["counts"], overhead)
        record["layers"] = t["layers"]
        record["counts"] = t["counts"]
    else:
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in good), "unit": "MB"},
        }
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}: seed {record['seed']}, input set "
          f"{env['input_set']}, program seeds {env['workload_seeds']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    samples = record["samples"]
    if samples["wall_s"]:
        print(f"passes: {len(samples['wall_s'])} untraced, wall "
              + ", ".join(f"{w:.3f}" for w in samples["wall_s"]) + " s")
    if "layers" in record:
        print(f"{'span':36s} {'calls':>8s} {'total s':>9s} {'self s':>9s} {'median us':>10s}")
        for name, entry in record["layers"].items():
            if entry["calls"]:
                print(f"{name:36s} {entry['calls']:8d} {entry['total_s']:9.3f} "
                      f"{entry['self_s']:9.3f} {entry['median_us']:10.1f}")
        print("counts " + json.dumps(record["counts"], sort_keys=True))
    for name, m in (record["metrics"] or {}).items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        rate = record["failed"] / record["attempted"]
        print(f"{'error_rate':44s} {rate:.6g} ratio "
              f"({record['failed']} of {record['attempted']} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SEEDS_PER_SET))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    # A driver that stops the run still gets every worker stopped and waited
    # for: SystemExit unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "transferdet" / "cli.py").is_file():
        print(f"error: no transferdet sources under {root / 'src'}", file=sys.stderr)
        return 2
    record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    if record["metrics"] is None:
        print("error: no pass completed, nothing to report", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    correct = record["failed"] == 0 and not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
