"""The fresh interpreter of one benchmark pass.

Usage: ``python3 perfbench/worker.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  The worker imports ``transferdet`` and builds the first
world of its input set, prints ``ready`` (the driver times set-up up to
that line), then runs its task and writes a JSON result to
``spec["result"]``.  Tasks: ``setup`` (nothing more), ``fixtures`` (write
the untimed inputs), ``pass`` (run the workload's operations once, traced
when ``spec["trace"]``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def _run_pass(spec: dict) -> dict:
    from transferdet.cli import main as cli_main

    from tracer import Tracer, counts, summarize

    ops = workloads.operations(
        spec["workload"], spec["seeds"], spec["out"], spec["fixtures"]
    )
    tracer = Tracer() if spec["trace"] else contextlib.nullcontext()
    results = []
    with tracer:
        for argv in ops:
            error = None
            start = time.perf_counter()
            try:
                code = cli_main(argv)
            except Exception:  # an operation that raises is counted as failed
                code = None
                error = traceback.format_exc()
            results.append(
                {"seconds": time.perf_counter() - start, "exit": code, "error": error}
            )
    out = {"ops": results}
    if spec["trace"]:
        out["restored"] = tracer.restored()
        out["layers"] = summarize(tracer.spans)
        out["counts"] = counts(tracer.spans)
        with open(spec["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    from transferdet.synthworld import WorldConfig, make_world

    make_world(WorldConfig(seed=spec["seeds"][0]))
    print("ready", flush=True)

    result = {"environment": _blas()}
    # The program's console output is not part of what is checked.
    with contextlib.redirect_stdout(io.StringIO()):
        if spec["task"] == "fixtures":
            os.makedirs(spec["fixtures"], exist_ok=True)
            workloads.build_fixtures(spec["workload"], spec["seeds"], spec["fixtures"])
        elif spec["task"] == "pass":
            result.update(_run_pass(spec))
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result["peak_rss_mb"] = peak_kb / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
