"""Record the reference SHA-256 digests of every file the workloads write.

Run from the root of a checkout:

    python3 perfbench/make_refs.py [--workload NAME ...]

For every workload and every input set (``--seed n`` selects input set
``n % workloads.POOL``) this builds the fixtures, runs one untraced pass
and stores the digests of the fixtures and of every output file in
``perfbench/refs.json``, with the program seeds and the source digest they
were taken at.  Workloads not named keep their stored digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import workloads
from run import REFS, Runner, git_commit, source_digest


def record_input_set(root: Path, workload: str, input_set: int) -> dict:
    work = root / ".perfbench" / "work" / f"refs-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, workload, input_set)
        fixtures, error = runner.build_fixtures()
        if fixtures is None:
            raise RuntimeError(f"fixtures failed for {workload}/{input_set}:\n{error}")
        result = runner.run_pass(trace=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "error" in result:
        raise RuntimeError(f"pass failed for {workload}/{input_set}:\n{result['error']}")
    files = {}
    for i, (op, digests) in enumerate(zip(result["ops"], result["digests"])):
        if op["exit"] != 0 or None in digests.values():
            raise RuntimeError(f"{workload}/{input_set}: operation {i} failed: {op}")
        files.update(digests)
    return {"seeds": runner.seeds, "fixtures": fixtures, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.SEEDS_PER_SET))
    args = parser.parse_args(argv)
    root = Path.cwd()
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {"workloads": {}}
    taken_at = {"commit": git_commit(root), "source_sha256": source_digest(root)}
    for workload in args.workload or sorted(workloads.SEEDS_PER_SET):
        refs["workloads"][workload] = {
            str(i): record_input_set(root, workload, i) for i in range(workloads.POOL)
        }
        refs.setdefault("taken_at", {})[workload] = taken_at
        print(f"recorded {workload}", flush=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
