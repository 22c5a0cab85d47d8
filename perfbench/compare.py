"""Compare benchmark results of two commits run in alternated pairs.

Run both checkouts with the same benchmark code, alternating which side
goes first, then compare:

    python3 perfbench/compare.py run --base ../parent --head . --pairs 10 --out cmp
    python3 perfbench/compare.py report cmp/base.jsonl cmp/head.jsonl

``run`` uses this directory's ``run.py`` and reference digests for both
sides.  Pair ``i`` runs both sides with ``--seed i``.  ``report`` prints,
for each workload and metric, each side's median and quartiles, the share
of pairs the head won (ties count for neither side), and a verdict under
the bounds in ``BENCHMARK.json``:

* ``unresolved``: the base's own spread (quartile distance over median)
  is wider than the bound, and not every head run beats every base run;
* ``worse``: the head's median is worse than the base's by more than the
  bound;
* ``better``: the head won at least 9/10 of the pairs and the medians
  differ by more than the base's quartile distance;
* ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """(share of pairs the head won, verdict) for paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    share = wins / len(base)
    if bound is None:
        return share, "no bound"
    q1, median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    if median == 0:
        return share, "unresolved"
    every_run_better = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
    if (q3 - q1) / abs(median) > bound:
        return share, "better" if every_run_better else "unresolved"
    worse_by = sign * (head_median - median) / abs(median)
    if worse_by > bound:
        return share, "worse"
    if share >= 0.9 and abs(head_median - median) > q3 - q1 and worse_by < 0:
        return share, "better"
    return share, "same"


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def report(base_path, head_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = load(base_path), load(head_path)
    keys = sorted({(r["workload"], r["trace"]) for r in base})
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        h_by_seed = {
            r["seed"]: r for r in head if (r["workload"], r["trace"]) == (workload, trace)
        }
        pairs = [(b, h_by_seed[b["seed"]]) for b in b_runs if b["seed"] in h_by_seed]
        pairs = [(b, h) for b, h in pairs if b["metrics"] and h["metrics"]]
        if not pairs:
            continue
        failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
        print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(pairs)} pairs, "
              f"failed operations base {failed[0]} head {failed[1]})")
        print(f"{'metric':40s} {'base q1/median/q3':>32s} {'head q1/median/q3':>32s} "
              f"{'won':>5s}  verdict")
        for name in pairs[0][0]["metrics"]:
            b = [p[0]["metrics"][name]["value"] for p in pairs]
            h = [p[1]["metrics"][name]["value"] for p in pairs]
            share, word = verdict(b, h, direction.get(name, "lower"), bounds.get(name))
            cols = ["/".join(f"{v:.4g}" for v in quartiles(x)) for x in (b, h)]
            print(f"{name:40s} {cols[0]:>32s} {cols[1]:>32s} {share:5.0%}  {word}")
    return 0


def run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for workload in args.workload:
            for side in order:
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(i), "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--out", str((out / f"{side}.jsonl").resolve())],
                    cwd=sides[side], stdout=subprocess.DEVNULL,
                )
                print(f"pair {i} {workload} {side}: exit {done.returncode}", flush=True)
    return report(out / "base.jsonl", out / "head.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run both checkouts in alternated pairs")
    p_run.add_argument("--base", required=True, help="checkout of the parent commit")
    p_run.add_argument("--head", required=True, help="checkout of the change")
    p_run.add_argument("--workload", action="append", required=True)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--seconds", type=int,
                       default=json.loads(BENCHMARK.read_text())["run_seconds"])
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out", required=True, help="directory for base/head.jsonl")
    p_rep = sub.add_parser("report", help="compare two files of run records")
    p_rep.add_argument("base")
    p_rep.add_argument("head")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args)
    return report(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
