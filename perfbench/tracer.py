"""Spans and counts around the program's layers, recorded from outside.

Modules import functions by name (``from .model import adam_step``), so a
call is timed by replacing the attribute its *caller* looks up, such as
``transferdet.pipeline.adam_step``, for the length of a run.  ``Tracer``
puts every wrapper in place on entry and the original functions back on
exit.  Spans of one process share one clock and nest on one stack, which
holds because the traced workloads call the program from one thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# Span name -> (caller module, attribute) pairs that reach the function.
TARGETS = {
    "cli.world": [("cli", "cmd_world")],
    "cli.train": [("cli", "cmd_train")],
    "cli.eval": [("cli", "cmd_eval")],
    "cli.experiment": [("cli", "cmd_experiment")],
    "pipeline.train_source": [("pipeline", "train_source"), ("cli", "train_source")],
    "pipeline.lstd_finetune": [("pipeline", "lstd_finetune"), ("cli", "lstd_finetune")],
    "pipeline.wstd_train": [("pipeline", "wstd_train"), ("cli", "wstd_train")],
    "pipeline.evaluate_model": [("pipeline", "evaluate_model")],
    "pipeline.detect": [("pipeline", "detect")],
    "pipeline.collect_class_scenes": [("pipeline", "collect_class_scenes")],
    "pipeline.pack_lstd_scene": [("pipeline", "pack_lstd_scene")],
    "pipeline.pack_wstd_scene": [("pipeline", "pack_wstd_scene")],
    "pipeline.warmup_proposals": [("pipeline", "warmup_proposals")],
    "pipeline.source_scene_loss": [("pipeline", "source_scene_loss")],
    "pipeline.lstd_scene_loss": [("pipeline", "lstd_scene_loss")],
    "pipeline.wstd_scene_loss": [("pipeline", "wstd_scene_loss")],
    "model.adam_step": [("pipeline", "adam_step")],
    "model.extract_sdk": [("pipeline", "extract_sdk")],
    "model.save_model": [("cli", "save_model")],
    "model.load_model": [("cli", "load_model")],
    "losses.bd_loss": [("pipeline", "bd_loss")],
    "losses.sdk_loss": [("pipeline", "sdk_loss")],
    "losses.rol_classifier_loss": [("pipeline", "rol_classifier_loss")],
    "losses.image_multilabel_loss": [("pipeline", "image_multilabel_loss")],
    "labelling.mine_support": [("pipeline", "mine_support")],
    "geometry.pairwise_iou": [("pipeline", "pairwise_iou"), ("labelling", "pairwise_iou")],
    "synthworld.sample_scenes": [("pipeline", "sample_scenes"), ("cli", "sample_scenes")],
    "synthworld.save_scenes": [("cli", "save_scenes")],
    "synthworld.load_scenes": [("cli", "load_scenes")],
    "evaluation.evaluate_detections": [
        ("pipeline", "evaluate_detections"), ("cli", "evaluate_detections"),
    ],
    "evaluation.read_detections_csv": [("cli", "read_detections_csv")],
}


# Span name -> function of the call's result giving the span's count: the
# IoU matrix shape, scenes drawn, boxes kept.
COUNTERS = {
    "geometry.pairwise_iou": lambda result: result.shape,
    "synthworld.sample_scenes": len,
    "pipeline.collect_class_scenes": len,
    "pipeline.warmup_proposals": len,
}


class Tracer:
    """Context manager that records a span for every call into TARGETS.

    ``spans`` holds ``(name, start, end, parent, count)`` tuples in the
    order calls began; ``parent`` indexes the enclosing span, or is -1.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, counter(result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"transferdet.{module_name}")
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original function again."""
        return all(
            getattr(module, attr) is original
            for module, attr, original in self._originals
        )


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, median µs per call.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on the single stack.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {name: [] for name in TARGETS}
    out = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "median_us": 0.0}
        for name in TARGETS
    }
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        durations[name].append(end - start)
    for name, values in durations.items():
        if values:
            out[name]["median_us"] = statistics.median(values) * 1e6
    return out


def counts(spans: list[tuple]) -> dict[str, int]:
    """Exact work counts; they repeat exactly for one input set.

    * ``iou_pairs``: entries of every IoU matrix computed;
    * ``scenes_sampled``: scenes drawn by ``sample_scenes``;
    * ``class_scenes_drawn`` / ``class_scenes_kept``: scenes drawn and kept
      inside ``collect_class_scenes``;
    * ``warmup_candidates`` / ``warmup_kept``: boxes scored and kept by
      ``warmup_proposals`` (its candidates are the rows of the IoU matrix
      it computes).
    """
    c = dict.fromkeys(
        ("iou_pairs", "scenes_sampled", "class_scenes_drawn", "class_scenes_kept",
         "warmup_candidates", "warmup_kept"),
        0,
    )
    for name, _, _, parent, count in spans:
        if count is None:  # uncounted, or the call raised
            continue
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "geometry.pairwise_iou":
            rows, cols = count
            c["iou_pairs"] += rows * cols
            if parent_name == "pipeline.warmup_proposals":
                c["warmup_candidates"] += rows
        elif name == "synthworld.sample_scenes":
            c["scenes_sampled"] += count
            if parent_name == "pipeline.collect_class_scenes":
                c["class_scenes_drawn"] += count
        elif name == "pipeline.collect_class_scenes":
            c["class_scenes_kept"] += count
        elif name == "pipeline.warmup_proposals":
            c["warmup_kept"] += count
    return c


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# The per-layer metrics of a traced run: (name, unit, better).  A name
# ending in ``.s`` is the span's self seconds summed over the pass,
# ``.total_s`` its inclusive seconds, ``.us`` its median µs per call and
# ``.calls`` its call count.  A layer that makes no call in the timed
# window reads 0.
LAYER_METRICS = [
    ("pipeline.train_source.s", "s", "lower"),
    ("pipeline.lstd_finetune.s", "s", "lower"),
    ("pipeline.wstd_train.s", "s", "lower"),
    ("pipeline.evaluate_model.s", "s", "lower"),
    ("pipeline.train_source.total_s", "s", "lower"),
    ("pipeline.lstd_finetune.total_s", "s", "lower"),
    ("pipeline.wstd_train.total_s", "s", "lower"),
    ("pipeline.evaluate_model.total_s", "s", "lower"),
    ("pipeline.warmup_proposals.us", "us", "lower"),
    ("pipeline.warmup_proposals.keep_ratio", "ratio", "higher"),
    ("pipeline.warmup_proposals.candidates", "count", "lower"),
    ("pipeline.warmup_proposals.calls", "count", "lower"),
    ("pipeline.pack_wstd_scene.us", "us", "lower"),
    ("pipeline.pack_wstd_scene.calls", "count", "lower"),
    ("geometry.pairwise_iou.us", "us", "lower"),
    ("geometry.pairwise_iou.pairs", "count", "lower"),
    ("pipeline.source_scene_loss.us", "us", "lower"),
    ("model.adam_step.us", "us", "lower"),
    ("model.adam_step.calls", "count", "lower"),
    ("pipeline.lstd_scene_loss.us", "us", "lower"),
    ("losses.bd_loss.us", "us", "lower"),
    ("losses.sdk_loss.us", "us", "lower"),
    ("pipeline.pack_lstd_scene.us", "us", "lower"),
    ("model.extract_sdk.us", "us", "lower"),
    ("pipeline.wstd_scene_loss.us", "us", "lower"),
    ("labelling.mine_support.us", "us", "lower"),
    ("labelling.mine_support.calls", "count", "lower"),
    ("losses.rol_classifier_loss.us", "us", "lower"),
    ("losses.image_multilabel_loss.us", "us", "lower"),
    ("pipeline.detect.us", "us", "lower"),
    ("evaluation.evaluate_detections.us", "us", "lower"),
    ("synthworld.sample_scenes.us_per_scene", "us", "lower"),
    ("synthworld.sample_scenes.scenes", "count", "lower"),
    ("pipeline.collect_class_scenes.keep_ratio", "ratio", "higher"),
    ("pipeline.collect_class_scenes.drawn", "count", "lower"),
    ("synthworld.save_scenes.s", "s", "lower"),
    ("synthworld.load_scenes.s", "s", "lower"),
    ("evaluation.read_detections_csv.s", "s", "lower"),
    ("model.save_model.us", "us", "lower"),
    ("model.load_model.us", "us", "lower"),
    ("pipeline.train_source.calls", "count", "lower"),
    ("pipeline.wstd_train.calls", "count", "lower"),
    ("cli.world.s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.eval.s", "s", "lower"),
    ("cli.experiment.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_FIELDS = {"s": "self_s", "total_s": "total_s", "us": "median_us", "calls": "calls"}


def layer_metrics(layers: dict, c: dict, overhead_s: float) -> dict[str, dict]:
    """Every LAYER_METRICS entry from ``summarize`` and ``counts`` output."""
    sampled = layers["synthworld.sample_scenes"]["total_s"]
    derived = {
        "pipeline.warmup_proposals.keep_ratio": _ratio(
            c["warmup_kept"], c["warmup_candidates"]
        ),
        "pipeline.warmup_proposals.candidates": c["warmup_candidates"],
        "geometry.pairwise_iou.pairs": c["iou_pairs"],
        "synthworld.sample_scenes.us_per_scene": 1e6 * _ratio(sampled, c["scenes_sampled"]),
        "synthworld.sample_scenes.scenes": c["scenes_sampled"],
        "pipeline.collect_class_scenes.keep_ratio": _ratio(
            c["class_scenes_kept"], c["class_scenes_drawn"]
        ),
        "pipeline.collect_class_scenes.drawn": c["class_scenes_drawn"],
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            value = layers[span][_FIELDS[field]]
        out[name] = {"value": value, "unit": unit}
    return out
