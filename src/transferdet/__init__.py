"""Progressive low-shot to weakly-supervised detector transfer on a
synthetic benchmark, with exact gradients and deterministic experiments."""

__version__ = "0.1.0"

from .geometry import BBox, iou, nms
from .labelling import ROLConfig, mine_support
from .losses import LossWeights
from .model import DetectorModel, OptimizerConfig, load_model, save_model
from .pipeline import (
    EXPERIMENTS,
    StageConfig,
    evaluate_model,
    lstd_finetune,
    run_experiment,
    train_source,
    wstd_train,
)
from .synthworld import World, WorldConfig, make_world, sample_scene

__all__ = [
    "BBox",
    "DetectorModel",
    "EXPERIMENTS",
    "LossWeights",
    "OptimizerConfig",
    "ROLConfig",
    "StageConfig",
    "World",
    "WorldConfig",
    "__version__",
    "evaluate_model",
    "iou",
    "load_model",
    "lstd_finetune",
    "make_world",
    "mine_support",
    "nms",
    "run_experiment",
    "sample_scene",
    "save_model",
    "train_source",
    "wstd_train",
]
