"""Graph-instructed and dense layers, the residual archetype, training."""

from sgdetect.neural.layers import BatchNorm, DenseLayer, GILayer
from sgdetect.neural.model import (
    ArchetypeModel,
    ModelConfig,
    build_archetype,
    count_parameters,
    load_model,
    save_model,
)
from sgdetect.neural.training import (
    TrainConfig,
    train,
    weighted_bce,
)

__all__ = [
    "BatchNorm",
    "DenseLayer",
    "GILayer",
    "ArchetypeModel",
    "ModelConfig",
    "build_archetype",
    "count_parameters",
    "load_model",
    "save_model",
    "TrainConfig",
    "train",
    "weighted_bce",
]
