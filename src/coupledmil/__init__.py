"""Iteratively coupled bag-classifier / instance-embedder training for
multiple instance learning on synthetic feature bags."""

__version__ = "0.1.0"

from .bagdata import (
    Bag,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .metrics import EvalResult, f1_accuracy, pairwise_auc, roc_auc
from .milnet import MilModel, ModelConfig
from .orchestrator import (
    RunReport,
    TrainConfig,
    load_checkpoint,
    run_training,
    save_checkpoint,
)

__all__ = [
    "Bag",
    "Dataset",
    "EvalResult",
    "MilModel",
    "ModelConfig",
    "RunReport",
    "SyntheticSpec",
    "TrainConfig",
    "__version__",
    "f1_accuracy",
    "generate_synthetic",
    "load_checkpoint",
    "load_dataset",
    "pairwise_auc",
    "roc_auc",
    "run_training",
    "save_checkpoint",
    "save_dataset",
    "split_dataset",
]
