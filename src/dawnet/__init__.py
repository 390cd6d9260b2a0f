"""Dual-domain reconstruction toolkit for satellite interference detection.

Synthesizes labeled GSO/LEO coexistence snapshots from link-budget physics,
trains a dual-branch autoencoder with bidirectional mutual attention and a
wavelet-regularized reconstruction loss, and flags interference by
thresholding per-sample reconstruction error.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DawnetError, FormatError, GenerationError,
                     NumericalError, ShapeError)
from .linkbudget import LinkGeometry, fspl_db
from .simulate import SNAPSHOT, DatasetBundle, generate_dataset
from .model import DualDomainAutoencoder, ModelConfig
from .training import Detector, Threshold, TrainConfig, train_and_calibrate
from .evaluation import MetricsReport, evaluate

__all__ = [
    "__version__",
    "ConfigError", "DawnetError", "FormatError", "GenerationError",
    "NumericalError", "ShapeError",
    "LinkGeometry", "fspl_db",
    "SNAPSHOT", "DatasetBundle", "generate_dataset",
    "DualDomainAutoencoder", "ModelConfig",
    "Detector", "Threshold", "TrainConfig", "train_and_calibrate",
    "MetricsReport", "evaluate",
]
