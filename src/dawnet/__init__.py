"""Dual-domain reconstruction toolkit for satellite interference detection.

Synthesizes labeled GSO/LEO coexistence snapshots from link-budget physics,
trains a dual-branch autoencoder with bidirectional mutual attention and a
wavelet-regularized reconstruction loss, and flags interference by
thresholding per-sample reconstruction error.
"""

import os
import sys

# One BLAS thread per process, set before numpy is first imported: a
# matrix product's bits depend on how many threads split it, so this makes
# every artifact the same whatever the environment holds. The row shards
# of each scoring block and training batch (`training._shards`) use the
# other cores instead, through the threads of `training._side_by_side`. A
# caller that imported numpy before dawnet keeps its own thread count.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
# whether numpy computes on one BLAS thread: by the pin above, or because a
# caller that imported numpy first had set one. Only then do scoring and
# training use other cores; a BLAS that already uses every core would lose.
ONE_BLAS_THREAD = all(os.environ.get(name) == "1" for name in _BLAS_THREADS)

__version__ = "0.1.0"

from .errors import (ConfigError, DawnetError, FormatError, GenerationError,
                     NumericalError, ShapeError)
from .simulate import SNAPSHOT, DatasetBundle, fspl_db, generate_dataset
from .model import DualDomainAutoencoder, ModelConfig
from .training import Detector, Threshold, TrainConfig, train_and_calibrate
from .evaluation import MetricsReport, evaluate

__all__ = [
    "__version__",
    "ConfigError", "DawnetError", "FormatError", "GenerationError",
    "NumericalError", "ShapeError",
    "fspl_db", "SNAPSHOT", "DatasetBundle", "generate_dataset",
    "DualDomainAutoencoder", "ModelConfig",
    "Detector", "Threshold", "TrainConfig", "train_and_calibrate",
    "MetricsReport", "evaluate",
]
