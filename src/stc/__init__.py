"""Weakly supervised shape segmentation trained from image-level labels:
saliency-seeded soft targets first, then two rounds of label-restricted
pseudo-label self-training."""

import os

# One BLAS thread per calling thread: the inference passes and each train
# step already run one worker per core (STC_THREADS), and BLAS threads on
# top of those oversubscribe the cores. Set before numpy loads, since
# OpenBLAS reads these once; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .network import NetworkConfig, forward, init_network, predict
from .params import ParamSet, load_params, save_params
from .pipeline import StageReport, TrainConfig, evaluate, run_stc, train_stage

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "ParamSet",
    "StageReport",
    "TrainConfig",
    "evaluate",
    "forward",
    "init_network",
    "load_params",
    "predict",
    "run_stc",
    "save_params",
    "train_stage",
    "__version__",
]
