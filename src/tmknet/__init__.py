"""Geometric deep network on the SPD manifold for sEMG gesture decoding with
unsupervised domain adaptation via domain-specific Riemannian batch
normalization.

At paper shape, gradients round differently with another OpenBLAS thread
count, and gradient-free forwards and training steps use worker threads only
while OpenBLAS runs on one. The `tmknet` command pins OpenBLAS to one thread
at start; the library leaves the count alone. A library caller who wants the
command's bits, or the worker threads, sets `OPENBLAS_NUM_THREADS=1` before
numpy is first imported."""

__version__ = "0.1.0"

from .backbone import DsbnState
from .data import DatasetManifest, SplitPlan, SynthSpec, Trial
from .experiment import RunConfig
from .metrics import MetricsReport, wilcoxon_signed_rank
from .model import ModelConfig, TMKNet
from .stem import StemConfig

__all__ = [
    "__version__",
    "DsbnState",
    "DatasetManifest",
    "SplitPlan",
    "SynthSpec",
    "Trial",
    "RunConfig",
    "MetricsReport",
    "wilcoxon_signed_rank",
    "ModelConfig",
    "TMKNet",
    "StemConfig",
]
