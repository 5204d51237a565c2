"""Geometric deep network on the SPD manifold for sEMG gesture decoding with
unsupervised domain adaptation via domain-specific Riemannian batch
normalization."""

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
