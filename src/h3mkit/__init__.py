"""Hidden Markov mixture models: estimation, reduction, and clustering.

The package covers the full path from raw sequences to a hierarchy of HMM
cluster centers: Gaussian-mixture primitives, HMMs with exact likelihood and
Baum-Welch estimation, mixtures of HMMs with sequence-level EM, variational
reduction of a large mixture to a small one, hierarchical clustering by
repeated reduction, and serialization plus a CLI around it all.
"""

from .errors import (
    DegenerateWeightsError,
    EstimationError,
    H3mError,
    InvalidModelError,
    ModelFormatError,
)
from .gaussians import Gaussian, GaussianMixture
from .h3m import (
    AssignmentMatrix,
    H3m,
    H3mFit,
    baum_welch,
    h3m_em,
    mc_expected_loglik,
)
from .hierarchy import (
    HierarchyLevel,
    hier_cluster,
    leaf_labels,
    rand_index,
)
from .hmm import (
    EmConfig,
    Hmm,
    HmmFit,
    Sequence,
    forward_loglik_batch,
    sample_batch,
)
from .pipeline import PipelineReport, split_estimate_aggregate
from .reduction import ReductionResult, VhemConfig, vhem_reduce
from .serialize import SequenceDataset, load_dataset, load_model, save_dataset, save_model
from .synth import synth_benchmark

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix",
    "DegenerateWeightsError",
    "EmConfig",
    "EstimationError",
    "Gaussian",
    "GaussianMixture",
    "H3m",
    "H3mError",
    "H3mFit",
    "HierarchyLevel",
    "Hmm",
    "HmmFit",
    "InvalidModelError",
    "ModelFormatError",
    "PipelineReport",
    "ReductionResult",
    "Sequence",
    "SequenceDataset",
    "VhemConfig",
    "baum_welch",
    "forward_loglik_batch",
    "h3m_em",
    "hier_cluster",
    "leaf_labels",
    "load_dataset",
    "load_model",
    "mc_expected_loglik",
    "rand_index",
    "sample_batch",
    "save_dataset",
    "save_model",
    "split_estimate_aggregate",
    "synth_benchmark",
    "vhem_reduce",
]
