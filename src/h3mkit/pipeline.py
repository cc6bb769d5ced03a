"""Large-data estimation by splitting: fit an HMM mixture on each data
portion independently, pool the intermediate mixtures, and reduce the pool
to the final model. The portion fits are independent of each other."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationError
from .h3m import H3m, h3m_em
from .hmm import EmConfig, Sequence, _check_counts, _Checked
from .reduction import ReductionResult, VhemConfig, vhem_reduce


@dataclass
class PipelineReport:
    portion_sizes: list[int]
    portion_logliks: list[float]
    pooled_k: int
    bound_history: list[float]
    effective_k: int


def split_estimate_aggregate(
    data: list[Sequence],
    n_portions: int,
    per_portion_k: int,
    final_k: int,
    n_states: int,
    n_mix: int,
    em_config: EmConfig | None = None,
    vhem_config: VhemConfig | None = None,
    seed: int = 0,
) -> tuple[H3m, PipelineReport]:
    """Partition ``data`` into contiguous portions, fit a per-portion mixture,
    pool the intermediate mixtures with weights proportional to portion size
    times intermediate component weight, and reduce the pool to ``final_k``
    components. ``seed`` + p seeds portion p's fit; ``seed`` seeds the
    reduction only when ``vhem_config`` is None, and a given ``vhem_config``
    keeps its own seed."""
    _check_counts(n_portions=n_portions, per_portion_k=per_portion_k, final_k=final_k)
    _check_counts(0, seed=seed)
    em_config = em_config or EmConfig()
    boundaries = np.array_split(np.arange(len(data)), n_portions)
    for p, idxs in enumerate(boundaries):
        if len(idxs) < per_portion_k:
            raise EstimationError(
                f"portion {p} has {len(idxs)} sequences, fewer than k={per_portion_k}"
            )

    fits = [
        h3m_em([data[i] for i in idxs], per_portion_k, n_states, n_mix, em_config,
               np.random.default_rng(seed + p))
        for p, idxs in enumerate(boundaries)
    ]
    portion_sizes = [len(idxs) for idxs in boundaries]
    weights = np.concatenate([n * fit.model.weights for n, fit in zip(portion_sizes, fits)])
    stacks = zip(*(fit.model.arrays for fit in fits))
    pooled = H3m(weights / weights.sum(), _Checked(*map(np.concatenate, stacks)))

    if vhem_config is None:
        vhem_config = VhemConfig(k_reduced=final_k, seed=seed)
    else:
        vhem_config = replace(vhem_config, k_reduced=final_k)
    result: ReductionResult = vhem_reduce(pooled, vhem_config)
    report = PipelineReport(
        portion_sizes=portion_sizes,
        portion_logliks=[fit.loglik_trace[-1] for fit in fits],
        pooled_k=pooled.n_components,
        bound_history=result.bound_history,
        effective_k=result.effective_k,
    )
    return result.reduced, report
