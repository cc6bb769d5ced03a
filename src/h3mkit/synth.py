"""Seeded synthetic benchmarks with known group structure.

Groups are laid out along the first observation dimension: group g's
prototype is centered at (g - (G-1)/2) * separation, states and mixture
components spread around that center at separation/4 and separation/8. Group
members perturb the prototype's means with Gaussian noise of scale
separation/20 and its stochastic rows with a Dirichlet jitter.

Every draw comes from the caller's generator in a fixed order: first each
member's perturbation, member by member (the Dirichlet initial row, one
Dirichlet draw per transition row, then the normals of its means); then, for
sequences, each member's 2 tau uniforms (tau for its state chain, then tau
for its mixture components) followed by its tau x d standard normals, member
by member. The perturbations are drawn straight into stacked (K, N, ...)
arrays, with mixture weights and covariances taken from the prototypes, and
the stack is checked once (``hmm._check_arrays``), naming the member of a
failure; the member HMMs are views of the checked stack. That is the
stream of one perturbation and one ``sample_batch(member, tau, 1, rng)``
call per member, so the members and the sequences that one sampling kernel
call (``hmm._sample``) draws from the stack are those such calls would give.
"""

from __future__ import annotations

import numpy as np

from .gaussians import _covariance
from .hmm import Hmm, Sequence, _check_arrays, _check_counts, _models, _sample, _stack
from .serialize import SequenceDataset


def _prototype(
    offset: float,
    n_states: int,
    n_mix: int,
    dim: int,
    separation: float,
    cov_type: str,
) -> Hmm:
    initial = np.full(n_states, 1.0 / n_states)
    if n_states == 1:
        transitions = np.ones((1, 1))
    else:
        transitions = np.full((n_states, n_states), 0.2 / (n_states - 1))
        np.fill_diagonal(transitions, 0.8)
    means = np.zeros((n_states, n_mix, dim))
    means[..., 0] = (
        offset
        + (np.arange(n_states)[:, None] - (n_states - 1) / 2.0) * separation / 4.0
        + (np.arange(n_mix) - (n_mix - 1) / 2.0) * separation / 8.0
    )
    mix_weights = np.full((n_states, n_mix), 1.0 / n_mix)
    cov = _covariance(np.ones(dim), cov_type)
    covs = np.broadcast_to(cov, (n_states, n_mix) + cov.shape)
    return Hmm(initial, transitions, mix_weights, means, covs)


def synth_benchmark(
    n_groups: int,
    per_group: int,
    separation: float,
    rng: np.random.Generator,
    n_states: int = 2,
    n_mix: int = 1,
    dim: int = 1,
    tau: int = 20,
    cov_type: str = "diag",
    kind: str = "hmms",
) -> tuple[list[Hmm], np.ndarray] | tuple[SequenceDataset, np.ndarray]:
    """Generate group-structured HMMs or sequences plus ground-truth labels.

    kind "hmms" returns per_group member HMMs per group; kind "sequences"
    draws one length-tau sequence from each member instead. Bad arguments
    raise ValueError before anything is drawn.
    """
    _check_counts(2, n_groups=n_groups)
    _check_counts(per_group=per_group, n_states=n_states, n_mix=n_mix, dim=dim,
                  **({"tau": tau} if kind == "sequences" else {}))
    if not (np.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    if cov_type not in ("diag", "full"):
        raise ValueError(f"cov_type must be 'diag' or 'full', got {cov_type!r}")
    if kind not in ("hmms", "sequences"):
        raise ValueError(f"unknown kind {kind!r}")
    protos = _stack([
        _prototype((g - (n_groups - 1) / 2.0) * separation, n_states, n_mix, dim, separation,
                   cov_type)
        for g in range(n_groups)
    ])
    labels = np.repeat(np.arange(n_groups), per_group)
    size = len(labels)
    alpha_initial = 100.0 * protos.initial + 1e-9
    alpha_rows = 100.0 * protos.transitions + 1e-9
    initial = np.empty((size, n_states))
    transitions = np.empty((size, n_states, n_states))
    means = np.empty((size, n_states, n_mix, dim))
    noise = separation / 20.0
    for member, group in enumerate(labels):
        initial[member] = rng.dirichlet(alpha_initial[group])
        for state in range(n_states):
            transitions[member, state] = rng.dirichlet(alpha_rows[group, state])
        means[member] = protos.means[group] + rng.normal(0.0, noise, size=means.shape[1:])
    members = _check_arrays(
        initial, transitions, protos.mix_weights[labels], means, protos.covs[labels],
        axes=("member",),
    )
    if kind == "hmms":
        return _models(members), labels
    uniforms = np.empty((size, 2 * tau))
    normals = np.empty((size, tau, dim))
    for idx in range(size):
        uniforms[idx] = rng.random(2 * tau)
        normals[idx] = rng.standard_normal((tau, dim))
    obs, _ = _sample(members, np.arange(size), uniforms[:, :tau].T, uniforms[:, tau:], normals)
    sequences = [Sequence(seq, id=f"seq{idx:04d}") for idx, seq in enumerate(obs)]
    dataset = SequenceDataset(sequences, [str(g) for g in labels])
    return dataset, labels
