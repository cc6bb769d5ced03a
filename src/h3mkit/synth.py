"""Seeded synthetic benchmarks with known group structure.

Groups are laid out along the first observation dimension: group g's
prototype is centered at (g - (G-1)/2) * separation, states and mixture
components spread around that center at separation/4 and separation/8. Group
members perturb the prototype's means with Gaussian noise of scale
separation/20 and its stochastic rows with a Dirichlet jitter.

Every draw comes from the caller's generator in a fixed order: first each
member's perturbation, member by member; then, for sequences, each member's
2 tau uniforms (tau for its state chain, then tau for its mixture
components) followed by its tau x d standard normals, member by member. That
is the stream of one ``sample_batch(member, tau, 1, rng)`` call per member,
so one sampling kernel call (``hmm._sample``) over the stacked members
draws the same sequences as those calls would.
"""

from __future__ import annotations

import numpy as np

from .hmm import Hmm, Sequence, _sample, _stack
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
    cov = np.ones(dim) if cov_type == "diag" else np.eye(dim)
    covs = np.broadcast_to(cov, (n_states, n_mix) + cov.shape)
    return Hmm.from_arrays(initial, transitions, mix_weights, means, covs)


def _perturb_member(proto: Hmm, noise: float, rng: np.random.Generator) -> Hmm:
    concentration = 100.0
    initial = rng.dirichlet(concentration * proto.initial + 1e-9)
    transitions = np.stack(
        [rng.dirichlet(concentration * row + 1e-9) for row in proto.transitions]
    )
    means = proto.means + rng.normal(0.0, noise, size=proto.means.shape)
    return Hmm.from_arrays(initial, transitions, proto.mix_weights, means, proto.covs)


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
    draws one length-tau sequence from each member instead.
    """
    if n_groups < 2:
        raise ValueError("need at least two groups")
    if per_group < 1:
        raise ValueError("per_group must be >= 1")
    if kind not in ("hmms", "sequences"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "sequences" and tau < 1:
        raise ValueError("tau must be >= 1")
    members: list[Hmm] = []
    labels: list[int] = []
    noise = separation / 20.0
    for g in range(n_groups):
        offset = (g - (n_groups - 1) / 2.0) * separation
        proto = _prototype(offset, n_states, n_mix, dim, separation, cov_type)
        for _ in range(per_group):
            members.append(_perturb_member(proto, noise, rng))
            labels.append(g)
    label_arr = np.array(labels, dtype=int)
    if kind == "hmms":
        return members, label_arr
    uniforms = np.empty((len(members), 2 * tau))
    normals = np.empty((len(members), tau, dim))
    for idx in range(len(members)):
        uniforms[idx] = rng.random(2 * tau)
        normals[idx] = rng.standard_normal((tau, dim))
    obs, _ = _sample(
        _stack(members), np.arange(len(members)), uniforms[:, :tau].T, uniforms[:, tau:], normals
    )
    sequences = [Sequence(seq, id=f"seq{idx:04d}") for idx, seq in enumerate(obs)]
    dataset = SequenceDataset(sequences, [str(g) for g in labels])
    return dataset, label_arr
