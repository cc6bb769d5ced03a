"""Hierarchical clustering of HMM collections by repeated mixture reduction,
plus partition-quality metrics."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .h3m import H3m
from .hmm import Hmm, _check_counts, _stack
from .reduction import VhemConfig, vhem_reduce


@dataclass
class HierarchyLevel:
    """One rung of the tree: the mixture at this level, the component count,
    and for levels above the leaves a total map from previous-level component
    index to this level's component index."""

    models: H3m
    parent_of: dict[int, int]
    level_size: int


def hier_cluster(
    leaves: H3m | list[Hmm], ladder: list[int], config: VhemConfig
) -> list[HierarchyLevel]:
    """Build a tree over the components of ``leaves`` by reducing level by level.

    Level 0 is the leaves with uniform weights: an ``H3m``'s own ``arrays``,
    whatever its weights, or a list of ``Hmm``, stacked once. Each entry of
    ``ladder`` produces the next level by reduction, with parents taken from
    the hard assignment labels. Each level runs ``vhem_reduce`` on ``config``
    with ``k_reduced`` set to the ladder's entry, ``seed`` advanced by one per
    level (the tree is deterministic from one seed) and an ``H3m`` ``init``
    replaced by "subset-perturb", as a start fits one level at most; so
    ``n_starts`` > 1 with an ``H3m`` init runs here, unlike in ``vhem_reduce``.
    """
    arrays = leaves.arrays if isinstance(leaves, H3m) else _stack(leaves)
    n = arrays.initial.shape[0]
    if not ladder:
        raise ValueError("ladder must list at least one level size")
    _check_counts(**{f"ladder[{i}]": k for i, k in enumerate(ladder)})
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"ladder must decrease strictly: {ladder}")
    if ladder[0] > n:
        raise ValueError(f"ladder[0]={ladder[0]} exceeds leaf count {n}")

    current = H3m(np.full(n, 1.0 / n), arrays)
    levels = [HierarchyLevel(models=current, parent_of={i: i for i in range(n)}, level_size=n)]
    for depth, k in enumerate(ladder):
        level_config = replace(
            config, k_reduced=k, seed=config.seed + depth,
            init="subset-perturb" if isinstance(config.init, H3m) else config.init,
        )
        result = vhem_reduce(current, level_config)
        parent_of = {
            i: int(result.hard_labels[i]) for i in range(current.n_components)
        }
        current = result.reduced
        levels.append(HierarchyLevel(models=current, parent_of=parent_of, level_size=k))
    return levels


def leaf_labels(levels: list[HierarchyLevel], level_index: int) -> list[int]:
    """Cluster label of each leaf at the given level, by composing the
    parent maps down the tree."""
    if not 0 <= level_index < len(levels):
        raise IndexError(f"level {level_index} out of range")
    labels = list(range(levels[0].level_size))
    for level in levels[1 : level_index + 1]:
        labels = [level.parent_of[lab] for lab in labels]
    return labels


def _contingency(labels_a: list, labels_b: list) -> np.ndarray:
    """Item counts per (label of a, label of b), labels in sorted order."""
    _, a = np.unique(np.asarray(labels_a), return_inverse=True)
    _, b = np.unique(np.asarray(labels_b), return_inverse=True)
    k_b = int(b.max()) + 1
    return np.bincount(a * k_b + b, minlength=(int(a.max()) + 1) * k_b).reshape(-1, k_b)


def rand_index(labels_a: list, labels_b: list) -> float:
    """Fraction of item pairs on which two partitions agree (both together or
    both apart), over all unordered pairs. Symmetric and invariant under
    relabeling of either argument.

    Pairs are counted from the contingency table of the two labelings
    (Hubert & Arabie 1985), in O(n + K_a K_b) memory: the integer count of
    agreeing pairs is divided once by the number of pairs."""
    if len(labels_a) != len(labels_b):
        raise ValueError(
            f"label lists have different lengths: {len(labels_a)} vs {len(labels_b)}"
        )
    n = len(labels_a)
    if n < 2:
        raise ValueError("need at least two items")
    table = _contingency(labels_a, labels_b)

    def pairs(counts: np.ndarray) -> int:
        return int(np.sum(counts * (counts - 1) // 2))

    together_both = pairs(table)
    together_a = pairs(table.sum(axis=1))
    together_b = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    return (total - together_a - together_b + 2 * together_both) / total
