"""Tree building over HMM collections and partition metrics."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from h3mkit import (
    H3m,
    Hmm,
    InvalidModelError,
    VhemConfig,
    hier_cluster,
    leaf_labels,
    rand_index,
    synth_benchmark,
    vhem_reduce,
)
from h3mkit.hmm import _Stacked

from conftest import best_label_accuracy


def pairwise_rand_index(a, b):
    """Rand index straight from its definition, one item pair at a time."""
    n = len(a)
    agree = sum(
        (a[i] == a[j]) == (b[i] == b[j]) for i in range(n) for j in range(i + 1, n)
    )
    return agree / (n * (n - 1) // 2)


def same_bytes(a, b):
    """Whether two mixtures hold the same weights and stacks, bit for bit."""
    pairs = zip((a.weights, *a.arrays), (b.weights, *b.arrays))
    return all(x.tobytes() == y.tobytes() for x, y in pairs)


def two_state_leaf(offset):
    return Hmm(
        [0.5, 0.5],
        [[0.8, 0.2], [0.2, 0.8]],
        np.ones((2, 1)),
        [[[offset - 1.0]], [[offset + 1.0]]],
        np.ones((2, 1, 1)),
    )


class TestRandIndex:
    def test_identical(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_permutation_invariance(self):
        assert rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_crossed_partition(self):
        assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(2.0 / 6.0)

    def test_symmetry_and_relabeling(self, rng):
        for _ in range(10):
            a = rng.integers(0, 3, size=12).tolist()
            b = rng.integers(0, 3, size=12).tolist()
            assert rand_index(a, b) == pytest.approx(rand_index(b, a))
            remap = {0: "x", 1: "y", 2: "z"}
            assert rand_index(a, [remap[v] for v in b]) == pytest.approx(rand_index(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_index([1, 2], [1, 2, 3])

    def test_fewer_than_two_items_rejected(self):
        with pytest.raises(ValueError) as info:
            rand_index([1], [1])
        assert str(info.value) == "need at least two items"

    def test_matches_pairwise_definition(self, rng):
        for n in (2, 3, 17, 60):
            for _ in range(5):
                a = rng.integers(0, 4, size=n).tolist()
                b = rng.integers(0, 3, size=n).tolist()
                assert rand_index(a, b) == pairwise_rand_index(a, b)

    def test_hundred_thousand_items(self):
        # b refines a, so pairs together in b are together in a; the n x n
        # pairwise matrices would take about 20 GB here.
        n = 100_000
        a = [i % 2 for i in range(n)]
        b = [i % 4 for i in range(n)]
        total = n * (n - 1) // 2
        together_a = 2 * ((n // 2) * (n // 2 - 1) // 2)
        together_b = 4 * ((n // 4) * (n // 4 - 1) // 2)
        assert rand_index(a, b) == (total - together_a + together_b) / total


def enumerated_label_accuracy(labels_true, labels_pred):
    """Best accuracy by trying every injective relabeling of the prediction
    (a predicted label may map to no true label)."""
    true = np.asarray(labels_true)
    true_values = sorted(set(true.tolist()))
    pred_values = sorted(set(labels_pred))
    targets = true_values + [None] * max(0, len(pred_values) - len(true_values))
    best = 0.0
    for perm in itertools.permutations(targets, len(pred_values)):
        mapping = dict(zip(pred_values, perm))
        mapped = np.array([mapping[p] for p in labels_pred], dtype=object)
        best = max(best, float(np.mean(mapped == true)))
    return best


class TestBestLabelAccuracy:
    def test_perfect_after_relabel(self):
        assert best_label_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_partial(self):
        assert best_label_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            k_true, k_pred = rng.integers(1, 8, size=2)
            n = int(rng.integers(1, 40))
            true = rng.integers(0, k_true, size=n).tolist()
            pred = rng.integers(0, k_pred, size=n).tolist()
            assert best_label_accuracy(true, pred) == enumerated_label_accuracy(true, pred)
        # More predicted than true labels, and labels that are not integers.
        true = ["a", "a", "b", "b", "b", "c"]
        pred = [5, 6, 7, 7, 8, 9]
        assert best_label_accuracy(true, pred) == enumerated_label_accuracy(true, pred) == 4 / 6


class TestHierCluster:
    def test_two_obvious_groups(self):
        leaves = [two_state_leaf(o) for o in (-8.0, -8.2, 8.0, 8.2)]
        levels = hier_cluster(leaves, [2], VhemConfig(k_reduced=2, seed=0))
        assert len(levels) == 2
        labels = leaf_labels(levels, 1)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_self_ladder_bijection(self):
        leaves = [two_state_leaf(o) for o in (-12.0, -4.0, 4.0, 12.0)]
        levels = hier_cluster(leaves, [4], VhemConfig(k_reduced=4, seed=3))
        parents = levels[1].parent_of
        assert sorted(parents.values()) == [0, 1, 2, 3]

    def test_single_leaf_trivial_chain(self):
        levels = hier_cluster([two_state_leaf(0.0)], [1], VhemConfig(k_reduced=1, seed=0))
        assert levels[1].parent_of == {0: 0}
        assert leaf_labels(levels, 1) == [0]
        with pytest.raises(IndexError) as info:
            leaf_labels(levels, 2)
        assert str(info.value) == "level 2 out of range"

    def test_no_leaves_rejected(self):
        with pytest.raises(InvalidModelError) as info:
            hier_cluster([], [1], VhemConfig(k_reduced=1))
        assert str(info.value) == "mixture needs at least one component"

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_clusters_the_mixture_it_is_given(self, cov_type):
        # Level 0 is the given mixture's own stack, with uniform weights
        # whatever the mixture's; a list of its components gives the same
        # tree, bit for bit.
        leaves, _ = synth_benchmark(
            3, 4, 3.0, np.random.default_rng(5), n_mix=2, dim=2, cov_type=cov_type
        )
        base = H3m(np.random.default_rng(6).dirichlet(np.ones(12)), leaves)
        config = VhemConfig(k_reduced=3, seed=2, max_iters=10)
        levels = hier_cluster(base, [3, 1], config)
        np.testing.assert_array_equal(levels[0].models.weights, np.full(12, 1 / 12))
        for name, stack in zip(_Stacked._fields, levels[0].models.arrays):
            assert np.shares_memory(stack, getattr(base.arrays, name)), name
        from_list = hier_cluster(list(base.components), [3, 1], config)
        assert [lvl.level_size for lvl in levels] == [lvl.level_size for lvl in from_list]
        for level, other in zip(levels, from_list):
            assert level.parent_of == other.parent_of
            assert same_bytes(level.models, other.models)

    def test_levels_override_k_seed_and_a_given_start(self):
        # Level l reduces with k_reduced = ladder[l] and seed = config.seed + l,
        # and an H3m start gives way to "subset-perturb": the tree is the same,
        # bit for bit, and starts compete, which vhem_reduce rejects from a start.
        leaves, _ = synth_benchmark(3, 4, 3.0, np.random.default_rng(5), n_mix=2)
        config = VhemConfig(k_reduced=7, seed=2, max_iters=5, n_starts=2)
        drawn = hier_cluster(leaves, [3, 1], config)
        given = hier_cluster(leaves, [3, 1], replace(config, init=H3m([0.5, 0.5], leaves[:2])))
        for depth, k in enumerate([3, 1]):
            level_config = replace(config, k_reduced=k, seed=2 + depth)
            direct = vhem_reduce(drawn[depth].models, level_config).reduced
            assert same_bytes(drawn[depth + 1].models, direct)
        for level, other in zip(drawn, given):
            assert level.parent_of == other.parent_of
            assert same_bytes(level.models, other.models)

    def test_path_consistency(self):
        leaves, _ = synth_benchmark(4, 3, 4.0, np.random.default_rng(0))
        levels = hier_cluster(leaves, [4, 2], VhemConfig(k_reduced=4, seed=1))
        assert [lvl.level_size for lvl in levels] == [12, 4, 2]
        mid = leaf_labels(levels, 1)
        top = leaf_labels(levels, 2)
        for leaf in range(12):
            assert top[leaf] == levels[2].parent_of[mid[leaf]]
        assert levels[1].parent_of.keys() == set(range(12))
        assert levels[2].parent_of.keys() == set(range(4))

    def test_bad_ladders_rejected(self):
        leaves = [two_state_leaf(o) for o in (-4.0, 4.0)]
        with pytest.raises(ValueError):
            hier_cluster(leaves, [2, 2], VhemConfig(k_reduced=2))
        with pytest.raises(ValueError):
            hier_cluster(leaves, [3], VhemConfig(k_reduced=3))
        with pytest.raises(ValueError):
            hier_cluster(leaves, [], VhemConfig(k_reduced=1))
