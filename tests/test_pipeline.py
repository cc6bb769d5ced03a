"""Split-estimate-aggregate pipeline: equivalence with direct EM at one
portion, accuracy on the two-population data, determinism, input guards."""

import numpy as np
import pytest

from h3mkit import (
    EmConfig,
    EstimationError,
    forward_loglik_batch,
    h3m_em,
    split_estimate_aggregate,
    synth_benchmark,
)

from conftest import best_label_accuracy


def model_labels(model, sequences):
    obs = np.stack([s.observations for s in sequences])
    per_comp = np.stack([forward_loglik_batch(c, obs) for c in model.components], axis=1)
    with np.errstate(divide="ignore"):
        scores = np.log(model.weights)[None, :] + per_comp
    return np.argmax(scores, axis=1)


@pytest.fixture(scope="module")
def two_population_data():
    dataset, labels = synth_benchmark(
        2, 40, 10.0, np.random.default_rng(100),
        n_states=2, n_mix=1, dim=1, tau=20, kind="sequences",
    )
    return dataset.sequences, labels


class TestSplitEstimateAggregate:
    def test_single_portion_matches_direct(self, two_population_data):
        sequences, labels = two_population_data
        final, report = split_estimate_aggregate(
            sequences, 1, 2, 2, 2, 1, EmConfig(), seed=0
        )
        direct = h3m_em(sequences, 2, 2, 1, EmConfig(), np.random.default_rng(0))
        pipeline_labels = model_labels(final, sequences)
        assert report.pooled_k == 2
        agreement = best_label_accuracy(
            list(direct.hard_labels), list(pipeline_labels)
        )
        assert agreement >= 0.95

    def test_four_portions_separates(self, two_population_data):
        sequences, labels = two_population_data
        final, report = split_estimate_aggregate(
            sequences, 4, 2, 2, 2, 1, EmConfig(), seed=1
        )
        assert report.pooled_k == 8
        assert len(report.portion_sizes) == 4
        acc = best_label_accuracy(list(labels), list(model_labels(final, sequences)))
        assert acc >= 0.9

    def test_deterministic(self, two_population_data):
        sequences, _ = two_population_data
        final_a, report_a = split_estimate_aggregate(
            sequences, 3, 2, 2, 2, 1, EmConfig(), seed=5
        )
        final_b, report_b = split_estimate_aggregate(
            sequences, 3, 2, 2, 2, 1, EmConfig(), seed=5
        )
        assert report_a.bound_history == report_b.bound_history
        assert report_a.portion_logliks == report_b.portion_logliks
        np.testing.assert_array_equal(final_a.weights, final_b.weights)

    def test_portion_too_small(self, two_population_data):
        sequences, _ = two_population_data
        with pytest.raises(EstimationError, match="portion"):
            split_estimate_aggregate(sequences[:6], 4, 2, 2, 2, 1, EmConfig(), seed=0)

    def test_bound_history_monotone(self, two_population_data):
        sequences, _ = two_population_data
        _, report = split_estimate_aggregate(
            sequences, 2, 2, 2, 2, 1, EmConfig(), seed=2
        )
        history = np.array(report.bound_history)
        assert np.all(np.diff(history) >= -1e-8 * np.abs(history[:-1]))

    def test_large_data_seed_23_keeps_every_component(self):
        # 1200 training sequences of four groups in six portions of four
        # components, pooled and reduced to four. Here a starved reduced
        # component once took the same pooled component in two rescues,
        # neither of which held, and ended with a weight of exactly 0.
        dataset, _ = synth_benchmark(
            4, 400, 3.0, np.random.default_rng(23), n_states=3, n_mix=2, dim=2, tau=20,
            kind="sequences",
        )
        order = np.random.default_rng(1023).permutation(len(dataset.sequences))
        train = [dataset.sequences[i] for i in order[:1200]]
        config = EmConfig(max_iters=30, tol=1e-6)
        final, report = split_estimate_aggregate(train, 6, 4, 4, 3, 2, config, None, 23)
        assert report.effective_k == 4 and np.all(final.weights > 0)
