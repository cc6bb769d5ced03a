"""Mixture-of-HMMs EM estimation and the Monte Carlo expected-log-likelihood
oracle."""

import math
import warnings

import numpy as np
import pytest

import h3mkit.h3m as h3m_module
import h3mkit.hmm as hmm_module
import h3mkit.reduction as reduction_module
from h3mkit import (
    AssignmentMatrix,
    EmConfig,
    EstimationError,
    H3m,
    Hmm,
    InvalidModelError,
    Sequence,
    VhemConfig,
    baum_welch,
    forward_loglik_batch,
    h3m_em,
    mc_expected_loglik,
    sample_batch,
    synth_benchmark,
    vhem_reduce,
)
from h3mkit.hmm import _Stacked

from conftest import best_label_accuracy, random_hmm

STD_NORMAL_SELF = -(1.0 + math.log(2.0 * math.pi)) / 2.0


def std_normal_hmm(mean=0.0):
    return Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]])


class TestH3mModel:
    def test_mixed_covariance_layouts_rejected(self):
        diag = std_normal_hmm()
        full = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[[[1.0]]]])
        with pytest.raises(InvalidModelError, match=r"component 1 .*full.*expected .*diagonal"):
            H3m([0.5, 0.5], [diag, full])

    def test_components_are_views_of_the_stack(self, rng):
        model = H3m([0.5, 0.5], [random_hmm(rng, 2, 2, 2), random_hmm(rng, 2, 2, 2)])
        components = model.components
        assert components[0] is not model.components[0]  # rebuilt on each read
        for j, component in enumerate(components):
            for name, stack in zip(_Stacked._fields, model.arrays):
                row = getattr(component, name)
                assert np.shares_memory(row, stack[j]) and not np.shares_memory(row, stack[1 - j])
                assert row.tobytes() == stack[j].tobytes()

    @pytest.mark.parametrize(
        "weights, components, message",
        [
            ([[1.0]], [std_normal_hmm()], "mixture weights must be a vector"),
            ([], [], "mixture needs at least one component"),
            ([1.0], [std_normal_hmm()] * 2, "1 weights for 2 components"),
            (
                [0.5, 0.5],
                [
                    Hmm([0.5, 0.5], np.full((2, 2), 0.5), np.ones((2, 1)), np.zeros((2, 1, 2)),
                        np.ones((2, 1, 2))),
                    Hmm([1.0], [[1.0]], [[1.0]], [[[0.0, 0.0]]], [[[1.0, 1.0]]]),
                ],
                "component 1 has (N=1, M=1, d=2, diagonal), expected (N=2, M=1, d=2, diagonal)",
            ),
        ],
        ids=["weight-matrix", "empty", "weight-count", "shapes"],
    )
    def test_malformed_mixture_rejected(self, weights, components, message):
        with pytest.raises(InvalidModelError) as info:
            H3m(weights, components)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(InvalidModelError, match="mixture weights sums to"):
            H3m([bad, 1.0], [std_normal_hmm(), std_normal_hmm(1.0)])


class TestAssignmentMatrix:
    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 1.0], "assignment row 1 sums to nan"),
            ([1.5, -0.5], "assignment row 1 has negative entries"),
            ([0.5, 0.5 + 1e-9], "assignment row 1 sums to 1.000000001"),
        ],
    )
    def test_bad_row_rejected_and_named(self, row, message):
        with pytest.raises(InvalidModelError, match=message):
            AssignmentMatrix(np.array([[0.25, 0.75], row]))

    def test_vector_rejected(self):
        with pytest.raises(InvalidModelError) as info:
            AssignmentMatrix([0.5, 0.5])
        assert str(info.value) == "assignment matrix must be 2-dimensional"

    def test_rows_within_tolerance_accepted(self):
        z = AssignmentMatrix([[1.0, 0.0], [0.5, 0.5 + 1e-13]])
        assert z.z.shape == (2, 2)


class TestH3mEm:
    def test_two_population_separation(self, rng):
        dataset, labels = synth_benchmark(
            2, 40, 10.0, rng, n_states=2, n_mix=1, dim=1, tau=20, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(), np.random.default_rng(0))
        acc = best_label_accuracy(list(labels), list(fit.hard_labels))
        assert acc >= 0.95

    def test_k1_identical_to_baum_welch(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 12, 1, rng)[0][0]) for _ in range(25)]
        bw = baum_welch(data, 2, 1, EmConfig(max_iters=15), np.random.default_rng(7))
        em = h3m_em(data, 1, 2, 1, EmConfig(max_iters=15), np.random.default_rng(7))
        assert bw.loglik_trace == em.loglik_trace
        for name in ("initial", "transitions", "mix_weights", "means", "covs"):
            np.testing.assert_array_equal(
                getattr(bw.model, name), getattr(em.model.components[0], name)
            )

    def test_k1_multi_start_matches_baum_welch(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 10, 1, rng)[0][0]) for _ in range(20)]
        config = EmConfig(max_iters=8, n_starts=3)
        bw = baum_welch(data, 2, 1, config, np.random.default_rng(11))
        em = h3m_em(data, 1, 2, 1, config, np.random.default_rng(11))
        assert bw.loglik_trace == em.loglik_trace

    def test_multi_start_never_worse(self, rng):
        dataset, _ = synth_benchmark(
            2, 20, 8.0, rng, n_states=2, n_mix=1, dim=1, tau=12, kind="sequences"
        )
        single = h3m_em(
            dataset.sequences, 2, 2, 1, EmConfig(max_iters=20),
            np.random.default_rng(3).spawn(4)[0],
        )
        multi = h3m_em(
            dataset.sequences, 2, 2, 1, EmConfig(max_iters=20, n_starts=4),
            np.random.default_rng(3),
        )
        assert multi.loglik_trace[-1] >= single.loglik_trace[-1] - 1e-9

    def test_best_start_keeps_the_first_of_equal_finals(self):
        # One start runs on the generator itself; several run on its spawned
        # children, in order, and a tie goes to the first.
        rng = np.random.default_rng(5)
        assert h3m_module._best_start(lambda start: start, 1, rng, None) is rng
        draws = []

        def fit(start):
            draws.append(start.random())
            return len(draws)

        assert h3m_module._best_start(fit, 3, np.random.default_rng(5), lambda _: 0.0) == 1
        assert draws == [child.random() for child in np.random.default_rng(5).spawn(3)]

    def test_trace_monotone(self, rng):
        dataset, _ = synth_benchmark(
            2, 20, 6.0, rng, n_states=2, n_mix=1, dim=1, tau=15, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(max_iters=25), np.random.default_rng(1))
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    @pytest.mark.parametrize("max_iters", [1, 3, 6])
    def test_trace_is_the_mixture_loglik_of_the_fit(self, rng, max_iters):
        # The last E-step evaluates the returned model: its trace entry is
        # sum_s logsumexp_j(log w_j + log p(x_s | component j)).
        dataset, _ = synth_benchmark(
            2, 15, 6.0, rng, n_states=2, n_mix=1, dim=1, tau=12, kind="sequences"
        )
        config = EmConfig(max_iters=max_iters, tol=0.0)
        fit = h3m_em(dataset.sequences, 2, 2, 1, config, np.random.default_rng(5))
        obs = np.stack([seq.observations for seq in dataset.sequences])
        log_joint = np.log(fit.model.weights)[None, :] + np.stack(
            [forward_loglik_batch(comp, obs) for comp in fit.model.components], axis=1
        )
        expected = float(np.sum(np.logaddexp.reduce(log_joint, axis=1)))
        assert len(fit.loglik_trace) == max_iters + 1
        assert abs(fit.loglik_trace[-1] - expected) <= 1e-12 * abs(expected)

    def test_posterior_rows_stochastic(self, rng):
        dataset, _ = synth_benchmark(
            2, 15, 6.0, rng, n_states=2, n_mix=1, dim=1, tau=10, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(max_iters=10), np.random.default_rng(2))
        np.testing.assert_allclose(fit.posteriors.sum(axis=1), 1.0, atol=1e-12)

    def test_too_few_sequences_rejected(self, rng):
        data = [Sequence(rng.normal(size=(5, 1)))]
        with pytest.raises(EstimationError):
            h3m_em(data, 2, 1, 1, EmConfig(), np.random.default_rng(0))

    def test_reseeds_bounded(self, rng):
        # Overprovisioned k on a 2-population dataset may starve a component;
        # the run must still finish with at most 2 rescues.
        dataset, _ = synth_benchmark(
            2, 15, 8.0, rng, n_states=1, n_mix=1, dim=1, tau=10, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 3, 1, 1, EmConfig(max_iters=15), np.random.default_rng(3))
        assert 0 <= fit.reseeds <= 2
        assert fit.model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_reseeds_in_one_iteration_start_from_two_sequences(self, monkeypatch):
        # Two components starve at once: the first reseed starts from the
        # sequence with the worst best log-likelihood, the second from the next.
        starts, objectives = [], []
        init, assign = h3m_module._init_hmm, h3m_module.compute_assignments

        def recorded_init(data, *args):
            if len(data) == 1:
                starts.append(data[0])
            return init(data, *args)

        def recorded_assign(values, weights, counts):
            objectives.append(values)
            return assign(values, weights, counts)

        monkeypatch.setattr(h3m_module, "_init_hmm", recorded_init)
        monkeypatch.setattr(h3m_module, "compute_assignments", recorded_assign)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        data = dataset.sequences
        fit = h3m_em(data, 4, 1, 1, EmConfig(max_iters=15), np.random.default_rng(2))
        assert fit.reseeds == 2 and len(starts) == 2
        # One length: E-step rows are the sequences in order. Both reseeds
        # follow the second E-step.
        worst_first = np.argsort(objectives[1].max(axis=1), kind="stable")
        index = {id(seq): i for i, seq in enumerate(data)}
        assert [index[id(seq)] for seq in starts] == worst_first[:2].tolist()
        assert np.all(fit.model.weights > 0.05)  # both reseeded components keep mass

    def test_reseed_from_too_few_distinct_vectors_starts_from_all_the_data(self, monkeypatch):
        # Sequence 9, made constant, is the worst modeled one when a component
        # starves. Its one distinct vector cannot seed two states, so that
        # reseed starts from a fit to all the sequences.
        calls, init = [], h3m_module._init_hmm

        def recorded_init(data, *args):
            try:
                model = init(data, *args)
            except EstimationError:
                calls.append((len(data), "raised"))
                raise
            calls.append((len(data), "ok"))
            return model

        monkeypatch.setattr(h3m_module, "_init_hmm", recorded_init)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(1), n_states=2, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        data = list(dataset.sequences)
        data[9] = Sequence(np.tile(data[9].observations[0], (10, 1)))
        config = EmConfig(max_iters=15)
        fit = h3m_em(data, 5, 2, 1, config, np.random.default_rng(9))
        reseed_calls = calls[5:]  # after one start per component
        assert reseed_calls == [(1, "raised"), (len(data), "ok")]
        assert fit.reseeds == 1
        again = h3m_em(data, 5, 2, 1, config, np.random.default_rng(9))
        assert again.loglik_trace == fit.loglik_trace and again.reseeds == fit.reseeds
        assert again.posteriors.tobytes() == fit.posteriors.tobytes()
        for stack, other in zip(again.model.arrays, fit.model.arrays):
            assert stack.tobytes() == other.tobytes()
        trace = np.array(fit.loglik_trace)
        drops = np.diff(trace) < -1e-8 * np.abs(trace[:-1])
        assert drops.sum() <= fit.reseeds

    @staticmethod
    def count_passes(monkeypatch):
        """Rows of the stack of every ``_expected_stats`` call that ``h3m_em``
        makes, once per length batch, by whether it builds statistics or runs
        forward only."""
        calls = {"stats": [], "forward": []}
        original = hmm_module._expected_stats

        def counted(models, batches, stats):
            calls["stats" if stats else "forward"] += [models.initial.shape[0]] * len(batches)
            return original(models, batches, stats)

        monkeypatch.setattr(h3m_module, "_expected_stats", counted)
        return calls

    def test_one_stacked_pass_per_estep(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        # Three components on two populations: this seed starves and reseeds once.
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        fit = h3m_em(dataset.sequences, 3, 1, 1, EmConfig(max_iters=15), np.random.default_rng(2))
        assert fit.reseeds == 1
        assert len(fit.loglik_trace) < 16  # converged: every E-step built statistics
        assert calls["forward"] == []
        # One pass of all three components per E-step, one one-row pass for the reseed.
        assert sorted(calls["stats"]) == [1] + [3] * len(fit.loglik_trace)

    def test_reseed_reruns_only_its_row(self, monkeypatch):
        events = []
        expected_stats, mstep = hmm_module._expected_stats, h3m_module.mstep

        def recorded_stats(models, batches, stats):
            assert stats  # the run converges: every pass builds statistics
            built, lls = expected_stats(models, batches, stats)
            copy = {name: value.copy() for name, value in vars(built).items()}
            events.append(("pass", models, copy))
            return built, lls

        def recorded_mstep(z, stats, counts, previous, cov_floor):
            events.append(("mstep", previous, dict(vars(stats))))
            return mstep(z, stats, counts, previous, cov_floor)

        monkeypatch.setattr(h3m_module, "_expected_stats", recorded_stats)
        monkeypatch.setattr(h3m_module, "mstep", recorded_mstep)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        fit = h3m_em(dataset.sequences, 3, 1, 1, EmConfig(max_iters=15), np.random.default_rng(2))
        assert fit.reseeds > 0
        checked = 0
        for kind, models, stats in events:
            if kind == "pass" and models.initial.shape[0] == 3:
                full, reseeded = stats, {}
            elif kind == "pass":  # the reseeded rows, one column each
                for r, means in enumerate(models.means):
                    reseeded[means.tobytes()] = {name: v[:, r] for name, v in stats.items()}
            else:  # the M-step after them, with models the components it starts from
                for j, component in enumerate(models.components):
                    fresh = reseeded.get(component.means.tobytes())
                    for name, value in stats.items():
                        want = full[name][:, j] if fresh is None else fresh[name]
                        assert value[:, j].tobytes() == want.tobytes(), (j, name)
                checked += len(reseeded)
        assert checked == fit.reseeds

    def test_last_possible_estep_runs_forward_only(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        # Three lengths, interleaved: three batches per pass. This seed reseeds
        # twice after one E-step, in one two-row pass.
        data = [Sequence(s.observations[: 6 + i % 3]) for i, s in enumerate(dataset.sequences)]
        max_iters, n_groups = 8, 3
        config = EmConfig(max_iters=max_iters, tol=0.0)
        fit = h3m_em(data, 4, 1, 1, config, np.random.default_rng(9))
        assert len(fit.loglik_trace) == max_iters + 1
        assert fit.reseeds == 2
        assert sorted(calls["stats"]) == [2] * n_groups + [4] * max_iters * n_groups
        assert calls["forward"] == [4] * n_groups
        # The forward-only pass fills the posteriors in sequence order.
        lls = np.array([
            [forward_loglik_batch(c, seq.observations[None])[0] for c in fit.model.components]
            for seq in data
        ])
        log_joint = np.log(fit.model.weights)[None, :] + lls
        expected = np.exp(log_joint - np.logaddexp.reduce(log_joint, axis=1, keepdims=True))
        np.testing.assert_allclose(fit.posteriors, expected, rtol=0, atol=1e-10)

    def test_posteriors_follow_sequence_order_across_lengths(self, rng):
        # Sequences of three lengths, interleaved: each length is one batch.
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 6 + i % 3, 1, rng)[0][0]) for i in range(24)]
        fit = h3m_em(data, 2, 2, 1, EmConfig(max_iters=5), np.random.default_rng(0))
        lls = np.array([
            [forward_loglik_batch(c, seq.observations[None])[0] for c in fit.model.components]
            for seq in data
        ])
        log_joint = np.log(fit.model.weights)[None, :] + lls
        expected = np.exp(log_joint - np.logaddexp.reduce(log_joint, axis=1, keepdims=True))
        np.testing.assert_allclose(fit.posteriors, expected, rtol=0, atol=1e-10)


def fit_with_repairs(monkeypatch, estimator):
    """One seeded run of ``estimator`` that repairs twice, after two
    different E-steps. Returns (repair count, repairs, msteps, column):
    repairs are (E-steps so far, item, the item model's means), an item
    counted once, at the first E-step that sees it repaired; msteps are the
    components that E-step's assignments starve and the (z, statistics,
    previous model) of each M-step; column(stack) gives every item's
    statistics under a stack of one model."""
    esteps, repairs, msteps = [], [], []
    assign, step = h3m_module.compute_assignments, h3m_module.mstep

    def recorded_assign(*args):
        z, norms = assign(*args)
        esteps.append(h3m_module._starved(z, args[2]))
        return z, norms

    def recorded_mstep(z, stats, counts, previous, cov_floor):
        copies = {k: v.copy() for k, v in vars(stats).items()}
        msteps.append((esteps[-1], z.z.copy(), copies, previous))
        return step(z, stats, counts, previous, cov_floor)

    monkeypatch.setattr(h3m_module, "compute_assignments", recorded_assign)
    monkeypatch.setattr(h3m_module, "mstep", recorded_mstep)
    if estimator == "h3m_em":
        # Five components on two populations; one length, so items are sequences.
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        data = dataset.sequences
        index = {id(seq): i for i, seq in enumerate(data)}
        init = h3m_module._init_hmm

        def recorded_init(seqs, *args):
            model = init(seqs, *args)
            if len(seqs) == 1:
                repairs.append((len(esteps), index[id(seqs[0])], model.means))
            return model

        monkeypatch.setattr(h3m_module, "_init_hmm", recorded_init)
        fit = h3m_em(data, 5, 1, 1, EmConfig(max_iters=15), np.random.default_rng(2))
        obs = np.stack([seq.observations for seq in data])
        return fit.reseeds, repairs, msteps, lambda row: hmm_module._expected_stats(row, [obs], True)[0]
    # Six reduced components on four groups of five leaves.
    leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(1), n_states=3, n_mix=2, dim=2)
    base = H3m(np.full(20, 0.05), leaves)
    estep = reduction_module._estep

    def recorded_estep(block, reduced, *args):
        for means in reduced.means:
            for item, source in enumerate(base.arrays.means):
                if means.tobytes() == source.tobytes() and item not in [r[1] for r in repairs]:
                    repairs.append((len(esteps), item, source))
        return estep(block, reduced, *args)

    monkeypatch.setattr(reduction_module, "_estep", recorded_estep)
    result = vhem_reduce(base, VhemConfig(k_reduced=6, max_iters=10, tol=0.0, seed=0))
    return result.rescues, repairs, msteps, lambda row: reduction_module._virtual_stats_all(
        base.arrays, estep(base.arrays, row, 10))


class TestRepairRule:
    """The one repair rule of both estimators, in ``h3m._em``: before the
    M-step, a starved component takes the n-th worst item of the run by best
    objective, never one that an earlier repair of the run took."""

    @pytest.mark.parametrize("estimator", ["h3m_em", "vhem_reduce"])
    def test_repairs_in_two_iterations_take_two_items(self, monkeypatch, estimator):
        count, repairs, _, _ = fit_with_repairs(monkeypatch, estimator)
        assert count == len(repairs) == 2
        (first_step, first, _), (second_step, second, _) = repairs
        assert first_step < second_step and first != second

    @pytest.mark.parametrize("estimator", ["h3m_em", "vhem_reduce"])
    def test_mstep_sees_the_taken_item_on_its_component(self, monkeypatch, estimator):
        count, repairs, msteps, column = fit_with_repairs(monkeypatch, estimator)
        assert count == len(repairs) == 2
        for n_esteps, item, means in repairs:
            starved, z, stats, previous = msteps[n_esteps - 1]  # the M-step after that E-step
            (j,) = np.flatnonzero(z[item])
            assert z[item, j] == 1.0 and j in starved
            assert previous.arrays.means[j].tobytes() == means.tobytes()
            expected = column(_Stacked(*(a[j:j + 1] for a in previous.arrays)))
            for name, value in stats.items():
                np.testing.assert_allclose(
                    value[:, j], getattr(expected, name)[:, 0], rtol=1e-12, atol=0
                )


    def test_repair_pass_with_non_finite_objectives_rejected(self, monkeypatch):
        # A reseed start whose variances are the smallest subnormal: the
        # sequences off its means score -inf under it, a numerical failure.
        init = h3m_module._init_hmm

        def degenerate_init(data, *args):
            model = init(data, *args)
            if len(data) == 1:
                model = Hmm(model.initial, model.transitions, model.mix_weights, model.means,
                            np.full(model.covs.shape, 5e-324))
            return model

        monkeypatch.setattr(h3m_module, "_init_hmm", degenerate_init)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        # No numpy warning on the way: the suite turns one into an error.
        with pytest.raises(EstimationError, match="objectives must be finite"):
            h3m_em(dataset.sequences, 5, 1, 1, EmConfig(max_iters=15), np.random.default_rng(2))


class TestMcExpectedLoglik:
    def test_standard_normal_identity(self, rng):
        hmm = std_normal_hmm()
        mean, stderr = mc_expected_loglik(hmm, hmm, 10, 100_000, rng)
        assert abs(mean - 10 * STD_NORMAL_SELF) < 3 * stderr

    def test_stderr_scaling(self, rng):
        base = random_hmm(rng, n_states=2, n_mix=1)
        reduced = random_hmm(rng, n_states=2, n_mix=1)
        _, se_small = mc_expected_loglik(base, reduced, 5, 20_000, np.random.default_rng(0))
        _, se_large = mc_expected_loglik(base, reduced, 5, 80_000, np.random.default_rng(1))
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    def test_self_beats_other(self, rng):
        # Sequence-level Gibbs inequality, checked statistically.
        for _ in range(5):
            base = random_hmm(rng, n_states=2, n_mix=1)
            other = random_hmm(rng, n_states=2, n_mix=1)
            m_self, se_self = mc_expected_loglik(base, base, 5, 20_000, rng)
            m_other, se_other = mc_expected_loglik(base, other, 5, 20_000, rng)
            assert m_other <= m_self + 3 * (se_self + se_other)

    def test_draws_the_reduced_cannot_emit(self, rng):
        # Variance 1e-310 at 0: every draw from N(0, 1) scores -inf, so the
        # mean is -inf and the standard error inf, without a numpy warning.
        narrow = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[[1e-310]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = mc_expected_loglik(std_normal_hmm(), narrow, 3, 5, rng)
        assert (mean, stderr) == (-np.inf, np.inf)

    def test_scores_near_the_float_range_overflow_without_warning(self, rng):
        # Variance 1e-300 at 0: a draw near 1.2e4 scores about -7.2e307, finite,
        # but the sum of three such scores and the squares of their spread
        # (about 1e304) overflow: the mean is -inf and the standard error inf,
        # without a numpy warning.
        far = Hmm([1.0], [[1.0]], [[1.0]], [[[1.2e4]]], [[[1.0]]])
        narrow = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[[1e-300]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = mc_expected_loglik(far, narrow, 1, 3, rng)
        assert (mean, stderr) == (-np.inf, np.inf)

    def test_requires_two_samples(self, rng):
        hmm = std_normal_hmm()
        with pytest.raises(ValueError):
            mc_expected_loglik(hmm, hmm, 5, 1, rng)
