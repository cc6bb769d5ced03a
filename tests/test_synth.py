"""Synthetic benchmark generator: group geometry, determinism, both output
kinds."""

import numpy as np
import pytest

from h3mkit import Hmm, InvalidModelError, SequenceDataset, sample_batch, synth_benchmark
from h3mkit.synth import _prototype

FIELDS = ("initial", "transitions", "mix_weights", "means", "covs")


def members_one_by_one(n_groups, per_group, separation, seed, **kw):
    """Reference for the members of synth_benchmark(kind="hmms"): each
    member drawn on its own from its group's prototype, a Dirichlet initial
    row, one Dirichlet draw per transition row, then the normals of its
    means. Returns the members' five arrays and the generator after them."""
    draws = np.random.default_rng(seed)
    members = []
    for g in range(n_groups):
        offset = (g - (n_groups - 1) / 2.0) * separation
        proto = _prototype(offset, separation=separation, **kw)
        for _ in range(per_group):
            initial = draws.dirichlet(100.0 * proto.initial + 1e-9)
            transitions = np.stack(
                [draws.dirichlet(100.0 * row + 1e-9) for row in proto.transitions]
            )
            means = proto.means + draws.normal(0.0, separation / 20.0, size=proto.means.shape)
            members.append((initial, transitions, proto.mix_weights, means, proto.covs))
    return members, draws


class TestSynthBenchmark:
    def test_zero_separation_identical_prototypes(self):
        rng = np.random.default_rng(0)
        members, labels = synth_benchmark(3, 2, 0.0, rng)
        for other in members[1:]:
            np.testing.assert_array_equal(members[0].means, other.means)

    def test_group_offsets(self):
        rng = np.random.default_rng(1)
        members, labels = synth_benchmark(4, 5, 4.0, rng, n_states=2, dim=1)
        assert len(members) == 20
        np.testing.assert_array_equal(labels, np.repeat(np.arange(4), 5))
        # Group centers land at -6, -2, +2, +6 along the first dimension.
        for g in range(4):
            group_means = [
                float(np.mean(m.means[..., 0]))
                for m, lab in zip(members, labels)
                if lab == g
            ]
            center = (g - 1.5) * 4.0
            assert abs(np.mean(group_means) - center) < 0.5

    def test_members_are_valid_and_jittered(self):
        rng = np.random.default_rng(2)
        members, _ = synth_benchmark(2, 3, 4.0, rng, n_states=2)
        for m in members:
            assert m.initial.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(m.transitions.sum(axis=1), 1.0, atol=1e-12)
        assert not np.array_equal(members[0].transitions, members[1].transitions)

    def test_seed_determinism(self):
        a, _ = synth_benchmark(2, 2, 4.0, np.random.default_rng(42))
        b, _ = synth_benchmark(2, 2, 4.0, np.random.default_rng(42))
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.initial, mb.initial)
            np.testing.assert_array_equal(ma.transitions, mb.transitions)
            np.testing.assert_array_equal(ma.means, mb.means)

    def test_sequences_kind(self):
        rng = np.random.default_rng(3)
        dataset, labels = synth_benchmark(
            2, 4, 6.0, rng, n_states=2, dim=2, tau=7, kind="sequences"
        )
        assert isinstance(dataset, SequenceDataset)
        assert len(dataset) == 8
        assert dataset.labels == [str(g) for g in labels]
        for seq in dataset.sequences:
            assert seq.observations.shape == (7, 2)

    def test_bad_arguments(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for args, kw, match in [
            ((1, 2, 4.0), {}, "groups"),
            ((2, 0, 4.0), {}, "per_group"),
            ((2, 2, 4.0), dict(kind="graphs"), "kind"),
            ((2, 2, 4.0), dict(tau=0, kind="sequences"), "tau"),
            ((2, 2, 4.0), dict(n_states=0), "n_states"),
            ((2, 2, 4.0), dict(n_mix=0), "n_mix"),
            ((2, 2, 4.0), dict(dim=-1, kind="sequences"), "dim"),
            ((2, 2, -1.0), {}, "separation"),
            ((2, 2, float("nan")), {}, "separation"),
            ((2, 2, float("inf")), {}, "separation"),
            ((2, 2, 4.0), dict(cov_type="weird"), "cov_type"),
        ]:
            with pytest.raises(ValueError, match=match):
                synth_benchmark(*args, rng, **kw)
            # Rejected before anything is drawn.
            assert rng.bit_generator.state == state, (args, kw)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_member_draw_order(self, cov_type):
        # An explicit per-(state, component) draw loop pins the seeded
        # stream, so that a rewrite cannot change seeded members silently.
        members, _ = synth_benchmark(
            2, 2, 4.0, np.random.default_rng(3), n_states=3, n_mix=2, dim=2, cov_type=cov_type
        )
        draws = np.random.default_rng(3)
        for idx, member in enumerate(members):
            proto = _prototype(4.0 * (idx // 2) - 2.0, 3, 2, 2, 4.0, cov_type)
            np.testing.assert_array_equal(
                member.initial, draws.dirichlet(100.0 * proto.initial + 1e-9)
            )
            for row, proto_row in zip(member.transitions, proto.transitions):
                np.testing.assert_array_equal(row, draws.dirichlet(100.0 * proto_row + 1e-9))
            np.testing.assert_array_equal(member.mix_weights, proto.mix_weights)
            np.testing.assert_array_equal(member.covs, proto.covs)
            # One draw per (state, component), state-major.
            for mean, proto_mean in zip(member.means.reshape(-1, 2), proto.means.reshape(-1, 2)):
                np.testing.assert_array_equal(mean, proto_mean + draws.normal(0.0, 0.2, size=2))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n_mix", [1, 2])
    @pytest.mark.parametrize("n_states", [1, 3])
    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_members_match_one_by_one_draws(self, cov_type, n_states, n_mix, dim):
        # The stacked draw gives every member bit for bit, and leaves the
        # generator where member-by-member draws leave it.
        kw = dict(n_states=n_states, n_mix=n_mix, dim=dim, cov_type=cov_type)
        rng = np.random.default_rng(917263)
        members, labels = synth_benchmark(3, 4, 4.0, rng, **kw)
        expected, draws = members_one_by_one(3, 4, 4.0, 917263, **kw)
        np.testing.assert_array_equal(labels, np.repeat(np.arange(3), 4))
        assert len(members) == len(expected)
        for member, arrays in zip(members, expected):
            for name, value in zip(FIELDS, arrays):
                got = getattr(member, name)
                assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
        assert rng.random(4).tobytes() == draws.random(4).tobytes()

    def test_sequences_build_only_the_prototypes(self, monkeypatch):
        # kind "sequences" samples from the checked stack: no member Hmm; the
        # members of kind "hmms" are views of that stack, not built again.
        built = []
        constructor = Hmm.__init__

        def counting(self, *arrays):
            built.append(arrays)
            constructor(self, *arrays)

        monkeypatch.setattr(Hmm, "__init__", counting)
        synth_benchmark(3, 5, 4.0, np.random.default_rng(0), tau=4, kind="sequences")
        assert len(built) == 3
        synth_benchmark(3, 5, 4.0, np.random.default_rng(0))
        assert len(built) == 3 + 3

    def test_stack_check_names_the_member(self):
        # One check over the stack still says which member is bad.
        class NanInThirdMeans:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def dirichlet(self, alpha):
                return self.rng.dirichlet(alpha)

            def normal(self, loc, scale, size):
                self.calls += 1
                out = self.rng.normal(loc, scale, size)
                if self.calls == 3:
                    out[1, 0, 0] = np.nan
                return out

        with pytest.raises(
            InvalidModelError,
            match="member 2, state 1, mixture component 0: mean contains non-finite",
        ):
            synth_benchmark(2, 2, 4.0, NanInThirdMeans(), n_states=2, kind="sequences")

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    @pytest.mark.parametrize("tau", [1, 7])
    def test_sequences_are_one_sample_batch_per_member(self, cov_type, tau):
        # kind "sequences" draws the members of kind "hmms" from the same seed,
        # then continues the stream as one sample_batch call per member would.
        kw = dict(n_states=3, n_mix=2, dim=2, tau=tau, cov_type=cov_type)
        dataset, labels = synth_benchmark(
            3, 4, 4.0, np.random.default_rng(917263), kind="sequences", **kw
        )
        draws = np.random.default_rng(917263)
        members, member_labels = synth_benchmark(3, 4, 4.0, draws, **kw)
        np.testing.assert_array_equal(labels, member_labels)
        assert len(dataset) == len(members)
        for idx, (seq, member) in enumerate(zip(dataset.sequences, members)):
            obs, _ = sample_batch(member, tau, 1, draws)
            assert seq.id == f"seq{idx:04d}"
            assert seq.observations.tobytes() == obs[0].tobytes()
