"""Model files and datasets: exact round-trips, validation on load, and
format errors with useful context."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from h3mkit import (
    H3m,
    Hmm,
    InvalidModelError,
    ModelFormatError,
    Sequence,
    SequenceDataset,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)

from conftest import random_h3m, random_hmm

FIELDS = ("initial", "transitions", "mix_weights", "means", "covs")


@st.composite
def model_arrays(draw) -> dict:
    """Valid parameter arrays of a random shape and covariance layout."""
    n, m, d = (draw(st.integers(1, 3)) for _ in range(3))
    positive = st.floats(1e-3, 1e3)

    def rows(shape):
        mass = draw(arrays(float, shape, elements=positive))
        return mass / mass.sum(axis=-1, keepdims=True)

    means = draw(arrays(float, (n, m, d), elements=st.floats(-1e6, 1e6)))
    if draw(st.booleans()):
        covs = draw(arrays(float, (n, m, d), elements=st.floats(1e-8, 1e8)))
    else:
        root = draw(arrays(float, (n, m, d, d), elements=st.floats(-10.0, 10.0)))
        covs = root @ np.swapaxes(root, -1, -2) + 0.1 * np.eye(d)
        covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return dict(
        initial=rows((n,)), transitions=rows((n, n)), mix_weights=rows((n, m)),
        means=means, covs=covs,
    )


def assert_hmm_equal(a: Hmm, b: Hmm):
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestModelRoundTrip:
    def test_hmm_exact(self, rng, tmp_path):
        model = random_hmm(rng, n_states=1, n_mix=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, Hmm)
        assert_hmm_equal(model, loaded)

    def test_random_models_property(self, rng, tmp_path):
        for i in range(10):
            model = random_hmm(
                rng,
                n_states=int(rng.integers(1, 4)),
                n_mix=int(rng.integers(1, 3)),
                dim=int(rng.integers(1, 3)),
                cov_type="diag" if i % 2 == 0 else "full",
            )
            path = tmp_path / f"m{i}.json"
            save_model(model, path)
            assert_hmm_equal(model, load_model(path))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(model_arrays())
    def test_arrays_objects_and_files_agree(self, params):
        # Arrays -> Hmm -> Hmm -> file -> Hmm, bit for bit, and the emission
        # objects a view of the same bits.
        model = Hmm(**params)
        rebuilt = Hmm(*(getattr(model, name) for name in FIELDS))
        for state, gmm in enumerate(rebuilt.emissions):
            assert gmm.weights.tobytes() == params["mix_weights"][state].tobytes()
            for comp, g in enumerate(gmm.components):
                assert g.mean.tobytes() == params["means"][state, comp].tobytes()
                assert g.cov.tobytes() == params["covs"][state, comp].tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            save_model(rebuilt, Path(tmp) / "m.json")
            loaded = load_model(Path(tmp) / "m.json")
        for other in (model, rebuilt, loaded):
            for name in FIELDS:
                value = getattr(other, name)
                assert value.dtype == float and value.shape == params[name].shape, name
                assert value.tobytes() == params[name].tobytes(), name

    def test_h3m_full_cov(self, rng, tmp_path):
        model = random_h3m(rng, k=4, n_states=2, n_mix=2, dim=2, cov_type="full")
        path = tmp_path / "mix.json"
        save_model(model, path, seed=7)
        loaded = load_model(path)
        assert isinstance(loaded, H3m)
        np.testing.assert_array_equal(model.weights, loaded.weights)
        for ca, cb in zip(model.components, loaded.components):
            assert_hmm_equal(ca, cb)
        doc = json.loads(path.read_text())
        assert doc["metadata"]["seed"] == 7
        assert doc["metadata"]["k"] == 4

    def test_numpy_integer_seed(self, rng, tmp_path):
        # A seed that is a numpy integer is written as the same JSON number.
        model = random_h3m(rng, k=2)
        for name, seed in (("int", 3), ("numpy", np.int64(3))):
            save_model(model, tmp_path / f"{name}.json", seed=seed)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()

    def test_one_line_file(self, tmp_path):
        # The document on one line: parsed, it is the document that the
        # indented writer of schema 1 gave for this model, and it loads back
        # bit for bit.
        third = 1.0 / 3.0
        hmm = Hmm(
            [third, 1.0 - third], [[0.9, 0.1], [0.2, 0.8]], [[0.25, 0.75], [1.0, 0.0]],
            [[[0.1], [-2.5]], [[1e-300], [3.0]]], [[[0.5], [1.0]], [[2.0], [1e8]]],
        )
        model = H3m([0.4, 0.6], [hmm, hmm])
        path = tmp_path / "m.json"
        save_model(model, path, seed=3)
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        component = {
            "initial": [third, 1.0 - third],
            "transitions": [[0.9, 0.1], [0.2, 0.8]],
            "emissions": [
                {"weights": [0.25, 0.75], "components": [
                    {"mean": [0.1], "cov": [0.5]}, {"mean": [-2.5], "cov": [1.0]},
                ]},
                {"weights": [1.0, 0.0], "components": [
                    {"mean": [1e-300], "cov": [2.0]}, {"mean": [3.0], "cov": [1e8]},
                ]},
            ],
        }
        assert json.loads(text) == {
            "schema_version": "1",
            "kind": "h3m",
            "metadata": {"dim": 1, "n_states": 2, "n_mix": 2, "k": 2, "seed": 3},
            "payload": {"weights": [0.4, 0.6], "components": [component, component]},
        }
        loaded = load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        for a, b in zip(model.components, loaded.components):
            for name in FIELDS:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_bad_transition_row_named(self, rng, tmp_path):
        model = random_hmm(rng, n_states=2)
        path = tmp_path / "bad.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["transitions"][1] = [0.5, 0.4]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidModelError, match="transition row 1"):
            load_model(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("weights", "mixture weights sums to 1.1, expected 1 within 1e-12"),
            ("count", "1 weights for 2 components"),
            ("shape", "component 1 has (N=3, M=1, d=1, diagonal), expected (N=2, M=1, d=1,"),
            ("matrix", "mixture weights must be a vector"),
            ("empty", "mixture needs at least one component"),
        ],
    )
    def test_mixture_errors_name_the_file(self, rng, tmp_path, fault, message):
        path = tmp_path / "m.json"
        save_model(H3m([0.5, 0.5], [random_hmm(rng, n_states=2)] * 2), path)
        doc = json.loads(path.read_text())
        if fault == "weights":
            doc["payload"]["weights"] = [0.5, 0.6]
        elif fault == "count":
            doc["payload"]["weights"] = [1.0]
        elif fault == "matrix":
            doc["payload"]["weights"] = [[0.5, 0.5]]
        elif fault == "empty":
            doc["payload"] = {"weights": [], "components": []}
        else:
            three = tmp_path / "three.json"
            save_model(random_hmm(rng, n_states=3), three)
            doc["payload"]["components"][1] = json.loads(three.read_text())["payload"]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidModelError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "hmm", "payload": {}}, "missing schema_version"),
            ([], "missing schema_version"),
            ({"schema_version": "1", "kind": "hmm"}, "missing payload"),
        ],
        ids=["no-version", "not-an-object", "no-payload"],
    )
    def test_document_errors_name_the_file(self, tmp_path, doc, message):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_model_type_rejected(self, rng, tmp_path):
        path = tmp_path / "s.json"
        with pytest.raises(TypeError) as info:
            save_model(random_hmm(rng).means, path)
        assert str(info.value) == "cannot serialize ndarray"
        assert not path.exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="line 1"):
            load_model(path)

    def test_schema_version_mismatch(self, rng, tmp_path):
        model = random_hmm(rng)
        path = tmp_path / "v.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="schema_version"):
            load_model(path)

    def test_missing_field(self, rng, tmp_path):
        model = random_hmm(rng)
        path = tmp_path / "f.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["payload"]["initial"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="initial"):
            load_model(path)

    @pytest.mark.parametrize("where", ["mixture", "emission"])
    def test_components_of_wrong_type(self, rng, tmp_path, where):
        path = tmp_path / "c.json"
        save_model(random_h3m(rng, k=2), path)
        doc = json.loads(path.read_text())
        if where == "mixture":
            doc["payload"]["components"] = 5
        else:
            doc["payload"]["components"][1]["emissions"][0]["components"] = 5
        path.write_text(json.dumps(doc))
        expected = "c.json" if where == "mixture" else "c.json component 1 emission 0"
        with pytest.raises(ModelFormatError, match=expected):
            load_model(path)

    def test_unknown_kind(self, rng, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": "dtm", "payload": {}}))
        with pytest.raises(ModelFormatError, match="kind"):
            load_model(path)


class TestDataset:
    def test_round_trip(self, rng, tmp_path):
        sequences = [
            Sequence(rng.normal(size=(int(rng.integers(2, 6)), 2)), id=f"s{i}")
            for i in range(5)
        ]
        ds = SequenceDataset(sequences, ["a", "b", None, "a", None])
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == 5
        assert loaded.labels == ["a", "b", None, "a", None]
        for sa, sb in zip(ds.sequences, loaded.sequences):
            np.testing.assert_array_equal(sa.observations, sb.observations)
            assert sa.id == sb.id

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "obs": [[0.0]]}\nnot json\n')
        with pytest.raises(ModelFormatError, match=":2"):
            load_dataset(path)

    def test_missing_obs_reported(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ModelFormatError, match="obs"):
            load_dataset(path)

    @pytest.mark.parametrize("line", ["5", '{"obs": {"a": 1}}'])
    def test_malformed_record_reported(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "obs": [[0.0]]}\n' + line + "\n")
        with pytest.raises(ModelFormatError, match="data.jsonl:2"):
            load_dataset(path)

    def test_dimension_mismatch_names_the_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"obs": [[0.0, 1.0]]}\n\n{"obs": [[0.0, 1.0]]}\n{"obs": [[0.0]]}\n')
        with pytest.raises(ModelFormatError, match=r"data.jsonl:4: .* dimension 1, expected 2"):
            load_dataset(path)

    def test_zero_dimensional_observations_reported(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"obs": [[0.0], [1.0]]}\n{"obs": [[], []]}\n')
        with pytest.raises(ModelFormatError, match=r"data.jsonl:2: bad observations: .*d >= 1"):
            load_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n")
        with pytest.raises(ModelFormatError, match="empty"):
            load_dataset(path)

    def test_label_count_rejected(self, rng):
        with pytest.raises(InvalidModelError) as info:
            SequenceDataset([Sequence(rng.normal(size=(3, 1)))] * 2, ["a"])
        assert str(info.value) == "one label per sequence required"

    def test_inconsistent_dims_rejected(self, rng):
        with pytest.raises(InvalidModelError):
            SequenceDataset(
                [Sequence(rng.normal(size=(3, 1))), Sequence(rng.normal(size=(3, 2)))]
            )
