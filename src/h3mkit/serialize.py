"""Text-based model files and line-delimited sequence datasets.

Models are single JSON documents with an explicit schema version, written
on one line by json's C encoder (``python -m json.tool`` indents one for
reading); floats use Python's shortest exact decimal encoding, so save/load
round-trips reproduce every parameter bit for bit. Loading reads each HMM's
five parameter arrays straight from the JSON lists, without building
emission objects, and checks each stack of them once: a mixture's
components, when their shapes agree, are stacked and go through one
``hmm._check_arrays`` call, and the mixture holds that stack. Malformed
or ragged lists are a ModelFormatError, invalid parameters an
InvalidModelError, and either names the file, the mixture component, and the
state and emission component where it can. Datasets are JSON records, one
per line, read whole.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidModelError, ModelFormatError
from .h3m import H3m
from .hmm import Hmm, Sequence, _check_arrays, _check_data, _Checked

SCHEMA_VERSION = "1"


@dataclass
class SequenceDataset:
    """Sequences with optional per-record labels, all sharing one dimension."""

    sequences: list[Sequence]
    labels: list[str | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [None] * len(self.sequences)
        if len(self.labels) != len(self.sequences):
            raise InvalidModelError("one label per sequence required")
        if self.sequences:
            _check_data(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)


# ---------------------------------------------------------------------------
# Model payloads


def _hmm_payload(m: Hmm) -> dict:
    return {
        "initial": m.initial.tolist(),
        "transitions": m.transitions.tolist(),
        "emissions": [
            {
                "weights": w.tolist(),
                "components": [
                    {"mean": mu.tolist(), "cov": cov.tolist()} for mu, cov in zip(mu_row, cov_row)
                ],
            }
            for w, mu_row, cov_row in zip(m.mix_weights, m.means, m.covs)
        ],
    }


def _malformed(exc: KeyError | TypeError | ValueError, where: str) -> ModelFormatError:
    """A missing field (KeyError), a field of the wrong JSON type (TypeError,
    e.g. a number where a list or an object belongs) or ragged or non-numeric
    lists (ValueError)."""
    if isinstance(exc, KeyError):
        return ModelFormatError(f"missing field {exc} in {where}")
    return ModelFormatError(f"malformed {where}: {exc}")


def _parse_arrays(payload: dict, where: str) -> list[np.ndarray]:
    """The five parameter arrays of an HMM payload, read straight from the
    JSON lists and not yet checked; errors name ``where``."""
    place = where
    try:
        weights, means, covs = [], [], []
        for state, gmm in enumerate(payload["emissions"]):
            place = f"{where} emission {state}"
            weights.append(gmm["weights"])
            means.append([c["mean"] for c in gmm["components"]])
            covs.append([c["cov"] for c in gmm["components"]])
        place = where
        lists = (payload["initial"], payload["transitions"], weights, means, covs)
        return [np.array(value, dtype=float) for value in lists]
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(exc, place) from exc


def _named(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an InvalidModelError from it prefixed by ``where``."""
    try:
        return build(*args, **kwargs)
    except InvalidModelError as exc:
        raise InvalidModelError(f"{where}{exc}") from exc


def _components(parts: list[list[np.ndarray]], path: Path) -> _Checked | list[Hmm]:
    """The mixture components of a file from their parsed arrays. Components
    of one shape are stacked and checked once, and an error names the
    component; otherwise each is checked alone, and ``H3m``'s ``hmm._stack``
    names the first whose shape differs."""
    if len({tuple(a.shape for a in arrays) for arrays in parts}) == 1:
        stack = [np.stack(column) for column in zip(*parts)]
        return _named(f"{path} ", _check_arrays, *stack, axes=("component",))
    return [
        _named(f"{path} component {i}: ", Hmm, *arrays)
        for i, arrays in enumerate(parts)
    ]


def save_model(model: Hmm | H3m, path: str | Path, seed: int | None = None) -> None:
    """Write a model as a versioned JSON document on one line."""
    path = Path(path)
    if isinstance(model, Hmm):
        kind = "hmm"
        payload = _hmm_payload(model)
        meta = {"dim": model.dim, "n_states": model.n_states, "n_mix": model.n_mix}
    elif isinstance(model, H3m):
        kind = "h3m"
        payload = {
            "weights": model.weights.tolist(),
            "components": [_hmm_payload(c) for c in model.components],
        }
        meta = {
            "dim": model.dim,
            "n_states": model.n_states,
            "n_mix": model.n_mix,
            "k": model.n_components,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if seed is not None:
        meta["seed"] = operator.index(seed)  # a Python int, also for numpy integers
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "metadata": meta, "payload": payload}
    path.write_text(json.dumps(doc) + "\n")


def load_model(path: str | Path) -> Hmm | H3m:
    """Read a model file back; full structural validation applies."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ModelFormatError(f"{path}: missing schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported schema_version {doc['schema_version']!r},"
            f" expected {SCHEMA_VERSION!r}"
        )
    kind = doc.get("kind")
    payload = doc.get("payload")
    if payload is None:
        raise ModelFormatError(f"{path}: missing payload")
    if kind == "hmm":
        return _named(f"{path}: ", Hmm, *_parse_arrays(payload, f"{path}"))
    if kind == "h3m":
        try:
            parts = [
                _parse_arrays(c, f"{path} component {i}")
                for i, c in enumerate(payload["components"])
            ]
            return _named(f"{path}: ", H3m, payload["weights"], _components(parts, path))
        except (KeyError, TypeError) as exc:
            raise _malformed(exc, f"{path}") from exc
    raise ModelFormatError(f"{path}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Datasets


def save_dataset(dataset: SequenceDataset, path: str | Path) -> None:
    """Write one JSON record per line: id, observations, optional label."""
    path = Path(path)
    with path.open("w") as fh:
        for idx, (seq, label) in enumerate(zip(dataset.sequences, dataset.labels)):
            record = {
                "id": seq.id if seq.id is not None else str(idx),
                "obs": seq.observations.tolist(),
            }
            if label is not None:
                record["label"] = label
            fh.write(json.dumps(record) + "\n")


def load_dataset(path: str | Path) -> SequenceDataset:
    path = Path(path)
    sequences: list[Sequence] = []
    labels: list[str | None] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ModelFormatError(f"{path}:{lineno}: not valid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ModelFormatError(f"{path}:{lineno}: record is not a JSON object")
            if "obs" not in record:
                raise ModelFormatError(f"{path}:{lineno}: record has no 'obs' field")
            try:
                seq = Sequence(np.asarray(record["obs"], dtype=float), id=record.get("id"))
            except (InvalidModelError, ValueError, TypeError) as exc:
                raise ModelFormatError(f"{path}:{lineno}: bad observations: {exc}") from exc
            if sequences and seq.dim != sequences[0].dim:
                raise ModelFormatError(
                    f"{path}:{lineno}: observation dimension {seq.dim}, expected {sequences[0].dim}"
                )
            sequences.append(seq)
            labels.append(record.get("label"))
    if not sequences:
        raise ModelFormatError(f"{path}: dataset is empty")
    return SequenceDataset(sequences, labels)
