"""Text-based model files and line-delimited sequence datasets.

Models are single JSON documents with an explicit schema version; floats use
Python's shortest exact decimal encoding, so save/load round-trips reproduce
every parameter bit for bit. Datasets are JSON records, one per line, read
whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidModelError, ModelFormatError
from .gaussians import Gaussian, GaussianMixture
from .h3m import H3m
from .hmm import Hmm, Sequence

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
            d = self.sequences[0].dim
            for seq in self.sequences:
                if seq.dim != d:
                    raise InvalidModelError("dataset mixes observation dimensions")

    @property
    def dim(self) -> int:
        return self.sequences[0].dim

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


def _malformed(exc: KeyError | TypeError, where: str) -> ModelFormatError:
    """A missing field (KeyError) or a field of the wrong JSON type
    (TypeError, e.g. a number where a list or an object belongs)."""
    if isinstance(exc, KeyError):
        return ModelFormatError(f"missing field {exc} in {where}")
    return ModelFormatError(f"malformed {where}: {exc}")


def _parse_gmm(payload: dict, where: str) -> GaussianMixture:
    try:
        comps = [Gaussian(c["mean"], c["cov"]) for c in payload["components"]]
        return GaussianMixture(payload["weights"], comps)
    except (KeyError, TypeError) as exc:
        raise _malformed(exc, where) from exc


def _parse_hmm(payload: dict, where: str) -> Hmm:
    try:
        emissions = [
            _parse_gmm(g, f"{where} emission {i}") for i, g in enumerate(payload["emissions"])
        ]
        return Hmm(payload["initial"], payload["transitions"], emissions)
    except (KeyError, TypeError) as exc:
        raise _malformed(exc, where) from exc


def save_model(model: Hmm | H3m, path: str | Path, seed: int | None = None) -> None:
    """Write a model as a versioned JSON document."""
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
        meta["seed"] = seed
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "metadata": meta, "payload": payload}
    path.write_text(json.dumps(doc, indent=1) + "\n")


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
        return _parse_hmm(payload, f"{path}")
    if kind == "h3m":
        try:
            components = [
                _parse_hmm(c, f"{path} component {i}")
                for i, c in enumerate(payload["components"])
            ]
            return H3m(payload["weights"], components)
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
            sequences.append(seq)
            labels.append(record.get("label"))
    if not sequences:
        raise ModelFormatError(f"{path}: dataset is empty")
    return SequenceDataset(sequences, labels)
