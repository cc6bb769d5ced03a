"""The three benchmark workloads: seeded inputs, the timed job, output checks.

Each job repeats what one CLI command does, through the public library API:
- ``hier-diag``: ``h3mkit hier`` on a diagonal-covariance leaf mixture.
  Data-free side: VHEM reduction and the diagonal Gaussian cross terms.
- ``em-diag``: ``h3mkit train-h3m`` on raw sequences. Data side: forward and
  forward-backward passes and the mixture responsibilities.
- ``pipeline-full``: ``h3mkit split-pipeline`` in full covariance: many small
  EM fits, a small VHEM, and dataset and model files written and read back.

A run holds several problems, each generated from (seed, problem index), so
that the quality figures average over inputs rather than hang on one.
Every top-level library call in a job is one operation; it fails if it
raises or if one of the checks below fails for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances of the library's own contract (see tests/test_acceptance.py).
STOCHASTIC_TOL = 1e-12
MONOTONE_RTOL = 1e-8
# Labels must beat chance by this adjusted Rand index. Labels shuffled against
# the inputs score about 0. The worst problem h3mkit 0.1.0 produced while the
# workloads were sized scored 0.44: Rand index 0.805, four of eight groups merged.
MIN_ARI = 0.1


@dataclass
class Problem:
    index: int
    seed: int  # algorithm seed handed to the library
    truth: list  # planted group of every leaf or sequence
    inputs: dict
    workdir: Path


class Ops:
    """Log of the top-level library calls a job made, in order."""

    def __init__(self):
        self.names: list[str] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        self.names.append(name)
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def model_arrays(model) -> list[np.ndarray]:
    """Every parameter array of an Hmm or H3m, in a fixed order."""
    hmms = model.components if hasattr(model, "components") else [model]
    arrays = [model.weights] if hasattr(model, "components") else []
    for hmm in hmms:
        arrays += [hmm.initial, hmm.transitions]
        for gmm in hmm.emissions:
            arrays.append(gmm.weights)
            for g in gmm.components:
                arrays += [g.mean, g.cov]
    return arrays


def bit_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


def dataset_equal(a, b) -> bool:
    return (
        [s.id for s in a.sequences] == [s.id for s in b.sequences]
        and list(a.labels) == list(b.labels)
        and bit_equal([s.observations for s in a.sequences], [s.observations for s in b.sequences])
    )


def stochastic_rows(name: str, matrix) -> list[str]:
    """Failures for rows that are negative or do not sum to 1 within 1e-12."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    bad = np.any(rows < 0, axis=1) | (np.abs(rows.sum(axis=1) - 1.0) > STOCHASTIC_TOL)
    return [f"{name}: {int(bad.sum())} rows not stochastic"] if bad.any() else []


def model_stochastic(name: str, model) -> list[str]:
    hmms = model.components if hasattr(model, "components") else [model]
    out = stochastic_rows(f"{name} weights", model.weights) if hasattr(model, "components") else []
    for k, hmm in enumerate(hmms):
        out += stochastic_rows(f"{name}[{k}] initial", hmm.initial)
        out += stochastic_rows(f"{name}[{k}] transitions", hmm.transitions)
        out += stochastic_rows(
            f"{name}[{k}] emission weights", np.stack([g.weights for g in hmm.emissions])
        )
    return out


def monotone(name: str, trace: list[float], exempt: int) -> list[str]:
    """Failures if the trace drops (beyond 1e-8 relative) more than ``exempt``
    times. Rescues and reseeds are reported only as counts, not by iteration,
    so each one excuses one drop."""
    values = np.asarray(trace, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return [f"{name}: empty or non-finite trace"]
    drops = int(np.sum(np.diff(values) < -MONOTONE_RTOL * np.abs(values[:-1])))
    return [f"{name}: {drops} drops, {exempt} excused"] if drops > exempt else []


def adjusted_rand(labels, truth) -> float:
    """Rand index corrected for chance (Hubert & Arabie 1985): 0 for labels
    independent of the truth, 1 for the same partition."""
    _, a = np.unique(np.asarray(labels), return_inverse=True)
    _, b = np.unique(np.asarray(truth), return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)
    pairs = lambda x: x * (x - 1) / 2.0  # noqa: E731
    index = pairs(table).sum()
    rows, cols = pairs(table.sum(axis=1)).sum(), pairs(table.sum(axis=0)).sum()
    expected = rows * cols / pairs(float(len(a)))
    top = (rows + cols) / 2.0
    return 0.0 if top == expected else float((index - expected) / (top - expected))


def above_chance(labels, truth) -> list[str]:
    ari = adjusted_rand(labels, truth)
    return [] if ari >= MIN_ARI else [f"adjusted rand index {ari!r} below {MIN_ARI}"]


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: sizes, input generation, the timed job and its checks.

    ``job`` gets ``results``: the return values of the functions in
    tracing.KEEP called during the job.
    """

    name = ""
    sizes: dict[str, dict] = {}

    def make(self, hk, cfg: dict, seed: int, index: int, workdir: Path) -> Problem:
        raise NotImplementedError

    def job(self, hk, cfg: dict, prob: Problem, ops: Ops, results: dict) -> dict:
        raise NotImplementedError

    def check(self, hk, cfg: dict, prob: Problem, out: dict) -> dict[str, list[str]]:
        raise NotImplementedError


def _problem_rng(seed: int, index: int) -> tuple[np.random.Generator, int]:
    rng = np.random.default_rng([seed, index])
    return rng, int(rng.integers(2**31 - 1))


class HierDiag(Workload):
    name = "hier-diag"
    sizes = {
        "full": dict(groups=8, per_group=16, separation=4.0, states=3, mix=2, dim=2,
                     ladder=[8, 2], vhem_iters=2, problems=4),
        "smoke": dict(groups=2, per_group=3, separation=4.0, states=2, mix=1, dim=2,
                      ladder=[2, 1], vhem_iters=2, problems=1),
    }

    def make(self, hk, cfg, seed, index, workdir):
        rng, algo_seed = _problem_rng(seed, index)
        leaves, truth = hk.synth_benchmark(
            cfg["groups"], cfg["per_group"], cfg["separation"], rng,
            n_states=cfg["states"], n_mix=cfg["mix"], dim=cfg["dim"], cov_type="diag",
        )
        mixture = hk.H3m(np.full(len(leaves), 1.0 / len(leaves)), leaves)
        path = workdir / "leaves.json"
        hk.save_model(mixture, path, seed=algo_seed)
        return Problem(index, algo_seed, truth.tolist(), {"leaves": mixture, "path": path}, workdir)

    def job(self, hk, cfg, prob, ops, results):
        base = ops("load_model", hk.load_model, prob.inputs["path"])
        config = hk.VhemConfig(
            k_reduced=cfg["ladder"][0], max_iters=cfg["vhem_iters"], tol=0.0, seed=prob.seed
        )
        levels = ops("hier_cluster", hk.hier_cluster, list(base.components), cfg["ladder"], config)
        paths = []
        for depth, level in enumerate(levels[1:], start=1):
            path = prob.workdir / f"level{depth}_k{level.level_size}.json"
            ops(f"save_model:level{depth}", hk.save_model, level.models, path, seed=prob.seed)
            paths.append(path)
        labels = ops("leaf_labels", hk.leaf_labels, levels, 1)
        rand = ops("rand_index", hk.rand_index, labels, prob.truth)
        reductions = results["reduction.vhem_reduce"]
        return {
            "base": base, "levels": levels, "paths": paths, "labels": labels,
            "reductions": list(reductions), "rand_index": rand,
            "objective": reductions[0].bound_history[-1],
            "files": [prob.inputs["path"]] + paths,
        }

    def check(self, hk, cfg, prob, out):
        fails = {}
        fails["load_model"] = (
            [] if bit_equal(model_arrays(out["base"]), model_arrays(prob.inputs["leaves"]))
            else ["leaf model file does not round-trip bit for bit"]
        )
        errs = []
        if len(out["reductions"]) != len(cfg["ladder"]):
            errs.append(f"{len(out['reductions'])} reductions for ladder {cfg['ladder']}")
        for depth, red in enumerate(out["reductions"], start=1):
            errs += monotone(f"level {depth} bound", red.bound_history, red.rescues)
            errs += stochastic_rows(f"level {depth} assignments", red.assignments.z)
        for depth, level in enumerate(out["levels"][1:], start=1):
            errs += model_stochastic(f"level {depth}", level.models)
            if level.models.n_components != cfg["ladder"][depth - 1]:
                errs.append(f"level {depth} has {level.models.n_components} components")
        errs += above_chance(out["labels"], prob.truth)
        fails["hier_cluster"] = errs
        for depth, path in enumerate(out["paths"], start=1):
            same = bit_equal(model_arrays(hk.load_model(path)), model_arrays(out["levels"][depth].models))
            fails[f"save_model:level{depth}"] = [] if same else [f"{path.name} does not round-trip"]
        n_leaves = cfg["groups"] * cfg["per_group"]
        labels = out["labels"]
        fails["leaf_labels"] = (
            [] if len(labels) == n_leaves and set(labels) <= set(range(cfg["ladder"][0]))
            else ["leaf labels out of range"]
        )
        fails["rand_index"] = [] if 0.0 <= out["rand_index"] <= 1.0 else ["rand index outside [0, 1]"]
        return fails


class EmDiag(Workload):
    name = "em-diag"
    sizes = {
        "full": dict(groups=4, per_group=250, separation=4.0, states=3, mix=2, dim=2, tau=50,
                     k=4, em_iters=3, problems=3),
        "smoke": dict(groups=2, per_group=6, separation=4.0, states=2, mix=1, dim=2, tau=8,
                      k=2, em_iters=2, problems=1),
    }

    def make(self, hk, cfg, seed, index, workdir):
        rng, algo_seed = _problem_rng(seed, index)
        dataset, truth = hk.synth_benchmark(
            cfg["groups"], cfg["per_group"], cfg["separation"], rng,
            n_states=cfg["states"], n_mix=cfg["mix"], dim=cfg["dim"], tau=cfg["tau"],
            cov_type="diag", kind="sequences",
        )
        path = workdir / "dataset.jsonl"
        hk.save_dataset(dataset, path)
        return Problem(index, algo_seed, truth.tolist(), {"dataset": dataset, "path": path}, workdir)

    def job(self, hk, cfg, prob, ops, results):
        dataset = ops("load_dataset", hk.load_dataset, prob.inputs["path"])
        config = hk.EmConfig(max_iters=cfg["em_iters"], tol=0.0, cov_type="diag")
        fit = ops(
            "h3m_em", hk.h3m_em, dataset.sequences, cfg["k"], cfg["states"], cfg["mix"],
            config, np.random.default_rng(prob.seed),
        )
        path = prob.workdir / "h3m.json"
        ops("save_model", hk.save_model, fit.model, path, seed=prob.seed)
        labels = fit.hard_labels.tolist()
        rand = ops("rand_index", hk.rand_index, labels, prob.truth)
        return {
            "dataset": dataset, "fit": fit, "path": path, "labels": labels, "rand_index": rand,
            "objective": fit.loglik_trace[-1], "files": [prob.inputs["path"], path],
        }

    def check(self, hk, cfg, prob, out):
        fit = out["fit"]
        errs = monotone("log-likelihood", fit.loglik_trace, fit.reseeds)
        errs += stochastic_rows("posteriors", fit.posteriors)
        errs += model_stochastic("model", fit.model)
        if fit.n_iters != cfg["em_iters"]:
            errs.append(f"{fit.n_iters} iterations, expected {cfg['em_iters']}")
        errs += above_chance(out["labels"], prob.truth)
        same_model = bit_equal(model_arrays(hk.load_model(out["path"])), model_arrays(fit.model))
        return {
            "load_dataset": [] if dataset_equal(out["dataset"], prob.inputs["dataset"])
            else ["dataset file does not round-trip bit for bit"],
            "h3m_em": errs,
            "save_model": [] if same_model else ["model file does not round-trip"],
            "rand_index": [] if 0.0 <= out["rand_index"] <= 1.0 else ["rand index outside [0, 1]"],
        }


class PipelineFull(Workload):
    name = "pipeline-full"
    sizes = {
        "full": dict(groups=4, per_group=150, separation=4.0, states=3, mix=2, dim=3, tau=30,
                     portions=4, portion_k=4, final_k=4, em_iters=3, vhem_iters=3,
                     problems=3),
        "smoke": dict(groups=2, per_group=8, separation=4.0, states=2, mix=1, dim=2, tau=8,
                      portions=2, portion_k=2, final_k=2, em_iters=2, vhem_iters=2,
                      problems=1),
    }

    def make(self, hk, cfg, seed, index, workdir):
        rng, algo_seed = _problem_rng(seed, index)
        dataset, truth = hk.synth_benchmark(
            cfg["groups"], cfg["per_group"], cfg["separation"], rng,
            n_states=cfg["states"], n_mix=cfg["mix"], dim=cfg["dim"], tau=cfg["tau"],
            cov_type="full", kind="sequences",
        )
        # Contiguous portions would each hold one group; shuffle so they mix.
        order = rng.permutation(len(dataset))
        shuffled = hk.SequenceDataset(
            [dataset.sequences[i] for i in order], [dataset.labels[i] for i in order]
        )
        return Problem(index, algo_seed, truth[order].tolist(), {"dataset": shuffled}, workdir)

    def job(self, hk, cfg, prob, ops, results):
        path = prob.workdir / "dataset.jsonl"
        ops("save_dataset", hk.save_dataset, prob.inputs["dataset"], path)
        dataset = ops("load_dataset", hk.load_dataset, path)
        final, report = ops(
            "split_estimate_aggregate", hk.split_estimate_aggregate,
            dataset.sequences, cfg["portions"], cfg["portion_k"], cfg["final_k"],
            cfg["states"], cfg["mix"],
            hk.EmConfig(max_iters=cfg["em_iters"], tol=0.0, cov_type="full"),
            hk.VhemConfig(k_reduced=cfg["final_k"], max_iters=cfg["vhem_iters"], tol=0.0,
                          seed=prob.seed),
            seed=prob.seed,
        )
        model_path = prob.workdir / "final.json"
        ops("save_model", hk.save_model, final, model_path, seed=prob.seed)
        loaded = ops("load_model", hk.load_model, model_path)
        obs = np.stack([seq.observations for seq in dataset.sequences])
        per_comp = np.stack(
            [ops(f"forward_loglik_batch:{j}", hk.forward_loglik_batch, comp, obs)
             for j, comp in enumerate(loaded.components)],
            axis=1,
        )
        with np.errstate(divide="ignore"):
            labels = np.argmax(per_comp + np.log(loaded.weights)[None, :], axis=1).tolist()
        rand = ops("rand_index", hk.rand_index, labels, prob.truth)
        return {
            "dataset": dataset, "final": final, "loaded": loaded, "report": report, "labels": labels,
            "per_comp": per_comp, "fits": list(results["h3m.h3m_em"]),
            "reductions": list(results["reduction.vhem_reduce"]), "rand_index": rand,
            "objective": report.bound_history[-1],
            "files": [path, path, model_path, model_path],  # each written, then read
        }

    def check(self, hk, cfg, prob, out):
        errs = []
        if len(out["fits"]) != cfg["portions"] or len(out["reductions"]) != 1:
            errs.append(f"{len(out['fits'])} portion fits and {len(out['reductions'])} reductions")
        for p, fit in enumerate(out["fits"]):
            errs += monotone(f"portion {p} log-likelihood", fit.loglik_trace, fit.reseeds)
            errs += stochastic_rows(f"portion {p} posteriors", fit.posteriors)
            errs += model_stochastic(f"portion {p} model", fit.model)
        for red in out["reductions"]:
            errs += monotone("pipeline bound", red.bound_history, red.rescues)
            errs += stochastic_rows("pipeline assignments", red.assignments.z)
        errs += model_stochastic("final", out["final"])
        errs += above_chance(out["labels"], prob.truth)
        fails = {
            "save_dataset": [],
            "load_dataset": [] if dataset_equal(out["dataset"], prob.inputs["dataset"])
            else ["dataset file does not round-trip bit for bit"],
            "split_estimate_aggregate": errs,
            "save_model": [],
            "load_model": [] if bit_equal(model_arrays(out["loaded"]), model_arrays(out["final"]))
            else ["model file does not round-trip bit for bit"],
            "rand_index": [] if 0.0 <= out["rand_index"] <= 1.0 else ["rand index outside [0, 1]"],
        }
        finite = np.all(np.isfinite(out["per_comp"]))
        for j in range(out["per_comp"].shape[1]):
            fails[f"forward_loglik_batch:{j}"] = [] if finite else ["non-finite log-likelihoods"]
        return fails


WORKLOADS = {w.name: w for w in (HierDiag(), EmDiag(), PipelineFull())}
