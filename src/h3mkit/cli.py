"""Command-line surface.

Every command is a thin wrapper over the library: it loads inputs, runs one
operation, and writes machine-readable CSV reports (traces, assignments)
next to a human-readable log. Timings go to their own CSV so that all other
report files are byte-identical across runs with the same inputs and seeds.
Options can be overridden with environment variables prefixed H3MKIT_.

Exit codes: 0 success; 1 a bad input, which is a validation error or a
malformed, missing or unknown option, environment value or command; 2 a
numerical failure. The group (``_Commands``) reports either failure as one
line on stderr, ``error: ...`` or ``numerical failure: ...``. What click
rejects before a command name is read (a bare ``h3mkit``, ``h3mkit --bogus``)
keeps click's own output and exit code.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from pathlib import Path

import click
import numpy as np

from .errors import DegenerateWeightsError, EstimationError, InvalidModelError, ModelFormatError
from .h3m import H3m, baum_welch, h3m_em, mc_expected_loglik
from .hierarchy import hier_cluster, leaf_labels, rand_index
from .hmm import EmConfig, Hmm
from .pipeline import split_estimate_aggregate
from .reduction import VhemConfig, vhem_reduce
from .serialize import load_dataset, load_model, save_dataset, save_model
from .synth import synth_benchmark

_INPUT_ERRORS = (InvalidModelError, ModelFormatError, DegenerateWeightsError, ValueError, OSError)
_NUMERICAL_ERRORS = (EstimationError, FloatingPointError, np.linalg.LinAlgError)


class _Commands(click.Group):
    """The command group, where every command's failure becomes one line on
    stderr and an exit code: click's usage errors (a malformed, missing or
    unknown option or command) and bad inputs exit 1, numerical failures 2."""

    def invoke(self, ctx: click.Context):
        args = list(ctx.args)  # the command's own arguments, before they are consumed
        try:
            return super().invoke(ctx)
        except (click.UsageError, *_INPUT_ERRORS) as exc:
            if isinstance(exc, click.BadParameter):
                exc.param_hint = _environment_variable(exc, args) or exc.param_hint
            message = exc.format_message() if isinstance(exc, click.UsageError) else exc
            click.echo(f"error: {message}", err=True)
            sys.exit(1)
        except _NUMERICAL_ERRORS as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(2)


def _environment_variable(exc: click.BadParameter, args: list[str]) -> str | None:
    """The environment variable that gave the rejected option its value, or
    None if the value was typed or is a default. The source is decided again
    as click decides it, from the command's arguments, since click records
    it only once the value is accepted."""
    param, ctx = exc.param, exc.ctx
    if not isinstance(param, click.Option) or ctx is None:
        return None
    opts = ctx.command.make_parser(ctx).parse_args(args)[0]
    if param.consume_value(ctx, opts)[1] != click.core.ParameterSource.ENVIRONMENT:
        return None
    return f"environment variable {ctx.auto_envvar_prefix}_{param.name.upper()}"


_SHARED = {"max_iters": "max_iters", "tol": "tol", "cov_floor": "cov_floor", "n_starts": "starts"}


def _common_options(fn):
    """--seed, and the --max-iters, --tol, --cov-floor and --starts that reach the command
    only inside the config that ``_em_options`` or ``_vhem_options``, listed above it, builds."""

    @click.option("--seed", type=int, default=0, show_default=True)
    @click.option("--max-iters", type=int, default=100, show_default=True,
                  help="M-steps for train-hmm, train-h3m and the portion fits of"
                  " split-pipeline; E-steps for reduce, hier and the reduction in"
                  " split-pipeline.")
    @click.option("--tol", type=float, default=1e-6, show_default=True)
    @click.option("--cov-floor", type=float, default=1e-6, show_default=True)
    @click.option("--starts", type=int, default=1, show_default=True,
                  help="Competing seeded starts, best final objective kept (per level in"
                  " hier, per portion fit and for the reduction in split-pipeline).")
    @functools.wraps(fn)
    def wrapper(*, max_iters, tol, cov_floor, starts, **kwargs):
        return fn(**kwargs)

    return wrapper


# Commands that build models or data from scratch choose a covariance layout;
# `reduce` and `hier` keep the layout of the mixture they are given.
_cov_type_option = click.option(
    "--cov-type", type=click.Choice(["diag", "full"]), default="diag", show_default=True
)


def _em_options(fn):
    """--cov-type; the command gets ``em_config``, an EmConfig."""

    @_cov_type_option
    @functools.wraps(fn)
    def wrapper(*, cov_type, **kwargs):
        shared = {field: kwargs[name] for field, name in _SHARED.items()}
        return fn(em_config=EmConfig(**shared, cov_type=cov_type), **kwargs)

    return wrapper


def _vhem_options(fn):
    """--virtual-samples and --tau-virtual; the command gets ``vhem_config``,
    which makes a VhemConfig from ``k_reduced`` and ``init``."""

    @click.option("--virtual-samples", type=int, default=None, help="Total virtual sample mass.")
    @click.option("--tau-virtual", type=int, default=10, show_default=True)
    @functools.wraps(fn)
    def wrapper(*, virtual_samples, tau_virtual, **kwargs):
        vhem_config = functools.partial(
            VhemConfig, n_virtual=virtual_samples, tau_virtual=tau_virtual,
            seed=kwargs["seed"], **{field: kwargs[name] for field, name in _SHARED.items()},
        )
        return fn(vhem_config=vhem_config, **kwargs)

    return wrapper


def _load_mixture(path: str, command: str) -> H3m:
    model = load_model(path)
    if not isinstance(model, H3m):
        raise InvalidModelError(f"{path} holds a single HMM; {command} needs a mixture")
    return model


def _timed(fn, *args):
    """fn(*args), and its wall time in seconds."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _out_dir(out: str) -> Path:
    """The output directory, made when a command has its results and writes
    its first report, so a failed command leaves none behind."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_trace(path: Path, name: str, values: list[float]) -> None:
    _write_csv(path, ["iteration", name], [[i, v] for i, v in enumerate(values)])


def _write_timings(path: Path, entries: list[tuple[str, float]]) -> None:
    _write_csv(path, ["step", "seconds"], [[n, t] for n, t in entries])


def _write_log(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines))
    for line in lines:
        click.echo(line)


def _read_labels(path: str) -> list[str]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "label" not in reader.fieldnames:
            raise ModelFormatError(f"{path}: expected a CSV with a 'label' column")
        return [row["label"] for row in reader]


@click.group(cls=_Commands, context_settings={"auto_envvar_prefix": "H3MKIT"})
def main() -> None:
    """Estimate, reduce, and cluster hidden Markov mixture models."""


@main.command("train-hmm")
@click.option("--data", required=True, help="Dataset file (one JSON record per line).")
@click.option("--states", type=int, required=True, help="Number of hidden states.")
@click.option("--mix", type=int, default=1, show_default=True, help="Emission components per state.")
@click.option("--out", default=".", show_default=True, help="Output directory.")
@_em_options
@_common_options
def train_hmm(data, states, mix, out, seed, em_config):
    """Fit a single HMM to a dataset by maximum likelihood."""
    dataset = load_dataset(data)
    fit, elapsed = _timed(
        baum_welch, dataset.sequences, states, mix, em_config, np.random.default_rng(seed)
    )
    out_path = _out_dir(out)
    save_model(fit.model, out_path / "hmm.json", seed=seed)
    _write_trace(out_path / "train_hmm_trace.csv", "loglik", fit.loglik_trace)
    _write_timings(out_path / "train_hmm_timings.csv", [("fit", elapsed)])
    _write_log(
        out_path / "train_hmm.log",
        [
            f"sequences={len(dataset)} states={states} mix={mix} seed={seed}",
            f"iterations={fit.n_iters} final_loglik={fit.loglik_trace[-1]!r}",
            f"model written to {out_path / 'hmm.json'}",
        ],
    )


@main.command("train-h3m")
@click.option("--data", required=True)
@click.option("--k", type=int, required=True, help="Number of mixture components.")
@click.option("--states", type=int, required=True)
@click.option("--mix", type=int, default=1, show_default=True)
@click.option("--out", default=".", show_default=True)
@_em_options
@_common_options
def train_h3m(data, k, states, mix, out, seed, em_config):
    """Fit a K-component HMM mixture to a dataset."""
    dataset = load_dataset(data)
    fit, elapsed = _timed(
        h3m_em, dataset.sequences, k, states, mix, em_config, np.random.default_rng(seed)
    )
    out_path = _out_dir(out)
    save_model(fit.model, out_path / "h3m.json", seed=seed)
    _write_trace(out_path / "train_h3m_trace.csv", "loglik", fit.loglik_trace)
    header = ["index", "id", "hard_label"] + [f"posterior_{j}" for j in range(k)]
    rows = [
        [i, seq.id or str(i), int(fit.hard_labels[i])] + [float(p) for p in fit.posteriors[i]]
        for i, seq in enumerate(dataset.sequences)
    ]
    _write_csv(out_path / "train_h3m_assignments.csv", header, rows)
    _write_timings(out_path / "train_h3m_timings.csv", [("fit", elapsed)])
    _write_log(
        out_path / "train_h3m.log",
        [
            f"sequences={len(dataset)} k={k} states={states} mix={mix} seed={seed}",
            f"iterations={fit.n_iters} reseeds={fit.reseeds}"
            f" final_loglik={fit.loglik_trace[-1]!r}",
            f"model written to {out_path / 'h3m.json'}",
        ],
    )


@main.command("reduce")
@click.option("--model", required=True, help="Input mixture model file.")
@click.option("--kr", type=int, required=True, help="Number of reduced components.")
@click.option(
    "--init",
    type=click.Choice(["subset-perturb", "random", "file"]),
    default="subset-perturb",
    show_default=True,
)
@click.option("--init-file", default=None, help="Model file for --init file.")
@click.option("--out", default=".", show_default=True)
@_vhem_options
@_common_options
def reduce_cmd(model, kr, init, init_file, out, seed, vhem_config):
    """Reduce an HMM mixture to fewer components (cluster its HMMs)."""
    if init_file is not None and init != "file":
        raise ValueError("--init-file requires --init file")
    base = _load_mixture(model, "reduce")
    if init == "file":
        if init_file is None:
            raise ValueError("--init file requires --init-file")
        init = _load_mixture(init_file, "--init-file")
    result, elapsed = _timed(vhem_reduce, base, vhem_config(kr, init=init))
    out_path = _out_dir(out)
    save_model(result.reduced, out_path / "reduced.json", seed=seed)
    _write_trace(out_path / "reduce_trace.csv", "bound", result.bound_history)
    header = ["base_index", "hard_label"] + [f"z_{j}" for j in range(kr)]
    rows = [
        [i, int(result.hard_labels[i])] + [float(v) for v in result.assignments.z[i]]
        for i in range(base.n_components)
    ]
    _write_csv(out_path / "reduce_assignments.csv", header, rows)
    _write_timings(out_path / "reduce_timings.csv", [("reduce", elapsed)])
    _write_log(
        out_path / "reduce.log",
        [
            f"base_components={base.n_components} kr={kr} seed={seed}",
            f"iterations={len(result.bound_history)} rescues={result.rescues}"
            f" effective_k={result.effective_k}",
            f"final_bound={result.bound_history[-1]!r}",
            f"model written to {out_path / 'reduced.json'}",
        ],
    )


@main.command("hier")
@click.option("--model", required=True, help="Mixture file whose components are the leaves.")
@click.option("--ladder", required=True, help="Comma-separated level sizes, e.g. 4,2.")
@click.option("--out", default=".", show_default=True)
@_vhem_options
@_common_options
def hier(model, ladder, out, seed, vhem_config):
    """Hierarchically cluster the components of a mixture."""
    try:
        sizes = [int(part) for part in ladder.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"bad --ladder {ladder!r}: {exc}") from exc
    base = _load_mixture(model, "hier")
    # hier_cluster checks the sizes and sets each level's own k_reduced.
    levels, elapsed = _timed(hier_cluster, base, sizes, vhem_config(1))
    out_path = _out_dir(out)
    parent_rows = []
    label_rows = []
    for depth, level in enumerate(levels):
        if depth > 0:
            save_model(level.models, out_path / f"level{depth}_k{level.level_size}.json", seed=seed)
            for prev_idx in sorted(level.parent_of):
                parent_rows.append([depth, prev_idx, level.parent_of[prev_idx]])
        for leaf, lab in enumerate(leaf_labels(levels, depth)):
            label_rows.append([depth, leaf, lab])
    _write_csv(out_path / "hier_parents.csv", ["level", "prev_index", "parent_index"], parent_rows)
    _write_csv(out_path / "hier_leaf_labels.csv", ["level", "leaf_index", "label"], label_rows)
    _write_timings(out_path / "hier_timings.csv", [("hier", elapsed)])
    _write_log(
        out_path / "hier.log",
        [f"leaves={base.n_components} ladder={sizes} seed={seed}"]
        + [f"level {d}: k={lvl.level_size}" for d, lvl in enumerate(levels)],
    )


@main.command("synth")
@click.option("--groups", type=int, required=True)
@click.option("--per-group", type=int, required=True)
@click.option("--separation", type=float, default=4.0, show_default=True)
@click.option("--states", type=int, default=2, show_default=True)
@click.option("--mix", type=int, default=1, show_default=True)
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--tau", type=int, default=20, show_default=True)
@click.option(
    "--kind", type=click.Choice(["hmms", "sequences"]), default="hmms", show_default=True
)
@click.option("--out", default=".", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_cov_type_option
def synth(groups, per_group, separation, states, mix, dim, tau, kind, out, seed, cov_type):
    """Generate a seeded group-structured benchmark."""
    rng = np.random.default_rng(seed)
    produced, labels = synth_benchmark(
        groups, per_group, separation, rng,
        n_states=states, n_mix=mix, dim=dim, tau=tau, cov_type=cov_type, kind=kind,
    )
    out_path = _out_dir(out)
    if kind == "hmms":
        mixture = H3m(np.full(len(produced), 1.0 / len(produced)), produced)
        save_model(mixture, out_path / "leaves.json", seed=seed)
        target = out_path / "leaves.json"
    else:
        save_dataset(produced, out_path / "dataset.jsonl")
        target = out_path / "dataset.jsonl"
    _write_csv(out_path / "synth_labels.csv", ["index", "label"], list(enumerate(labels)))
    _write_log(
        out_path / "synth.log",
        [
            f"groups={groups} per_group={per_group} separation={separation}"
            f" kind={kind} seed={seed}",
            f"written to {target}",
        ],
    )


@main.command("eval-rand")
@click.option("--labels-a", required=True, help="CSV with a 'label' column.")
@click.option("--labels-b", required=True, help="CSV with a 'label' column.")
@click.option("--out", default=".", show_default=True)
def eval_rand(labels_a, labels_b, out):
    """Rand index between two labelings."""
    a = _read_labels(labels_a)
    b = _read_labels(labels_b)
    value = rand_index(a, b)
    out_path = _out_dir(out)
    _write_csv(out_path / "rand.csv", ["rand_index"], [[value]])
    click.echo(f"rand_index={value!r}")


@main.command("mc-oracle")
@click.option("--base", "base_path", required=True, help="HMM file to sample from.")
@click.option("--reduced", "reduced_path", required=True, help="HMM file to score.")
@click.option("--tau", type=int, default=10, show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=".", show_default=True)
def mc_oracle(base_path, reduced_path, tau, samples, seed, out):
    """Monte Carlo estimate of the expected log-likelihood between two HMMs."""
    base = load_model(base_path)
    reduced = load_model(reduced_path)
    if not isinstance(base, Hmm) or not isinstance(reduced, Hmm):
        raise InvalidModelError("mc-oracle expects single-HMM model files")
    mean, stderr = mc_expected_loglik(base, reduced, tau, samples, np.random.default_rng(seed))
    out_path = _out_dir(out)
    _write_csv(out_path / "mc.csv", ["mean", "stderr"], [[mean, stderr]])
    click.echo(f"mean={mean!r} stderr={stderr!r}")


@main.command("split-pipeline")
@click.option("--data", required=True)
@click.option("--portions", type=int, required=True)
@click.option("--portion-k", type=int, required=True)
@click.option("--kr", type=int, required=True, help="Final component count.")
@click.option("--states", type=int, required=True)
@click.option("--mix", type=int, default=1, show_default=True)
@click.option("--out", default=".", show_default=True)
@_vhem_options
@_em_options
@_common_options
def split_pipeline(data, portions, portion_k, kr, states, mix, out, seed, em_config, vhem_config):
    """Split the data, fit a mixture per portion, pool, and reduce."""
    dataset = load_dataset(data)
    (final, report), elapsed = _timed(
        split_estimate_aggregate, dataset.sequences, portions, portion_k, kr, states, mix,
        em_config, vhem_config(kr), seed,
    )
    out_path = _out_dir(out)
    save_model(final, out_path / "final.json", seed=seed)
    _write_csv(
        out_path / "pipeline_portions.csv",
        ["portion", "size", "loglik"],
        [[p, s, ll] for p, (s, ll) in enumerate(zip(report.portion_sizes, report.portion_logliks))],
    )
    _write_trace(out_path / "pipeline_trace.csv", "bound", report.bound_history)
    _write_timings(out_path / "pipeline_timings.csv", [("pipeline", elapsed)])
    _write_log(
        out_path / "pipeline.log",
        [
            f"sequences={len(dataset)} portions={portions} portion_k={portion_k}"
            f" kr={kr} seed={seed}",
            f"pooled_k={report.pooled_k} effective_k={report.effective_k}",
            f"final bound={report.bound_history[-1]!r}",
            f"model written to {out_path / 'final.json'}",
        ],
    )


if __name__ == "__main__":
    main()
