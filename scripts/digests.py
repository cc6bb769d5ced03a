"""Seeded digests of the library's public entry points: "seeded outputs are
bit-identical" as a command.

    python scripts/digests.py                 # one SHA-256 per returned array
    python scripts/digests.py --against DIR   # the arrays that differ in DIR

Run from a source checkout: the library is imported from the ``src/`` next
to this script. ``CASES`` is the fixed list of seeded calls, each a name and
a call that takes the ``h3mkit`` module; every array of what a call returns
is digested under the call's name and its path in the result. With
``--against DIR`` the same list runs in a subprocess on the library under
``DIR/src``, and the names whose arrays differ are printed with their
largest absolute change, and that change relative to the largest magnitude
in the other tree's array; the exit status is 1 if any differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _rng(seed):
    return np.random.default_rng(seed)


def _leaves(hk, layout, dim, seed=1, groups=2, per_group=3, n_states=2, n_mix=2):
    return hk.synth_benchmark(groups, per_group, 4.0, _rng(seed), n_states=n_states,
                              n_mix=n_mix, dim=dim, cov_type=layout)[0]


def _sequences(hk, layout, dim, tau=8):
    dataset, _ = hk.synth_benchmark(2, 6, 4.0, _rng(2), n_states=2, n_mix=1, dim=dim, tau=tau,
                                    cov_type=layout, kind="sequences")
    return dataset.sequences


def _mixed(hk, layout, dim):
    """Sequences of three lengths, interleaved: several length groups per pass."""
    return [hk.Sequence(s.observations[: 6 + i % 3])
            for i, s in enumerate(_sequences(hk, layout, dim, tau=9))]


def _constant(hk, layout):
    """Two-dimensional sequences whose second coordinate is constant: the
    start's variance there is the floor."""
    return [hk.Sequence(np.column_stack([obs[:, 0], np.full(len(obs), 3.0)]))
            for obs in (s.observations for s in _sequences(hk, layout, 2))]


def _base(hk, layout, dim, groups=2, per_group=3):
    leaves = _leaves(hk, layout, dim, groups=groups, per_group=per_group)
    return hk.H3m(np.full(len(leaves), 1 / len(leaves)), leaves)


def _em(hk, layout, **knobs):
    return hk.EmConfig(**{"cov_type": layout, "max_iters": 6, **knobs})


def _vhem(hk, k_reduced, **knobs):
    return hk.VhemConfig(k_reduced, **{"max_iters": 6, "tol": 0.0, **knobs})


def _layout_cases(layout):
    """The seeded calls of one covariance layout, as (name, call) pairs."""
    cases = []
    for d in (1, 2, 3):
        tag = f"{layout}-d{d}"
        cases += [
            (f"synth-hmms-{tag}", lambda hk, d=d: hk.synth_benchmark(
                2, 3, 4.0, _rng(1), n_states=2, n_mix=2, dim=d, cov_type=layout)),
            (f"synth-sequences-{tag}", lambda hk, d=d: hk.synth_benchmark(
                2, 3, 4.0, _rng(2), n_states=2, n_mix=2, dim=d, tau=8, cov_type=layout,
                kind="sequences")),
            (f"sample-batch-{tag}", lambda hk, d=d: hk.sample_batch(
                _leaves(hk, layout, d)[0], 12, 5, _rng(3))),
            (f"forward-loglik-batch-{tag}", lambda hk, d=d: hk.forward_loglik_batch(
                _leaves(hk, layout, d)[1], hk.sample_batch(_leaves(hk, layout, d)[4], 12, 5,
                                                           _rng(4))[0])),
            (f"mc-expected-loglik-{tag}", lambda hk, d=d: hk.mc_expected_loglik(
                *_leaves(hk, layout, d)[:2], 8, 200, _rng(5))),
            (f"h3m-em-k3-{tag}", lambda hk, d=d: hk.h3m_em(
                _sequences(hk, layout, d), 3, 2, 1, _em(hk, layout), _rng(6))),
            (f"vhem-subset-perturb-{tag}", lambda hk, d=d: hk.vhem_reduce(
                _base(hk, layout, d), _vhem(hk, 2, seed=7))),
        ]
    tag = f"{layout}-d2"
    return cases + [
        (f"baum-welch-{tag}", lambda hk: hk.baum_welch(
            _sequences(hk, layout, 2), 2, 2, _em(hk, layout), _rng(8))),
        (f"h3m-em-k1-{tag}", lambda hk: hk.h3m_em(
            _sequences(hk, layout, 2), 1, 2, 1, _em(hk, layout), _rng(9))),
        (f"h3m-em-k3-starts3-{tag}", lambda hk: hk.h3m_em(
            _sequences(hk, layout, 2), 3, 2, 1, _em(hk, layout, n_starts=3), _rng(10))),
        (f"h3m-em-k1-starts3-{tag}", lambda hk: hk.h3m_em(
            _sequences(hk, layout, 2), 1, 2, 1, _em(hk, layout, n_starts=3), _rng(11))),
        (f"h3m-em-mixed-lengths-{tag}", lambda hk: hk.h3m_em(
            _mixed(hk, layout, 2), 2, 2, 1, _em(hk, layout), _rng(12))),
        (f"h3m-em-reseeds-{tag}", lambda hk: hk.h3m_em(
            hk.synth_benchmark(2, 15, 8.0, _rng(0), n_states=1, dim=2, tau=10, cov_type=layout,
                               kind="sequences")[0].sequences,
            5, 1, 1, _em(hk, layout, max_iters=15), _rng(2))),
        (f"h3m-em-constant-coordinate-{tag}", lambda hk: hk.h3m_em(
            _constant(hk, layout), 2, 2, 1, _em(hk, layout, cov_floor=1e-3), _rng(13))),
        (f"vhem-random-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 2, seed=14, init="random"))),
        (f"vhem-starts3-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 2, seed=15, n_starts=3))),
        (f"vhem-random-starts3-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 2, seed=16, n_starts=3, init="random"))),
        (f"vhem-rescues-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2, groups=4, per_group=5), _vhem(hk, 6, seed=0, max_iters=10))),
        (f"vhem-floor-2-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 3, seed=17, cov_floor=2.0))),
        (f"vhem-random-floor-2-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 3, seed=18, cov_floor=2.0, init="random"))),
        (f"vhem-given-start-{tag}", lambda hk: hk.vhem_reduce(
            _base(hk, layout, 2), _vhem(hk, 2, init=hk.H3m(
                [0.5, 0.5], [_leaves(hk, layout, 2)[i] for i in (0, 5)])))),
        (f"hier-cluster-{tag}", lambda hk: hk.hier_cluster(
            _leaves(hk, layout, 2, groups=3, per_group=3), [3, 2, 1], _vhem(hk, 3, seed=19))),
        (f"split-estimate-aggregate-{tag}", lambda hk: hk.split_estimate_aggregate(
            _sequences(hk, layout, 2), 2, 2, 2, 2, 1, _em(hk, layout),
            _vhem(hk, 2, seed=20), seed=21)),
    ]


# The fixed list: a change that adds an entry point adds its calls here.
CASES = dict(_layout_cases("diag") + _layout_cases("full"))


def _flatten(name: str, value, out: dict) -> None:
    """Every array (or number) of ``value`` into ``out``, under its path."""
    if isinstance(value, (np.ndarray, int, float, np.number)):
        out[name] = np.asarray(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{name}[{key}]", value[key], out)
    elif hasattr(value, "_asdict"):  # a stack of parameter arrays
        for key, field in value._asdict().items():
            _flatten(f"{name}.{key}", field, out)
    elif isinstance(value, (list, tuple)):
        if value and all(isinstance(v, (int, float, np.number)) for v in value):
            out[name] = np.asarray(value)
        else:
            for index, item in enumerate(value):
                _flatten(f"{name}[{index}]", item, out)
    elif dataclasses.is_dataclass(value) or hasattr(value, "__dict__"):
        keys = ([f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value)
                else list(vars(value)))
        for key in keys:
            _flatten(f"{name}.{key}", getattr(value, key), out)


def arrays(names=None) -> dict[str, np.ndarray]:
    """The arrays of the named cases (all of ``CASES`` if None), by path."""
    import h3mkit

    out: dict[str, np.ndarray] = {}
    for name in names if names is not None else CASES:
        _flatten(name, CASES[name](h3mkit), out)
    return out


def digests(names=None) -> dict[str, str]:
    """One SHA-256 per array of the named cases, over its dtype, shape and bytes."""
    return {
        path: hashlib.sha256(
            f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
        ).hexdigest()
        for path, a in arrays(names).items()
    }


def _changes(here: dict, there: dict) -> list[str]:
    """One line per array that differs: its path and largest change."""
    lines = []
    for path in sorted(here.keys() | there.keys()):
        if path not in here or path not in there:
            lines.append(f"{path}  only {'here' if path in here else 'there'}")
            continue
        a, b = here[path], there[path]
        if a.shape != b.shape or a.dtype != b.dtype:
            lines.append(f"{path}  {a.dtype}{a.shape} here, {b.dtype}{b.shape} there")
        elif a.tobytes() != b.tobytes():
            a, b = a.astype(float), b.astype(float)
            with np.errstate(invalid="ignore", over="ignore"):
                moved = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
            scale = np.nanmax(np.abs(b), initial=0.0)
            lines.append(f"{path}  max_abs={np.nanmax(moved):.3g}"
                         f" max_rel={np.nanmax(moved) / scale if scale else np.inf:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second source tree to run the same list on")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import h3mkit

    if Path(h3mkit.__file__).resolve().parent != (args.src / "h3mkit").resolve():
        raise SystemExit(f"error: imported h3mkit from {h3mkit.__file__}, not {args.src}")
    if args.dump is not None:
        np.savez(args.dump, **arrays())
        return 0
    if args.against is None:
        for path, digest in digests().items():
            print(digest, path)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        dump = Path(scratch) / "there.npz"
        subprocess.run([sys.executable, __file__, "--src", str(args.against / "src"),
                        "--dump", str(dump)], check=True)
        with np.load(dump) as there:
            changes = _changes(arrays(), dict(there))
    print("\n".join(changes) if changes else "no difference")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
