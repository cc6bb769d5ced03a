"""Tests of the benchmark harness itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import h3mkit as hk  # noqa: E402
from run import run_job  # noqa: E402
from tracing import Instrument, count_under, layer_self_times, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, above_chance, adjusted_rand, bit_equal, model_arrays, monotone, stochastic_rows,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        ("bench.job", 0.0, 10.0, -1),
        ("reduction.vhem_reduce", 1.0, 7.0, 0),
        ("reduction.estep_pair", 2.0, 3.0, 1),
        ("gaussians.expected_loglik_table", 2.25, 2.75, 2),
        ("reduction.estep_pair", 4.0, 6.0, 1),
        ("serialize.save_model", 8.0, 9.5, 0),
    ]
    calls, own = self_times(spans)
    assert calls == {"bench.job": 1, "reduction.vhem_reduce": 1, "reduction.estep_pair": 2,
                     "gaussians.expected_loglik_table": 1, "serialize.save_model": 1}
    assert own["bench.job"] == pytest.approx(10.0 - 6.0 - 1.5)
    assert own["reduction.vhem_reduce"] == pytest.approx(6.0 - 1.0 - 2.0)
    assert own["reduction.estep_pair"] == pytest.approx(0.5 + 2.0)
    assert own["gaussians.expected_loglik_table"] == pytest.approx(0.5)
    layers = layer_self_times(own)
    assert layers["reduction"] == pytest.approx(5.5)
    assert sum(layers.values()) == pytest.approx(10.0)  # self times partition the root
    assert count_under(spans, {"gaussians.expected_loglik_table"}, "reduction.vhem_reduce") == 1
    assert count_under(spans, {"serialize.save_model"}, "reduction.vhem_reduce") == 0


def test_instrument_rebinds_cross_module_functions_and_restores_them():
    original = hk.hmm._expected_stats
    assert hk.h3m._expected_stats is original
    with Instrument(timed=True) as inst:
        wrapped = hk.hmm._expected_stats
        assert wrapped is not original and hk.h3m._expected_stats is wrapped
        hk.rand_index([0, 0, 1], [1, 1, 0])
    assert hk.hmm._expected_stats is original and hk.h3m._expected_stats is original
    assert [s[0] for s in inst.finished_spans()] == ["hierarchy.rand_index"]


def test_checks_reject_corrupted_values():
    assert stochastic_rows("ok", [[0.25, 0.75], [1.0, 0.0]]) == []
    assert stochastic_rows("off", [[0.25, 0.75 + 1e-11]])
    assert stochastic_rows("negative", [[1.5, -0.5]])
    assert monotone("up", [-3.0, -2.0, -1.0], exempt=0) == []
    assert monotone("drop", [-3.0, -2.0, -2.5], exempt=0)
    assert monotone("excused drop", [-3.0, -2.0, -2.5], exempt=1) == []
    a = [np.array([0.1, 0.2])]
    assert bit_equal(a, [a[0].copy()])
    assert not bit_equal(a, [np.nextafter(a[0], 1.0)])


def test_adjusted_rand_separates_recovered_from_shuffled_labels():
    truth = np.repeat(np.arange(4), 250)
    assert adjusted_rand(truth, truth) == pytest.approx(1.0)
    assert adjusted_rand((truth + 1) % 4, truth) == pytest.approx(1.0)  # renamed clusters
    shuffled = np.random.default_rng(0).permutation(truth)
    assert abs(adjusted_rand(shuffled, truth)) < 0.01
    assert above_chance(shuffled, truth)
    merged = np.where(truth == 1, 0, truth)  # one merged pair: Rand index 0.875
    assert adjusted_rand(merged, truth) > 0.5 and not above_chance(merged, truth)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_check_catches_corrupted_output(name, tmp_path):
    workload = WORKLOADS[name]
    cfg = dict(workload.sizes["smoke"])
    prob = workload.make(hk, cfg, 5, 0, tmp_path)
    job = run_job(hk, workload, cfg, prob, timed=False)
    assert job["failed"] == 0, job["errors"]
    assert job["attempted"] > 0
    out = job["out"]

    # Labels that carry no information about the planted groups fail.
    labels = out["labels"]
    out["labels"] = [0] * len(labels)
    assert any("adjusted rand" in e for errs in workload.check(hk, cfg, prob, out).values() for e in errs)
    out["labels"] = labels
    assert not any(workload.check(hk, cfg, prob, out).values())

    # A model row that no longer sums to 1 is caught.
    model = out["fit"].model if name == "em-diag" else (
        out["final"] if name == "pipeline-full" else out["levels"][1].models)
    model.components[0].transitions[0] *= 1.0 + 1e-9
    fails = workload.check(hk, cfg, prob, out)
    assert any("transitions" in e for errs in fails.values() for e in errs)


def test_model_arrays_cover_every_parameter(tmp_path):
    prob = WORKLOADS["hier-diag"].make(hk, WORKLOADS["hier-diag"].sizes["smoke"], 1, 0, tmp_path)
    leaves = prob.inputs["leaves"]
    hmm = leaves.components[0]
    per_hmm = 2 + hmm.n_states * (1 + 2 * hmm.n_mix)
    assert len(model_arrays(leaves)) == 1 + leaves.n_components * per_hmm


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_named_metric(name, trace):
    done = _run(["--workload", name, "--seed", "2", "--seconds", "1", "--trace", str(trace),
                 "--size", "smoke"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "em-diag", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
