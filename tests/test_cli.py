"""End-to-end CLI runs: command wiring, report files, reproducibility of the
non-timing reports, exit codes, and environment-variable overrides."""

import json

import pytest
from click.testing import CliRunner

from h3mkit import Gaussian, GaussianMixture, H3m, Hmm, load_model, save_model
from h3mkit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSynthAndTrain:
    def test_synth_hmms_and_reduce(self, runner, tmp_path):
        synth_dir = tmp_path / "synth"
        run_ok(runner, [
            "synth", "--groups", "4", "--per-group", "5", "--separation", "4",
            "--kind", "hmms", "--out", str(synth_dir), "--seed", "0",
        ])
        assert (synth_dir / "leaves.json").exists()
        assert (synth_dir / "synth_labels.csv").exists()
        leaves = load_model(synth_dir / "leaves.json")
        assert isinstance(leaves, H3m) and leaves.n_components == 20

        reduce_dir = tmp_path / "red"
        run_ok(runner, [
            "reduce", "--model", str(synth_dir / "leaves.json"), "--kr", "4",
            "--out", str(reduce_dir), "--seed", "0",
        ])
        for name in ("reduced.json", "reduce_trace.csv", "reduce_assignments.csv",
                     "reduce_timings.csv", "reduce.log"):
            assert (reduce_dir / name).exists()
        reduced = load_model(reduce_dir / "reduced.json")
        assert reduced.n_components == 4

    def test_reports_reproducible_excluding_timings(self, runner, tmp_path):
        synth_dir = tmp_path / "synth"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "4", "--separation", "4",
            "--kind", "hmms", "--out", str(synth_dir), "--seed", "3",
        ])
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, [
                "reduce", "--model", str(synth_dir / "leaves.json"), "--kr", "2",
                "--out", str(out), "--seed", "7",
            ])
            outputs.append(out)
        for fname in ("reduced.json", "reduce_trace.csv", "reduce_assignments.csv"):
            assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()

    def test_train_hmm_and_h3m(self, runner, tmp_path):
        data_dir = tmp_path / "data"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "10", "--separation", "10",
            "--kind", "sequences", "--tau", "12", "--out", str(data_dir), "--seed", "1",
        ])
        hmm_dir = tmp_path / "hmm"
        run_ok(runner, [
            "train-hmm", "--data", str(data_dir / "dataset.jsonl"), "--states", "2",
            "--out", str(hmm_dir), "--seed", "0",
        ])
        assert (hmm_dir / "hmm.json").exists()
        trace = (hmm_dir / "train_hmm_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loglik"
        lls = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b >= a - 1e-8 * abs(a) for a, b in zip(lls, lls[1:]))

        h3m_dir = tmp_path / "h3m"
        run_ok(runner, [
            "train-h3m", "--data", str(data_dir / "dataset.jsonl"), "--k", "2",
            "--states", "2", "--out", str(h3m_dir), "--seed", "0",
        ])
        assignments = (h3m_dir / "train_h3m_assignments.csv").read_text().splitlines()
        assert assignments[0].startswith("index,id,hard_label")
        assert len(assignments) == 21

    def test_hier_and_eval_rand(self, runner, tmp_path):
        synth_dir = tmp_path / "synth"
        run_ok(runner, [
            "synth", "--groups", "4", "--per-group", "5", "--separation", "4",
            "--kind", "hmms", "--out", str(synth_dir), "--seed", "0",
        ])
        hier_dir = tmp_path / "hier"
        run_ok(runner, [
            "hier", "--model", str(synth_dir / "leaves.json"), "--ladder", "4,2",
            "--out", str(hier_dir), "--seed", "0",
        ])
        assert (hier_dir / "level1_k4.json").exists()
        assert (hier_dir / "level2_k2.json").exists()
        labels = [
            line.split(",") for line in
            (hier_dir / "hier_leaf_labels.csv").read_text().splitlines()[1:]
        ]
        level1 = [row[2] for row in labels if row[0] == "1"]

        # Rand index of the k=4 level against the ground truth.
        pred_path = tmp_path / "pred.csv"
        pred_path.write_text("index,label\n" + "".join(
            f"{i},{lab}\n" for i, lab in enumerate(level1)
        ))
        rand_dir = tmp_path / "rand"
        result = run_ok(runner, [
            "eval-rand", "--labels-a", str(synth_dir / "synth_labels.csv"),
            "--labels-b", str(pred_path), "--out", str(rand_dir),
        ])
        value = float(result.output.strip().split("=")[1])
        assert value >= 0.95

    def test_mc_oracle(self, runner, tmp_path):
        synth_dir = tmp_path / "synth"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "1", "--separation", "4",
            "--kind", "hmms", "--out", str(synth_dir), "--seed", "0",
        ])
        leaves = load_model(synth_dir / "leaves.json")
        save_model(leaves.components[0], tmp_path / "a.json")
        save_model(leaves.components[1], tmp_path / "b.json")
        out = tmp_path / "mc"
        result = run_ok(runner, [
            "mc-oracle", "--base", str(tmp_path / "a.json"),
            "--reduced", str(tmp_path / "b.json"),
            "--tau", "5", "--samples", "5000", "--seed", "0", "--out", str(out),
        ])
        assert "mean=" in result.output
        assert (out / "mc.csv").exists()

    def test_split_pipeline(self, runner, tmp_path):
        data_dir = tmp_path / "data"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "12", "--separation", "10",
            "--kind", "sequences", "--tau", "10", "--out", str(data_dir), "--seed", "2",
        ])
        out = tmp_path / "pipe"
        run_ok(runner, [
            "split-pipeline", "--data", str(data_dir / "dataset.jsonl"),
            "--portions", "2", "--portion-k", "2", "--kr", "2", "--states", "2",
            "--out", str(out), "--seed", "0",
        ])
        assert (out / "final.json").exists()
        portions = (out / "pipeline_portions.csv").read_text().splitlines()
        assert portions[0] == "portion,size,loglik"
        assert len(portions) == 3

    def test_reduce_init_file(self, runner, tmp_path):
        # A provided start must share the base's covariance layout.
        for cov_type in ("diag", "full"):
            run_ok(runner, [
                "synth", "--groups", "2", "--per-group", "3", "--separation", "4",
                "--kind", "hmms", "--states", "2", "--mix", "2", "--dim", "2",
                "--cov-type", cov_type, "--out", str(tmp_path / cov_type), "--seed", "0",
            ])
            leaves = load_model(tmp_path / cov_type / "leaves.json")
            start = H3m([0.5, 0.5], [leaves.components[0], leaves.components[3]])
            save_model(start, tmp_path / f"init_{cov_type}.json")
        base = str(tmp_path / "diag" / "leaves.json")
        args = ["reduce", "--model", base, "--kr", "2", "--init", "file", "--max-iters", "3"]
        run_ok(runner, args + [
            "--init-file", str(tmp_path / "init_diag.json"), "--out", str(tmp_path / "ok"),
        ])
        assert load_model(tmp_path / "ok" / "reduced.json").n_components == 2
        result = runner.invoke(main, args + [
            "--init-file", str(tmp_path / "init_full.json"), "--out", str(tmp_path / "bad"),
        ])
        assert result.exit_code == 1
        assert "covariance layout" in result.output


class TestFailureModes:
    def test_missing_model_is_validation_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "reduce", "--model", str(tmp_path / "nope.json"), "--kr", "2",
            "--out", str(tmp_path),
        ])
        assert result.exit_code in (1, 2)

    def test_malformed_model_exit_code_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = runner.invoke(main, [
            "reduce", "--model", str(bad), "--kr", "2", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1

    def test_eval_rand_missing_column(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("index,notlabel\n0,x\n")
        result = runner.invoke(main, [
            "eval-rand", "--labels-a", str(a), "--labels-b", str(a),
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1

    def test_degenerate_training_data_exit_code_2(self, runner, tmp_path):
        data = tmp_path / "flat.jsonl"
        data.write_text(
            "\n".join(json.dumps({"id": str(i), "obs": [[0.0]] * 5}) for i in range(3)) + "\n"
        )
        result = runner.invoke(main, [
            "train-hmm", "--data", str(data), "--states", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2

    def test_non_finite_objectives_exit_code_2(self, runner, tmp_path):
        leaves = tmp_path / "leaves.json"
        model = H3m([0.5, 0.5], [
            Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([mean], [1.0])])])
            for mean in (0.0, 1e200)
        ])
        save_model(model, leaves)
        result = runner.invoke(main, [
            "reduce", "--model", str(leaves), "--kr", "2", "--max-iters", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2, result.output
        assert "numerical failure: pair objectives must be finite" in result.output

    def test_mixed_layout_mixture_rejected(self, runner, tmp_path):
        # One diagonal and one full component: rejected when the file is
        # read, before any report is written.
        path = tmp_path / "mixed.json"
        docs = []
        for cov in ([1.0], [[1.0]]):
            hmm = Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([0.0], cov)])])
            save_model(H3m([1.0], [hmm]), path)
            docs.append(json.loads(path.read_text()))
        docs[0]["payload"]["weights"] = [0.5, 0.5]
        docs[0]["payload"]["components"].append(docs[1]["payload"]["components"][0])
        path.write_text(json.dumps(docs[0]))
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "reduce", "--model", str(path), "--kr", "1", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert any(
            line.startswith("error:") and "full" in line and "diagonal" in line
            for line in result.output.splitlines()
        ), result.output
        assert not any(out.glob("*"))

    def test_nan_initial_distribution_rejected(self, runner, tmp_path):
        # json writes and reads NaN, so the model check is what stops it.
        path = tmp_path / "nan.json"
        hmm = Hmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [
            GaussianMixture([1.0], [Gaussian([mean], [1.0])]) for mean in (0.0, 3.0)
        ])
        save_model(H3m([0.5, 0.5], [hmm, hmm]), path)
        doc = json.loads(path.read_text())
        doc["payload"]["components"][0]["initial"] = [float("nan"), 1.0]
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "reduce", "--model", str(path), "--kr", "1", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "initial distribution sums to nan" in errors[0], result.output
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("case", ["model", "dataset"])
    def test_malformed_file_reports_error_line(self, runner, tmp_path, case):
        if case == "model":
            bad = tmp_path / "bad.json"
            model = H3m([1.0], [
                Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([0.0], [1.0])])])
            ])
            save_model(model, bad)
            doc = json.loads(bad.read_text())
            doc["payload"]["components"] = 5
            bad.write_text(json.dumps(doc))
            args = ["reduce", "--model", str(bad), "--kr", "1"]
        else:
            bad = tmp_path / "bad.jsonl"
            bad.write_text(json.dumps({"id": "a", "obs": [[0.0], [1.0]]}) + "\n5\n")
            args = ["train-hmm", "--data", str(bad), "--states", "1"]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        expected = "bad.json" if case == "model" else "bad.jsonl:2"
        assert any(
            line.startswith("error:") and expected in line for line in result.output.splitlines()
        ), result.output

    @pytest.mark.parametrize("command", ["reduce", "hier"])
    def test_cov_type_rejected_where_it_has_no_effect(self, runner, tmp_path, command):
        # Reduction keeps the covariance layout of its input mixture.
        target = ["--kr", "2"] if command == "reduce" else ["--ladder", "2"]
        result = runner.invoke(main, [
            command, "--model", str(tmp_path / "leaves.json"), *target,
            "--cov-type", "full", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code != 0
        assert "No such option" in result.output
        assert not (tmp_path / "o").exists()


class TestEnvOverrides:
    def test_seed_from_environment(self, runner, tmp_path):
        out_env = tmp_path / "env"
        run_ok(
            runner,
            ["synth", "--groups", "2", "--per-group", "2", "--kind", "hmms",
             "--out", str(out_env)],
            env={"H3MKIT_SYNTH_SEED": "123"},
        )
        out_flag = tmp_path / "flag"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "2", "--kind", "hmms",
            "--out", str(out_flag), "--seed", "123",
        ])
        assert (out_env / "leaves.json").read_bytes() == (out_flag / "leaves.json").read_bytes()
