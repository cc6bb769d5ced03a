"""End-to-end CLI runs: command wiring, report files, reproducibility of the
non-timing reports, exit codes, and environment-variable overrides."""

import json
import warnings

import pytest
from click.testing import CliRunner

import h3mkit.cli as cli_module
from h3mkit import H3m, Hmm, VhemConfig, hier_cluster, load_model, save_model, vhem_reduce
from h3mkit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def two_leaf_mixture(tmp_path):
    """A valid two-component mixture file."""
    path = tmp_path / "leaves.json"
    save_model(H3m([0.5, 0.5], [
        Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]])
        for mean in (0.0, 3.0)
    ]), path)
    return path


def run_ok(runner, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def assert_missing_file_is_error_line(runner, tmp_path, flag):
    """A missing input file given to ``flag`` is one error line and exit 1,
    not a traceback."""
    missing = str(tmp_path / "nope.json")
    leaves = str(two_leaf_mixture(tmp_path))
    args = {
        "--model": ["reduce", "--model", missing, "--kr", "2"],
        "--data": ["train-h3m", "--data", missing, "--k", "2", "--states", "1"],
        "--init-file": [
            "reduce", "--model", leaves, "--kr", "2", "--init", "file", "--init-file", missing,
        ],
        "--labels-a": ["eval-rand", "--labels-a", missing, "--labels-b", missing],
        "--base": ["mc-oracle", "--base", missing, "--reduced", leaves],
    }[flag]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "nope.json" in errors[0], result.output


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

    @pytest.mark.parametrize("command", ["reduce", "hier", "split-pipeline"])
    def test_reports_reproducible_excluding_timings(self, runner, tmp_path, command):
        synth_dir = tmp_path / "synth"
        kind = "sequences" if command == "split-pipeline" else "hmms"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "4", "--separation", "4",
            "--kind", kind, "--tau", "8", "--out", str(synth_dir), "--seed", "3",
        ])
        args, reports = {
            "reduce": (
                ["--model", str(synth_dir / "leaves.json"), "--kr", "2"],
                ["reduced.json", "reduce_trace.csv", "reduce_assignments.csv"],
            ),
            "hier": (
                ["--model", str(synth_dir / "leaves.json"), "--ladder", "4,2"],
                ["hier_parents.csv", "hier_leaf_labels.csv", "level1_k4.json", "level2_k2.json"],
            ),
            "split-pipeline": (
                ["--data", str(synth_dir / "dataset.jsonl"), "--portions", "2",
                 "--portion-k", "2", "--kr", "2", "--states", "2", "--max-iters", "5"],
                ["final.json", "pipeline_trace.csv", "pipeline_portions.csv"],
            ),
        }[command]
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, [command, *args, "--out", str(out), "--seed", "7"])
            outputs.append(out)
        if command == "hier":
            assert sorted(p.name for p in outputs[0].glob("level*.json")) == reports[2:]
        for fname in reports:
            assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()

    def test_starts_reach_reduce_and_hier(self, runner, tmp_path):
        # --starts is the config's n_starts: reduce keeps the best of three
        # reductions and hier the best of two per level, as the library does.
        synth_dir = tmp_path / "synth"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "4", "--separation", "4",
            "--kind", "hmms", "--tau", "8", "--out", str(synth_dir), "--seed", "3",
        ])
        leaves = str(synth_dir / "leaves.json")
        base = load_model(leaves)
        common = ["--max-iters", "5", "--seed", "7"]
        run_ok(runner, ["reduce", "--model", leaves, "--kr", "2", "--starts", "3", *common,
                        "--out", str(tmp_path / "red")])
        trace = (tmp_path / "red" / "reduce_trace.csv").read_text().splitlines()[1:]
        expected = vhem_reduce(base, VhemConfig(2, max_iters=5, seed=7, n_starts=3))
        single = vhem_reduce(base, VhemConfig(2, max_iters=5, seed=7))
        assert [float(line.split(",")[1]) for line in trace] == expected.bound_history
        assert expected.bound_history != single.bound_history
        run_ok(runner, ["hier", "--model", leaves, "--ladder", "4,2", "--starts", "2", *common,
                        "--out", str(tmp_path / "hier")])
        levels = hier_cluster(base, [4, 2], VhemConfig(1, max_iters=5, seed=7, n_starts=2))
        for depth, name in ((1, "level1_k4.json"), (2, "level2_k2.json")):
            written = load_model(tmp_path / "hier" / name)
            assert written.weights.tobytes() == levels[depth].models.weights.tobytes()
            for array, other in zip(written.arrays, levels[depth].models.arrays):
                assert array.tobytes() == other.tobytes()

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
        assert_missing_file_is_error_line(runner, tmp_path, "--model")

    @pytest.mark.parametrize("flag", ["--data", "--init-file", "--labels-a", "--base"])
    def test_missing_input_file_is_validation_error(self, runner, tmp_path, flag):
        assert_missing_file_is_error_line(runner, tmp_path, flag)

    def test_dataset_dimension_mismatch_is_error_line(self, runner, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"obs": [[0.0, 1.0], [1.0, 0.0]]}\n{"obs": [[0.0], [1.0]]}\n')
        result = runner.invoke(main, [
            "train-hmm", "--data", str(data), "--states", "1", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "data.jsonl:2: " in errors[0], result.output
        assert "dimension 1, expected 2" in errors[0], result.output

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
            Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]])
            for mean in (0.0, 1e200)
        ])
        save_model(model, leaves)
        result = runner.invoke(main, [
            "reduce", "--model", str(leaves), "--kr", "2", "--max-iters", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2, result.output
        assert "numerical failure: pair objectives must be finite" in result.output

    @pytest.mark.parametrize("extra", [[], ["--virtual-samples", "1"]], ids=["scaled", "moments"])
    def test_means_near_the_float_range_exit_code_2(self, runner, tmp_path, extra):
        # Legal leaves whose pair objectives overflow to -inf when scaled by
        # the virtual mass, or, with one virtual sample, whose second moments
        # overflow in the M-step: a numerical failure, not bad input.
        leaves = tmp_path / "far.json"
        save_model(H3m([0.5, 0.5], [
            Hmm([1.0], [[1.0]], [[1.0]], [[[mean, 0.0]]], [[[1.0, 1.0]]])
            for mean in (1.5e154, 1.52e154)
        ]), leaves)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "reduce", "--model", str(leaves), "--kr", "1", "--max-iters", "3",
                "--out", str(tmp_path / "o"), *extra,
            ])
        assert result.exit_code == 2, result.output
        assert result.output.count("numerical failure: ") == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_observations_too_large_to_square_exit_code_2(self, runner, tmp_path):
        # Valid input (finite values) that no estimate can be built from.
        data = tmp_path / "huge.jsonl"
        data.write_text("\n".join(
            json.dumps({"id": str(i), "obs": [[float(i)], [1e200 if i == 0 else -1.0], [2.0]]})
            for i in range(6)
        ) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "train-h3m", "--data", str(data), "--k", "2", "--states", "1",
                "--out", str(tmp_path / "o"),
            ])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["numerical failure: observations too large to square"]

    def test_floor_lost_to_rounding_exit_code_2(self, runner, tmp_path):
        # 1e6 * default_rng(0).normal(size=(2, 2)): two points leave a
        # singular covariance with entries near 1e12, where cov_floor is below
        # the rounding. A numerical failure, not a validation error.
        data = tmp_path / "far.jsonl"
        data.write_text(
            '{"obs": [[125730.2210933933, -132104.86329130188],'
            " [640422.6504432821, 104900.11715303971]]}\n"
        )
        result = runner.invoke(main, [
            "train-hmm", "--data", str(data), "--states", "1", "--cov-type", "full",
            "--max-iters", "8", "--tol", "0", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), result.output

    @pytest.mark.parametrize(
        "option", [("--cov-floor", "nan"), ("--cov-floor", "inf"), ("--tol", "nan")]
    )
    def test_nan_or_infinite_floor_and_nan_tol_rejected(self, runner, tmp_path, option):
        data = tmp_path / "data.jsonl"
        data.write_text('{"obs": [[0.0], [1.0], [3.0]]}\n')
        result = runner.invoke(main, [
            "train-hmm", "--data", str(data), "--states", "1", *option,
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: need tol >= 0 and 0 < cov_floor < inf"]

    def test_mixed_layout_mixture_rejected(self, runner, tmp_path):
        # One diagonal and one full component: rejected when the file is
        # read, before any report is written.
        path = tmp_path / "mixed.json"
        docs = []
        for cov in ([1.0], [[1.0]]):
            hmm = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[cov]])
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
        hmm = Hmm(
            [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]], [[[0.0]], [[3.0]]],
            [[[1.0]], [[1.0]]],
        )
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
                Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[[1.0]]])
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

    @pytest.mark.parametrize(
        "ladder, message",
        [
            (",", "ladder must list at least one level size"),
            ("", "ladder must list at least one level size"),
            ("0", "ladder[0] must be >= 1, got 0"),
        ],
        ids=["comma", "empty", "zero"],
    )
    def test_ladder_without_sizes_rejected(self, runner, tmp_path, ladder, message):
        # hier_cluster's checks are the only ones, so each error names the ladder.
        path = two_leaf_mixture(tmp_path)
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "hier", "--model", str(path), "--ladder", ladder, "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_init_file_without_init_file_rejected(self, runner, tmp_path):
        # An --init-file that --init does not read would be ignored silently.
        path = two_leaf_mixture(tmp_path)
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "reduce", "--model", str(path), "--kr", "1", "--init-file", str(path),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: --init-file requires --init file"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["single-hmm-model", "init-without-file", "ladder-not-integer", "oracle-mixture"]
    )
    def test_wrong_model_kind_or_option_is_one_error_line(self, runner, tmp_path, case):
        leaves = str(two_leaf_mixture(tmp_path))
        hmm = tmp_path / "hmm.json"
        save_model(Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], [[[1.0]]]), hmm)
        args, message = {
            "single-hmm-model": (
                ["reduce", "--model", str(hmm), "--kr", "1"],
                f"{hmm} holds a single HMM; reduce needs a mixture",
            ),
            "init-without-file": (
                ["reduce", "--model", leaves, "--kr", "1", "--init", "file"],
                "--init file requires --init-file",
            ),
            "ladder-not-integer": (
                ["hier", "--model", leaves, "--ladder", "2,x"],
                "bad --ladder '2,x': invalid literal for int() with base 10: 'x'",
            ),
            "oracle-mixture": (
                ["mc-oracle", "--base", leaves, "--reduced", leaves],
                "mc-oracle expects single-HMM model files",
            ),
        }[case]
        out = tmp_path / "o"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_synth_zero_states_rejected(self, runner, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "synth", "--groups", "2", "--per-group", "2", "--states", "0", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: n_states must be >= 1, got 0"]
        assert not out.exists()

    @pytest.mark.parametrize("size", ["--k", "--states", "--mix"])
    def test_zero_size_rejected(self, runner, tmp_path, size):
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"id": str(i), "obs": [[float(i)], [1.0], [2.0 * i]]}) + "\n"
            for i in range(4)
        ))
        sizes = {"--k": "2", "--states": "2", "--mix": "1", size: "0"}
        result = runner.invoke(main, [
            "train-h3m", "--data", str(data), *[a for item in sizes.items() for a in item],
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        name = {"--k": "k", "--states": "n_states", "--mix": "n_mix"}[size]
        assert result.output.splitlines() == [f"error: {name} must be >= 1, got 0"]

    def test_reduce_with_too_few_weighted_components(self, runner, tmp_path):
        leaves = tmp_path / "leaves.json"
        save_model(H3m([0.5, 0.5, 0.0, 0.0, 0.0, 0.0], [
            Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]])
            for mean in range(6)
        ]), leaves)
        result = runner.invoke(main, [
            "reduce", "--model", str(leaves), "--kr", "3", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "error: reduction needs k_reduced=3 base components with nonzero weight, found 2"
        ]

    @pytest.mark.parametrize(
        "args, env, fragment",
        [
            (["train-h3m", "--data", "d.jsonl", "--k", "2.5", "--states", "2"], {}, "'--k'"),
            (["train-h3m", "--data", "d.jsonl", "--k", "2", "--states", "2", "--tol", "abc"], {},
             "'--tol'"),
            (["reduce", "--model", "m.json"], {}, "'--kr'"),
            (["bogus"], {}, "'bogus'"),
            (["reduce", "--model", "m.json"], {"H3MKIT_REDUCE_KR": "abc"},
             "environment variable H3MKIT_REDUCE_KR"),
            (["reduce", "--model", "m.json", "--kr", "2", "--restarts", "3"], {},
             "--restarts"),
        ],
        ids=["fractional-k", "non-numeric-tol", "missing-kr", "unknown-command", "bad-env-value",
             "removed-restarts"],
    )
    def test_usage_errors_exit_code_1(self, runner, tmp_path, args, env, fragment):
        # Malformed, missing or unknown options and commands are bad input:
        # exit 1 with one error line, as for a bad file, not click's exit 2.
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")], env=env)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output
        assert fragment in lines[0], result.output
        assert not (tmp_path / "o").exists()

    def test_restarts_from_a_given_start_rejected(self, runner, tmp_path):
        # A given start draws nothing, so its starts would repeat one run.
        path = two_leaf_mixture(tmp_path)
        out = tmp_path / "o"
        result = runner.invoke(main, [
            "reduce", "--model", str(path), "--kr", "2", "--init", "file",
            "--init-file", str(path), "--starts", "3", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "error: n_starts=3 from a given start repeats one run"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "train-hmm", "train-h3m", "reduce", "reduce-restarts", "hier", "synth", "eval-rand",
        "mc-oracle", "split-pipeline",
    ])
    def test_failed_command_leaves_no_output_directory(self, runner, tmp_path, command):
        # The output directory is made with the first report, after the inputs
        # are loaded and the work is done.
        missing = str(tmp_path / "missing.jsonl")
        leaves = str(two_leaf_mixture(tmp_path))
        args = {
            "train-hmm": ["train-hmm", "--data", missing, "--states", "2"],
            "train-h3m": ["train-h3m", "--data", missing, "--k", "2", "--states", "2"],
            "reduce": ["reduce", "--model", missing, "--kr", "2"],
            "reduce-restarts": [
                "reduce", "--model", leaves, "--kr", "2", "--init", "file",
                "--init-file", leaves, "--starts", "3",
            ],
            "hier": ["hier", "--model", missing, "--ladder", "2"],
            "synth": ["synth", "--groups", "1", "--per-group", "2"],
            "eval-rand": ["eval-rand", "--labels-a", missing, "--labels-b", missing],
            "mc-oracle": ["mc-oracle", "--base", missing, "--reduced", missing],
            "split-pipeline": [
                "split-pipeline", "--data", missing, "--portions", "2", "--portion-k", "1",
                "--kr", "1", "--states", "1",
            ],
        }[command]
        out = tmp_path / "o1"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: "), result.output
        assert not out.exists()

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
    def test_bad_environment_value_names_the_variable(self, runner, tmp_path, monkeypatch):
        # The rejected value came from H3MKIT_REDUCE_KR, not from a typed --kr;
        # a typed value is named by its option even when the variable is set.
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["reduce", "--model", "m.json"],
                               env={"H3MKIT_REDUCE_KR": "abc"})
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "error: Invalid value for environment variable H3MKIT_REDUCE_KR:"
            " 'abc' is not a valid integer."
        ]
        result = runner.invoke(main, ["reduce", "--model", "m.json", "--kr", "abc"],
                               env={"H3MKIT_REDUCE_KR": "2"})
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "error: Invalid value for '--kr': 'abc' is not a valid integer."
        ]

    def test_starts_from_environment_reach_both_pipeline_configs(
        self, runner, tmp_path, monkeypatch
    ):
        # One --starts sets the portion fits' and the reduction's n_starts.
        data_dir = tmp_path / "data"
        run_ok(runner, [
            "synth", "--groups", "2", "--per-group", "6", "--separation", "10",
            "--kind", "sequences", "--tau", "8", "--out", str(data_dir), "--seed", "2",
        ])
        seen, pipeline = [], cli_module.split_estimate_aggregate

        def recording(*args):
            em_config, vhem_config = args[6:8]
            seen.append((em_config.n_starts, vhem_config.n_starts))
            return pipeline(*args)

        monkeypatch.setattr(cli_module, "split_estimate_aggregate", recording)
        run_ok(runner, [
            "split-pipeline", "--data", str(data_dir / "dataset.jsonl"), "--portions", "2",
            "--portion-k", "2", "--kr", "2", "--states", "2", "--max-iters", "3",
            "--out", str(tmp_path / "pipe"),
        ], env={"H3MKIT_SPLIT_PIPELINE_STARTS": "2"})
        assert seen == [(2, 2)]

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
