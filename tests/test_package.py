"""The public surface: every exported name resolves, once, and names that
were removed from the library stay gone. Models enter as arrays only:
emission objects are built from arrays in one place, only for the
``Hmm.emissions`` output view, which no library code reads. Every count
argument is checked, naming itself, before anything is drawn or fitted."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import h3mkit
import h3mkit.gaussians
import h3mkit.h3m
import h3mkit.hierarchy
import h3mkit.hmm
import h3mkit.reduction

REMOVED = {
    h3mkit: [
        "EmissionResponsibility", "gmm_responsibilities", "gmm_expected_loglik_bound",
        "h3m_sample", "h3m_loglik", "h3m_loglik_batch", "sample", "lower_bound",
        "gauss_expected_loglik", "expected_loglik_table", "SummaryStats", "summary_stats",
        "forward_loglik", "compute_assignments", "mstep", "gmm_expected_loglik_opt",
        "solve_softmax_log", "estep_pair", "elhmm_bruteforce", "state_marginals",
        "best_label_accuracy", "PairEstepResult",
    ],
    h3mkit.gaussians: [
        "EmissionResponsibility", "gmm_responsibilities", "gmm_expected_loglik_bound",
        "gauss_expected_loglik", "expected_loglik_table", "gmm_expected_loglik_opt",
        "solve_softmax_log",
    ],
    h3mkit.h3m: ["h3m_sample", "h3m_loglik", "h3m_loglik_batch"],
    h3mkit.hierarchy: ["best_label_accuracy", "_max_matching"],
    h3mkit.hmm: [
        "sample", "forward_loglik", "state_marginals", "_joined", "_gaussian_terms",
        "_log_forward", "_log_posteriors", "_log_emissions",
    ],
    h3mkit.reduction: [
        "lower_bound", "SummaryStats", "summary_stats", "_summary", "_virtual_stats",
        "estep_pair", "elhmm_bruteforce",
    ],
}
REMOVED_METHODS = {
    h3mkit.Gaussian: ["log_density", "sample", "log_det"],
    h3mkit.GaussianMixture: ["log_density", "sample"],
    h3mkit.Hmm: ["from_arrays"],
    h3mkit.SequenceDataset: ["dim"],
    h3mkit.hmm._Stats: ["concatenate"],
}


def test_all_resolves_without_duplicates_and_removed_names_are_gone():
    exported = h3mkit.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert getattr(h3mkit, name) is not None, name
    namespace: dict = {}
    exec("from h3mkit import *", namespace)
    assert set(exported) <= set(namespace)
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in exported
    for cls, names in REMOVED_METHODS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


# Removed because only tests and the enumeration oracle called them, or
# moved into the tests' conftest as oracles: no module of the library names
# them, in code or in prose.
UNREFERENCED = [
    "gmm_expected_loglik_opt", "solve_softmax_log", "elhmm_bruteforce", "estep_pair",
    "best_label_accuracy", "state_marginals",
]


def test_no_module_refers_to_the_removed_oracle_helpers():
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        text = path.read_text()
        for name in UNREFERENCED:
            assert name not in text, f"{path.name} refers to {name}"


# The dependencies in pyproject.toml; scipy is for the tests only.
DEPENDENCIES = {"numpy", "click"}


def test_library_imports_only_its_dependencies():
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                allowed = top in sys.stdlib_module_names or top in DEPENDENCIES | {"h3mkit"}
                assert allowed, f"{path.name} imports {module}"


def test_emission_objects_built_only_by_the_emissions_view():
    # Models are built and checked as arrays (hmm._check_arrays), files
    # included: the only code that builds Gaussian or GaussianMixture objects
    # is hmm._mixtures, the only code that calls it is Hmm.emissions, and no
    # library code reads that view.
    callers: dict[str, set] = {"Gaussian": set(), "GaussianMixture": set(), "_mixtures": set()}
    readers = set()
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.stem}.{scope}")
                if isinstance(child, ast.Attribute) and child.attr == "emissions":
                    readers.add(f"{path.stem}.{scope}")
                visit(child, inner)

        visit(tree, "")
    assert callers == {
        "Gaussian": {"hmm._mixtures"},
        "GaussianMixture": {"hmm._mixtures"},
        "_mixtures": {"hmm.Hmm.emissions"},
    }
    assert readers == set()


def test_mixture_em_iteration_written_once():
    # Both estimators run h3m._em: only it assigns items and tests
    # convergence, and the reduction binds neither function.
    for name in ("compute_assignments", "_converged"):
        assert not hasattr(h3mkit.reduction, name), name
    callers: dict[str, set] = {"compute_assignments": set(), "_converged": set()}
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(f"{path.stem}.{function.name}")
    assert callers == {"compute_assignments": {"h3m._em"}, "_converged": {"h3m._em"}}


def test_one_gaussian_kernel():
    # gaussians._cross_terms is the library's one Gaussian log-density code,
    # for points and Gaussians alike: no other module names its constant or
    # solves against a covariance factor, and both estimators reach it
    # through the one mixture step, gaussians._mixture_terms. One softmax
    # from a normalizer, gaussians._responsibilities, gives eta, the mixture
    # responsibilities and state posteriors of the data side, and z.
    callers: dict[str, set] = {
        "_cross_terms": set(), "_mixture_terms": set(), "_responsibilities": set(),
    }
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name != "gaussians.py":
            for node in ast.walk(tree):
                names = set()
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names |= {node.attr, ast.unparse(node)}
                assert not names & {"LOG_2PI", "np.linalg.solve"}, path.name
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                        callers[node.func.id].add(f"{path.stem}.{function.name}")
    assert callers == {
        "_cross_terms": {"gaussians._mixture_terms"},
        "_mixture_terms": {"hmm._block_stats", "reduction._estep"},
        "_responsibilities": {
            "hmm._log_pass", "hmm._block_stats", "reduction._estep",
            "h3m.compute_assignments",
        },
    }


def test_one_emission_statistics_kernel():
    # gaussians._emission_stats contracts the emission weights with the
    # samples for both estimators (observations as points, base Gaussians as
    # virtual samples), and gaussians._outer is the one outer product of
    # means or observations, which gaussians._gaussian_update also subtracts
    # in the M-step. So hmm and reduction branch on no covariance layout to
    # build a statistic, multiply no array by itself, and keep only the
    # einsum of weighted_sum, which sums items.
    callers: dict[str, set] = {"_emission_stats": set(), "_outer": set()}
    einsums, branches, squares = set(), set(), set()
    statistics = {"hmm._block_stats", "reduction._virtual_stats_all"}

    def root(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return ast.unparse(node)

    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            where = f"{path.stem}.{function.name}"
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(where)
                if path.stem not in ("hmm", "reduction"):
                    continue
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.einsum":
                    einsums.add(node.args[0].value)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    if root(node.left) == root(node.right):
                        squares.add(where)
                if where in statistics and isinstance(node, (ast.If, ast.IfExp)):
                    if ".ndim" in ast.unparse(node.test):
                        branches.add(where)
    assert callers == {
        "_emission_stats": statistics,
        "_outer": statistics | {"gaussians._gaussian_update"},
    }
    assert einsums == {"sk,sk...->k..."}
    assert not squares and not branches


def test_one_covariance_module():
    # gaussians alone tells a diagonal covariance from a full one, by one
    # rule, gaussians._full: a covariance with one more axis than its mean
    # is a matrix. No other module calls np.linalg or reads the ndim of a
    # covariance or of a second moment; in gaussians only _full reads it, and
    # the checks, the kernel, the M-step's update, the draw and the callers
    # of the floor ask it. A cov_type names a layout in one place, where
    # variances become a covariance (gaussians._covariance).
    def reads_layout(node):
        if isinstance(node, ast.Attribute) and node.attr == "ndim":
            target = node.value
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "np.ndim":
            target = node.args[0]
        else:
            return False
        return any(name in ast.unparse(target) for name in ("cov", "sq", "second"))

    linalg, readers, deciders, branches = set(), set(), set(), set()
    callers: set[str] = set()
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.linalg."):
                linalg.add(path.stem)
            if reads_layout(node):
                readers.add(path.stem)
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            where = f"{path.stem}.{function.name}"
            for node in ast.walk(function):
                if reads_layout(node):
                    deciders.add(where)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_full":
                    callers.add(where)
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(isinstance(o, ast.Constant) and o.value in ("diag", "full")
                           for o in operands):
                        branches.add(where)
    assert linalg == {"gaussians"} and readers == {"gaussians"}
    assert deciders == {"gaussians._full"}
    assert branches == {"gaussians._covariance"}
    assert callers == {
        "gaussians._layout", "gaussians._check_emissions", "gaussians._check_pair",
        "gaussians._cross_terms", "gaussians._gaussian_update", "gaussians._draw",
        "hmm._block_stats", "reduction._virtual_stats_all", "h3m._em", "h3m.floored",
    }


def test_one_floor_for_starts_and_repairs():
    # h3m._em floors the start and every repair's rows, for both estimators,
    # as gaussians' M-step update floors every update: outside gaussians,
    # gaussians._floor_covs has one call site, in _em.
    sites = []
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        if path.name == "gaussians.py":
            continue
        for function in ast.parse(path.read_text()).body:
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_floor_covs":
                    sites.append(f"{path.stem}.{getattr(function, 'name', '')}")
    assert sites == ["h3m._em"]


def test_one_log_domain_pass():
    # The data side runs one log-domain recursion, hmm._log_pass (forward,
    # and backward when statistics are built): in hmm only it calls
    # logsumexp, and hmm._block_stats alone chooses it for the rows that
    # leave the scaled pass.
    callers: dict[str, set] = {"logsumexp": set(), "_log_pass": set()}
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    name = getattr(getattr(node, "func", None), "id", None)
                    if isinstance(node, ast.Call) and name in callers:
                        callers[name].add(f"{path.stem}.{function.name}")
    assert {c for c in callers["logsumexp"] if c.startswith("hmm.")} == {"hmm._log_pass"}
    assert callers["_log_pass"] == {"hmm._block_stats"}


def test_starts_spawned_in_one_place():
    # Both estimators compete their seeded starts through h3m._best_start,
    # the only code that spawns generators.
    spawners = set()
    for path in Path(h3mkit.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "spawn":
                        spawners.add(f"{path.stem}.{function.name}")
    assert spawners == {"h3m._best_start"}


def one_state_hmm(mean):
    return h3mkit.Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]])


BASE, REDUCED = one_state_hmm(0.0), one_state_hmm(1.0)
LEAVES = [one_state_hmm(mean) for mean in (0.0, 0.5, 5.0, 5.5)]
SEQS = [h3mkit.Sequence(np.array([[0.0], [1.0], [3.0]]) + 4.0 * i) for i in range(4)]
EM = h3mkit.EmConfig(max_iters=2)
VHEM = h3mkit.VhemConfig(1, max_iters=2)

# The message, a call taking the count and a generator, a bad count, and a
# good one, which is passed as a numpy integer.
COUNT_PROBES = [
    ("seed must be an integer, got 2.5", lambda v, rng: h3mkit.VhemConfig(2, seed=v), 2.5, 0),
    ("seed must be >= 0, got -1", lambda v, rng: h3mkit.VhemConfig(2, seed=v), -1, 0),
    ("k must be an integer, got 2.5", lambda v, rng: h3mkit.h3m_em(SEQS, v, 1, 1, EM, rng),
     2.5, 2),
    ("n_states must be an integer, got 1.5",
     lambda v, rng: h3mkit.h3m_em(SEQS, 2, v, 1, EM, rng), 1.5, 1),
    ("n_mix must be an integer, got 1.5",
     lambda v, rng: h3mkit.h3m_em(SEQS, 2, 1, v, EM, rng), 1.5, 1),
    ("n_groups must be an integer, got 2.5",
     lambda v, rng: h3mkit.synth_benchmark(v, 2, 4.0, rng), 2.5, 2),
    ("n_groups must be >= 2, got 1", lambda v, rng: h3mkit.synth_benchmark(v, 2, 4.0, rng), 1, 2),
    ("per_group must be an integer, got 2.5",
     lambda v, rng: h3mkit.synth_benchmark(2, v, 4.0, rng), 2.5, 2),
    ("dim must be an integer, got 1.5",
     lambda v, rng: h3mkit.synth_benchmark(2, 2, 4.0, rng, dim=v, kind="sequences"), 1.5, 1),
    ("tau must be an integer, got 2.5",
     lambda v, rng: h3mkit.synth_benchmark(2, 2, 4.0, rng, tau=v, kind="sequences"), 2.5, 3),
    ("n_portions must be an integer, got 2.5",
     lambda v, rng: h3mkit.split_estimate_aggregate(SEQS, v, 1, 1, 1, 1, EM, VHEM), 2.5, 2),
    ("per_portion_k must be an integer, got 1.5",
     lambda v, rng: h3mkit.split_estimate_aggregate(SEQS, 2, v, 1, 1, 1, EM, VHEM), 1.5, 1),
    ("seed must be >= 0, got -1",
     lambda v, rng: h3mkit.split_estimate_aggregate(SEQS, 2, 1, 1, 1, 1, EM, VHEM, v), -1, 0),
    ("ladder[0] must be an integer, got 2.5",
     lambda v, rng: h3mkit.hier_cluster(LEAVES, [v], VHEM), 2.5, 2),
    ("tau must be an integer, got 2.5", lambda v, rng: h3mkit.sample_batch(BASE, v, 3, rng),
     2.5, 3),
    ("size must be an integer, got 2.5", lambda v, rng: h3mkit.sample_batch(BASE, 3, v, rng),
     2.5, 3),
    ("size must be >= 1, got -1", lambda v, rng: h3mkit.sample_batch(BASE, 3, v, rng), -1, 3),
    ("n_samples must be an integer, got 2.5",
     lambda v, rng: h3mkit.mc_expected_loglik(BASE, REDUCED, 3, v, rng), 2.5, 2),
]


# The knobs both estimators' configs share, each bad value with its message.
SHARED_KNOB_PROBES = [
    ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
    ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
    ({"n_starts": 0}, "n_starts must be >= 1, got 0"),
    ({"n_starts": "3"}, "n_starts must be an integer, got '3'"),
    ({"tol": -1.0}, "need tol >= 0 and 0 < cov_floor < inf"),
    ({"tol": np.nan}, "need tol >= 0 and 0 < cov_floor < inf"),
    ({"cov_floor": 0.0}, "need tol >= 0 and 0 < cov_floor < inf"),
    ({"cov_floor": np.inf}, "need tol >= 0 and 0 < cov_floor < inf"),
]


@pytest.mark.parametrize(
    "config", [h3mkit.EmConfig, lambda **knobs: h3mkit.VhemConfig(2, **knobs)],
    ids=["EmConfig", "VhemConfig"],
)
def test_shared_knobs_rejected_alike(config):
    for bad, message in SHARED_KNOB_PROBES:
        with pytest.raises(ValueError) as info:
            config(**bad)
        assert str(info.value) == message, bad
    assert config(max_iters=np.int64(3), n_starts=np.int8(2)).n_starts == 2


@pytest.mark.parametrize(
    "message, call, bad, good", COUNT_PROBES, ids=[probe[0] for probe in COUNT_PROBES]
)
def test_count_arguments_rejected_by_name_before_any_draw(message, call, bad, good):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        call(bad, rng)
    assert str(info.value) == message
    assert rng.bit_generator.state == state
    call(np.int64(good), rng)
