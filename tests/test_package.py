"""The public surface: every exported name resolves, once, and names that
were removed from the library stay gone. Emission objects are built from
arrays in one place."""

import ast
from pathlib import Path

import h3mkit
import h3mkit.gaussians
import h3mkit.h3m
import h3mkit.hmm

REMOVED = {
    h3mkit: [
        "EmissionResponsibility", "gmm_responsibilities", "gmm_expected_loglik_bound",
        "h3m_sample", "h3m_loglik", "h3m_loglik_batch", "sample",
    ],
    h3mkit.gaussians: [
        "EmissionResponsibility", "gmm_responsibilities", "gmm_expected_loglik_bound",
    ],
    h3mkit.h3m: ["h3m_sample", "h3m_loglik", "h3m_loglik_batch"],
    h3mkit.hmm: ["sample"],
}
REMOVED_METHODS = {
    h3mkit.Gaussian: ["log_density", "sample", "log_det"],
    h3mkit.GaussianMixture: ["log_density", "sample"],
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


def test_emission_objects_built_only_by_one_array_builder_and_the_file_parser():
    # Every array-to-object conversion (Hmm.from_arrays and the Hmm.emissions
    # view) goes through hmm._mixtures; only the model-file parser builds the
    # objects from their own payload.
    callers = set()
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
                    if name in ("Gaussian", "GaussianMixture"):
                        callers.add(f"{path.stem}.{scope}")
                visit(child, inner)

        visit(tree, "")
    assert callers == {"hmm._mixtures", "serialize._parse_gmm"}
