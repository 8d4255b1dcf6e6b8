"""The public surface of the package: what it no longer exports, and what
the benchmark harness reaches into."""

import ast
import importlib
from pathlib import Path

import pytest

import henneberg
from henneberg import bjorling_solve, equator_curve

#: names that are test oracles (tests/oracles.py) or were deleted, by the
#: module that defined them
GONE = {
    "algebra": ["extend_by_pair", "residue_at_zero"],
    "geometry": ["fit_rigid_motion", "verify_isometry", "_laurent_primitive"],
    "period": ["horizontal_residual_m2_alt", "period_jacobian_m2_fd"],
    "weierstrass": ["immersion", "metric_density"],
}

#: methods that are test oracles now, by class
GONE_METHODS = {
    "BranchConfiguration": ["antipodes", "permuted"],
    "RigidMotion": ["rotation_z", "reflection"],
    "ParameterMap": ["compose"],
}

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("module", GONE)
def test_moved_and_deleted_names_are_not_exported(module):
    for name in GONE[module]:
        assert not hasattr(henneberg, name), name
        assert not hasattr(importlib.import_module(f"henneberg.{module}"), name), name


@pytest.mark.parametrize("cls", GONE_METHODS)
def test_moved_methods_are_gone(cls):
    for name in GONE_METHODS[cls]:
        assert not hasattr(getattr(henneberg, cls), name), name


def test_sampling_has_no_seam_options():
    # every mesh closes its seam, and a quotient grid is glued or refused
    for name in ("wrap", "inversion_symmetric"):
        assert not hasattr(henneberg.SamplingSpec, name), name
        assert not hasattr(henneberg.SamplingSpec(), name), name
    with pytest.raises(TypeError):
        henneberg.SamplingSpec(wrap=False)


@pytest.mark.parametrize("option", [{"normal_sign": -1}, {"w0": 0.0}])
def test_bjorling_takes_only_the_curve(option):
    with pytest.raises(TypeError):
        bjorling_solve(equator_curve(2), **option)


def _install_targets():
    """(owner, attribute) of every wrap(owner, "attribute", ...) call in
    bench/tracing.py's install, with each owner resolved through install's
    own imports."""
    tree = ast.parse(TRACING.read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    owners = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Import):
            for alias in node.names:
                owners[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(module, alias.name)
    return [(owners[call.args[0].id], call.args[1].value) for call in ast.walk(install)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "wrap"]


def test_benchmark_layers_still_exist():
    # a rename here would crash the benchmark's traced run
    targets = _install_targets()
    assert len(targets) >= 20
    for owner, name in targets:
        assert callable(getattr(owner, name, None)), (owner, name)
    # bench/run.py reports the thread count in its provenance
    assert callable(importlib.import_module("henneberg.period")._thread_count)
