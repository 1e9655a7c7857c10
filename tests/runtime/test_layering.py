"""Layering guard: engine-neutral packages must not import an engine.

``repro.core``, ``repro.clocks``, ``repro.protocols`` and ``repro.runtime``
are the portable layers -- everything they need from an engine comes
through :class:`~repro.runtime.env.RuntimeEnv`.  A direct import of
``repro.sim`` or ``repro.live`` from any of them would silently re-couple
the protocols to one engine, so this test walks the AST of every module
in those packages and fails on any such import (including ones hidden
inside functions or ``TYPE_CHECKING`` blocks -- lazy imports are how
layering violations usually sneak in).
"""

import ast
import os

import pytest

import repro

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

PORTABLE_PACKAGES = ["core", "clocks", "protocols", "runtime"]
FORBIDDEN_PREFIXES = ("repro.sim", "repro.live")


def _python_files(package: str):
    """Every ``.py`` under a ``repro`` package -- or under any absolute
    directory (``os.path.join`` keeps an absolute second argument)."""
    root = os.path.join(SRC_ROOT, package)
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _imported_modules(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0:
                yield node.module


@pytest.mark.parametrize("package", PORTABLE_PACKAGES)
def test_portable_package_does_not_import_an_engine(package):
    violations = []
    for path in _python_files(package):
        for module in _imported_modules(path):
            if module.startswith(FORBIDDEN_PREFIXES):
                rel = os.path.relpath(path, SRC_ROOT)
                violations.append(f"{rel} imports {module}")
    assert not violations, (
        f"repro.{package} must stay engine-agnostic; route engine access "
        f"through RuntimeEnv instead of: " + "; ".join(violations)
    )


def test_engines_do_not_import_each_other():
    violations = []
    for package, forbidden in [("sim", "repro.live"), ("live", "repro.sim")]:
        for path in _python_files(package):
            for module in _imported_modules(path):
                if module.startswith(forbidden):
                    rel = os.path.relpath(path, SRC_ROOT)
                    violations.append(f"{rel} imports {module}")
    assert not violations, "; ".join(violations)


def test_service_workload_half_is_engine_free():
    """``repro.service.kv`` and ``repro.service.routing`` run under both
    engines (the sim in tests, live in production shards), so neither
    may import one -- the same rule the portable packages obey."""
    violations = []
    for module_file in ("kv.py", "routing.py"):
        path = os.path.join(SRC_ROOT, "service", module_file)
        for module in _imported_modules(path):
            if module.startswith(FORBIDDEN_PREFIXES):
                violations.append(f"service/{module_file} imports {module}")
    assert not violations, "; ".join(violations)


ASSEMBLY_CALLS = ("Simulator", "Network", "FailureInjector")


def test_simulated_runs_are_assembled_in_one_place():
    """Every simulated run in ``repro`` is assembled by
    :meth:`repro.harness.runner.ExperimentResult.build`; a second place
    that builds a simulator, network or failure injector is a second
    assembly path to keep in step."""
    violations = []
    for path in _python_files(""):
        rel = os.path.relpath(path, SRC_ROOT)
        if rel == os.path.join("harness", "runner.py"):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ASSEMBLY_CALLS:
                    violations.append(f"{rel}:{node.lineno} calls {name}(")
    assert not violations, "; ".join(violations)


def test_every_repro_name_the_benchmarks_import_resolves():
    """``benchmarks/`` and ``examples/`` are maintained apart from
    ``src/`` (the perf harness is frozen between ``benchmark`` PRs, and
    the examples run only under ``make examples``), and many of their
    ``repro`` imports sit inside functions, where nothing notices a
    deleted name until the script runs.  Resolve each one here."""
    import importlib

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    wanted = set()
    for tree_name in ("benchmarks", "examples"):
        for path in _python_files(os.path.join(repo_root, tree_name)):
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and node.module
                    and node.module.split(".")[0] == "repro"
                ):
                    rel = os.path.relpath(path, repo_root)
                    for alias in node.names:
                        wanted.add((node.module, alias.name, rel))
    assert {rel.split(os.sep)[0] for _, _, rel in wanted} == {
        "benchmarks", "examples"
    }, "found no repro imports under benchmarks/ or examples/"
    missing = []
    for module_name, name, rel in sorted(wanted):
        try:
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{rel}: from {module_name} import {name}")
    assert not missing, "; ".join(missing)
