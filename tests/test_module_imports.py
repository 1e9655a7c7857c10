"""Import fences, each checked in a fresh interpreter.

Package roots resolve their public names on first use (PEP 562), so no
module may lean on a sibling that an eager root used to import first,
and a live node's interpreter loads only the modules it runs.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Packages a live node never runs: the simulator, the oracles, the
#: harness, the stress sweep and the other engines' helpers.
NODE_FORBIDDEN = ("sim", "analysis", "harness", "stress", "dsm", "clocks", "exec")
#: ``repro`` modules after ``import repro.live.node, repro.service.gateway``
#: (a package root counts as one module); 72 while every root was eager.
NODE_MODULE_BUDGET = 35


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _all_modules() -> list[str]:
    names = []
    for root, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        package = os.path.relpath(root, SRC).replace(os.sep, ".")
        for file in files:
            if not file.endswith(".py"):
                continue
            stem = file[: -len(".py")]
            names.append(package if stem == "__init__" else f"{package}.{stem}")
    return sorted(names)


def test_every_module_imports_alone():
    modules = _all_modules()
    assert len(modules) > 90 and "repro.live.node" in modules
    # Two interpreters at a time: one per vCPU of the smallest CI host.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda name: _python(f"import {name}"), modules))
    failures = [
        f"{name}: {result.stderr.strip().splitlines()[-1]}"
        for name, result in zip(modules, results)
        if result.returncode != 0
    ]
    assert not failures, "\n".join(failures)


def test_a_node_imports_no_simulator_or_oracle_module():
    result = _python(
        "import sys, repro.live.node, repro.service.gateway\n"
        "print('\\n'.join(sorted(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    loaded = [
        name for name in result.stdout.split()
        if name == "repro" or name.startswith("repro.")
    ]
    strays = [
        name for name in loaded
        if name.split(".")[1:2] and name.split(".")[1] in NODE_FORBIDDEN
        or name.startswith("repro.protocols.") and name != "repro.protocols.base"
    ]
    assert not strays, strays
    assert len(loaded) <= NODE_MODULE_BUDGET, loaded
