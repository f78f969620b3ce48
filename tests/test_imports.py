"""What importing the package costs a process.

Every benchmark child, CLI call and ``spawn`` worker pays for what it
imports.  networkx, numpy and scipy are each tens of milliseconds and
megabytes; the modules that need numpy or scipy import them themselves,
and networkx is only the overlay tests' oracle.  The facades
(``repro.api``, ``repro.sim``, ``repro.serve``, ``repro.experiments``)
resolve their names on first access, so a simulation loads neither the
serving stack (asyncio, which pulls in ssl) nor the sweep pool
(multiprocessing), and the experiment registry loads no simulator.  Each check
runs in a fresh interpreter, since this test process has loaded them.
"""

import json
import subprocess
import sys

import pytest

HEAVY = ("networkx", "numpy", "scipy")
SERVING_AND_POOL = (
    "asyncio", "ssl", "multiprocessing", "concurrent.futures.process", "repro.serve.service",
)
FACADES = ("repro", "repro.api", "repro.sim", "repro.serve", "repro.experiments")
SIMULATOR = ("repro.experiments.common", "repro.sim.runner", "repro.sim.engine")


def _fresh(script: str):
    # -S: no site hooks, so only the package's own imports are counted.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str, names) -> list[str]:
    return _fresh(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(name for name in {tuple(names)!r} if name in sys.modules)))"
    )


def test_import_repro_api_loads_no_heavy_package():
    resolve_all = "import repro.api\nfor name in repro.api.__all__: getattr(repro.api, name)"
    assert _loaded_after(resolve_all, HEAVY) == []


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.api import (StorageUnit, TemporalImportancePolicy, Recorder,\n"
        "                       run_single_store, run_experiment)",
        "import repro.cli",
    ],
    ids=["simulation-names", "cli"],
)
def test_a_simulation_loads_neither_the_serving_stack_nor_the_pool(statement):
    assert _loaded_after(statement, SERVING_AND_POOL) == []


def test_the_experiment_registry_loads_no_simulator():
    # ``execute_spec`` imports the registry inside a serving run's timed call.
    assert _loaded_after("import repro.experiments.registry", SIMULATOR) == []


@pytest.mark.parametrize("facade", FACADES)
def test_every_export_resolves_and_lazy_maps_cover_exactly_the_lazy_names(facade):
    unresolved, lazy, missing = _fresh(
        "import importlib, json\n"
        f"module = importlib.import_module({facade!r})\n"
        "unresolved = sorted(set(module.__all__) - set(vars(module)))\n"
        "lazy = sorted(getattr(module, '_LAZY', {}))\n"
        "missing = [name for name in module.__all__ if getattr(module, name, None) is None]\n"
        "print(json.dumps([unresolved, lazy, missing]))"
    )
    assert missing == []
    assert lazy == unresolved


def test_a_resolved_name_is_cached_in_the_facade():
    import repro.api
    from repro.core.store import StorageUnit

    assert repro.api.StorageUnit is StorageUnit
    assert vars(repro.api)["StorageUnit"] is StorageUnit
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.api.nope
