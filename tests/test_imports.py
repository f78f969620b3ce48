"""``import repro.api`` loads no heavy third-party package.

Every benchmark child, CLI call and ``spawn`` worker pays for what the
facade imports.  networkx, numpy and scipy are each tens of milliseconds
and megabytes; the modules that need numpy or scipy import them
themselves, and networkx is only the overlay tests' oracle.  The import
runs in a fresh interpreter, since this test process has loaded them.
"""

import json
import subprocess
import sys

HEAVY = ("networkx", "numpy", "scipy")

_SCRIPT = f"""
import json, sys
import repro.api
print(json.dumps(sorted(name for name in {HEAVY!r} if name in sys.modules)))
"""


def test_import_repro_api_loads_no_heavy_package():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
