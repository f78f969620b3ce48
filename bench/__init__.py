"""End-to-end + per-layer benchmark of the reproduction (see ``bench/README.md``).

Everything here measures ``src/repro`` from outside: workloads call its
public entry points, :mod:`bench.trace` wraps its public callables at
their import sites, and nothing under ``src/`` is edited.
"""

from pathlib import Path

#: The checkout root: ``src/`` and ``BENCHMARK.json`` live beside ``bench/``.
REPO = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
