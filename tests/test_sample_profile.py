"""``tools/sample_profile.py``: the SIGPROF stack sampler prints self and
inclusive shares of a bench workload's run, and names a generated
``__init__`` frame after the class it builds."""

import dataclasses
import importlib.util
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from repro._values import slot_init

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def sample_profile():
    spec = importlib.util.spec_from_file_location(
        "sample_profile", REPO / "tools" / "sample_profile.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _init_frame(decorate):
    frames = []

    @decorate
    @dataclasses.dataclass(frozen=True, slots=True)
    class Point:
        x: int

        def __post_init__(self):
            frames.append(sys._getframe(1))

    Point(1)
    return frames[0]


@pytest.mark.parametrize("decorate", [lambda cls: cls, slot_init], ids=["dataclass", "slot_init"])
def test_a_generated_init_is_named_after_its_class(sample_profile, decorate):
    assert sample_profile.label(_init_frame(decorate)) == (
        "_init_frame.<locals>.Point.__init__ (generated)"
    )


def test_a_namedtuple_new_is_named_after_its_class(sample_profile):
    # A namedtuple's __new__ is a lambda compiled from "<string>" whose
    # first argument is the class: the same shape, built by hand.
    frames = []
    namespace = {"frames": frames, "sys": sys}
    exec(compile("def new(_cls, a):\n    frames.append(sys._getframe())", "<string>", "exec"),
         namespace)
    namespace["new"](namedtuple("Pair", "a b"), 1)
    assert sample_profile.label(frames[0]) == "Pair.__new__ (generated)"


def test_a_source_frame_is_named_by_path_and_qualname(sample_profile):
    assert sample_profile.label(sys._getframe()) == (
        "tests/test_sample_profile.py:test_a_source_frame_is_named_by_path_and_qualname"
    )


def test_a_tiny_run_prints_self_and_inclusive_shares(sample_profile):
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "sample_profile.py"), "--workload", "sim_single",
         "--seconds", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    out = proc.stdout
    assert out.startswith("sim_single seed=42 seconds=1.0: ")
    samples = int(out.split(": ", 1)[1].split()[0])
    assert samples > 0
    self_rows = out.split("     self  function\n")[1].split("\n\n")[0].splitlines()
    inclusive_rows = out.split("inclusive  function\n")[1].splitlines()
    top = sample_profile.TOP
    assert 0 < len(self_rows) <= top and 0 < len(inclusive_rows) <= top
    # The sampler's own frames hold every sample.
    assert inclusive_rows[0].startswith("   100.0%  ")
