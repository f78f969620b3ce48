"""The execution census (``tools/census.py``) classifies a function by what
called it: a contract run, only the tier-1 suite, or nothing."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_census():
    spec = importlib.util.spec_from_file_location("census", REPO / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_called_function_counts_and_an_uncalled_one_runs_nowhere(tmp_path):
    census = load_census()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "two.py").write_text("def called():\n    return 1\n\n\ndef idle():\n    return 2\n")
    found = census.functions(package)
    assert {key: info["qualname"] for key, info in found.items()} == {
        ("repro/two.py", 1): "called",
        ("repro/two.py", 5): "idle",
    }
    script = f"import sys; sys.path.insert(0, {str(package)!r}); import two; two.called()"
    called = census.record([[sys.executable, "-c", script]], tmp_path / "out", tmp_path)
    assert census.classify(found, called, set()) == {
        ("repro/two.py", 1): "contract",
        ("repro/two.py", 5): "nowhere",
    }
    assert census.classify(found, set(), called)[("repro/two.py", 1)] == "tier-1 only"
