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


def test_every_decision_names_a_function_under_src():
    census = load_census()
    found = {(module, info["qualname"]) for (module, _line), info in census.functions().items()}
    for name in census.DECIDED:
        module, qualname = name.split(":")
        assert any(
            m == module and (q + ".").startswith(qualname + ".") for m, q in found
        ), f"DECIDED names {name!r}, which is not under src/repro"


def test_a_decision_keeps_its_function_and_its_methods():
    census = load_census()
    info = {"qualname": "GroupedResidents.group_count", "abstract": False, "safety": False}
    rule = census.keep_rule(("repro/core/victims.py", 1), info, set())
    assert rule == "(e) decided: tests read the state through it"
    info["qualname"] = "GroupedResidentsX.group_count"
    assert census.keep_rule(("repro/core/victims.py", 1), info, set()) == "—"


def test_a_paper_section_keeps_nothing():
    census = load_census()
    assert not hasattr(census, "PAPER_SECTIONS")
    info = {"qualname": "normalize_path", "abstract": False, "safety": False}
    assert census.keep_rule(("repro/fs/path.py", 1), info, set()) == "—"
    assert census.keep_rule(("repro/fs/path.py", 1), info, {("repro/fs/path.py", "normalize_path")}) == "(a) api"
