"""Docs that quote measured numbers must equal the committed baselines,
and every ``repro.<dotted.path>`` they name must exist."""

import ast
import importlib
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def scaling_table() -> dict[int, tuple[int, float]]:
    """``{shards: (fleet ops/s, speedup)}`` from docs/performance.md."""
    text = (REPO / "docs" / "performance.md").read_text(encoding="utf-8")
    serving = text.split("# Sharded serving under a flash crowd", 1)[1]
    section = serving.split("## Scaling table", 1)[1].split("\n#", 1)[0]
    rows = re.findall(
        r"^\| (\d+) \| ([\d,]+) \| ([\d.]+)x \|$", section, flags=re.MULTILINE
    )
    return {
        int(shards): (int(ops.replace(",", "")), float(speedup))
        for shards, ops, speedup in rows
    }


def test_serve_scaling_table_equals_the_committed_baseline():
    baseline = json.loads(
        (REPO / "benchmarks" / "baselines" / "BENCH_test_serve_scaling.json").read_text(
            encoding="utf-8"
        )
    )
    values = baseline["benchmarks/test_serve_scaling.py::test_flash_crowd_scaling"][
        "values"
    ]
    table = scaling_table()
    arms = {
        int(match.group(1)): value
        for name, value in values.items()
        if (match := re.fullmatch(r"requests_per_sec_(\d+)shard", name))
    }
    assert sorted(table) == sorted(arms)
    for shards, ops_per_sec in arms.items():
        quoted_ops, quoted_speedup = table[shards]
        assert quoted_ops == round(ops_per_sec)
        assert quoted_speedup == round(ops_per_sec / arms[1], 2)
    assert table[4][1] == round(values["speedup_4shard"], 2)


DOTTED_REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def dotted_references() -> dict[str, list[str]]:
    """``{repro.<dotted.path>: [files quoting it]}`` over the prose docs."""
    files = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    found: dict[str, list[str]] = {}
    for path in files:
        for dotted in DOTTED_REFERENCE.findall(path.read_text(encoding="utf-8")):
            found.setdefault(dotted, []).append(path.name)
    return found


def resolve_dotted(dotted: str) -> None:
    """Import the longest module prefix, then walk the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return
    raise ModuleNotFoundError(dotted)


def test_every_dotted_repro_reference_in_the_docs_resolves():
    """A deleted module, class or global cannot survive in prose."""
    references = dotted_references()
    assert len(references) > 50  # the pattern still finds the docs' references
    broken = {}
    for dotted, files in sorted(references.items()):
        try:
            resolve_dotted(dotted)
        except (ImportError, AttributeError) as error:
            broken[dotted] = (sorted(set(files)), repr(error))
    assert not broken


def test_modules_kept_for_the_paper_name_their_section():
    """A module the census keeps under rule (b) says which paper section it is."""
    from tests.test_census import load_census

    sections = load_census().PAPER_SECTIONS
    unnamed = {}
    for prefix, section in sections.items():
        paths = sorted((REPO / "src" / prefix).glob("*.py")) if prefix.endswith("/") else [
            REPO / "src" / prefix
        ]
        assert paths, prefix
        for path in paths:
            docstring = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or ""
            if section not in docstring.replace("Section ", "§"):
                unnamed[path.relative_to(REPO).as_posix()] = section
    assert not unnamed
