#!/usr/bin/env python3
"""Execution census: which functions of ``src/repro`` the contract runs, which
only the tier-1 suite reaches, and which nothing runs.

    python3 tools/census.py [--out docs/census.md]

A ``sys.setprofile`` hook in a generated ``sitecustomize.py`` on ``PYTHONPATH``
records calls in every process a run starts (forked pool workers re-arm it and
dump per pid through ``multiprocessing.util``).  The contract: every registry
experiment with ``--csv`` at ``--horizon-days 30`` (``fig7`` at its default
horizon, the shortest that reaches its density band), one fig6 run with every
observability sink and ``list`` / ``explain`` / ``flamegraph`` on it,
``examples/*.py``, the ``make`` smokes, ``bench --quick`` and ``benchmarks/``.
Outside it a function is kept by (a) a ``repro.api`` export, (b) a paper
section (``PAPER_SECTIONS``), (c) being a check or input validation, or (d)
being abstract; the table names the rule.  ``make census`` takes ≈ 20 min.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
KINDS = ("contract", "tier-1 only", "nowhere")
NOTE = "Written by `make census` (`tools/census.py`); a function kept by no rule (—) is a deletion candidate."
PAPER_SECTIONS = {"repro/fs/": "§6", "repro/ext/security.py": "§6", "repro/ext/sensor.py": "§6",
                  "repro/besteffs/versioning.py": "§4.1", "repro/besteffs/gossip.py": "§4.4"}
HOOK = '''import atexit, json, os, sys, threading
from multiprocessing import util
_seen = type("Seen", (set,), {})()  # a set subclass, so util can hold a weak reference
def _hook(frame, event, arg, _add=_seen.add):
    if event == "call": _add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def _dump():
    sys.setprofile(None)
    with open(os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}.json"), "w") as fh:
        json.dump([hit for hit in list(_seen) if "/repro/" in hit[0]], fh)
def _arm(seen): seen.clear(); util.Finalize(None, _dump, exitpriority=100)
util.register_after_fork(_seen, _arm); atexit.register(_dump)
sys.setprofile(_hook); threading.setprofile(_hook)
'''


def functions(root: Path = SRC) -> dict[tuple[str, int], dict]:
    """``(module path, first line) -> {qualname, lines, abstract, safety}`` per ``def``."""
    found: dict[tuple[str, int], dict] = {}

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = [s for s in child.body if not (type(s) is ast.Expr and type(s.value) is ast.Constant)]
                abstract = any("abstractmethod" in ast.unparse(d) for d in child.decorator_list) or all(
                    isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s) for s in body)
                safety = name.lstrip("_").startswith(("check", "validate")) or name == "__post_init__" and any(
                    type(n) is ast.Raise for n in ast.walk(child))
                found[rel, first] = dict(qualname=prefix + name, abstract=abstract, safety=safety,
                                         lines=child.end_lineno - first + 1)
            walk(child, rel, f"{prefix}{name}." if name else prefix)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(root.parent).as_posix(), "")
    return found


def record(runs: list[list[str]], out: Path, tmp: Path) -> set[tuple[str, int]]:
    """Run every command with the hook armed; returns the functions they called."""
    (tmp / "hook").mkdir(exist_ok=True)
    (tmp / "hook" / "sitecustomize.py").write_text(HOOK)
    out.mkdir()
    env = dict(os.environ, CENSUS_OUT=str(out), PYTHONPATH=f"{tmp / 'hook'}{os.pathsep}{REPO / 'src'}")
    for run in runs:
        done = subprocess.run(run, cwd=REPO, env=env, capture_output=True)
        print(f"  [exit {done.returncode}] {' '.join(run)}", file=sys.stderr)
    return {("repro/" + filename.rsplit("/repro/", 1)[1], line)
            for dump in out.glob("*.json") for filename, line in json.loads(dump.read_text())}


def classify(found: dict, called: set, tested: set) -> dict[tuple[str, int], str]:
    """Each function's kind: called by the contract, only by tier-1, or by nothing."""
    return {key: KINDS[0] if key in called else KINDS[1] if key in tested else KINDS[2] for key in found}


def keep_rule(key: tuple[str, int], info: dict, exported: set[tuple[str, str]]) -> str:
    """Which of the rules (a)-(d) keeps a function outside the contract, if any."""
    sections = [section for prefix, section in PAPER_SECTIONS.items() if key[0].startswith(prefix)]
    rules = [(info["abstract"], "(d) abstract"), ((key[0], info["qualname"].split(".")[0]) in exported, "(a) api"),
             (sections, f"(b) {''.join(sections[:1])}"), (info["safety"], "(c) safety")]
    return next((label for holds, label in rules if holds), "—")


def render(found: dict, status: dict[tuple[str, int], str], heading: str) -> str:
    import repro.api as api
    exported = {(Path(sys.modules[obj.__module__].__file__).resolve().relative_to(SRC.parent).as_posix(),
                 obj.__qualname__.split(".")[0]) for obj in map(api.__dict__.get, api.__all__)}
    totals = {kind: [0, 0] for kind in KINDS}
    modules: dict[str, list[str]] = {}
    for key in sorted(found):
        kind, info = status[key], found[key]
        totals[kind] = [totals[kind][0] + 1, totals[kind][1] + info["lines"]]
        if kind != KINDS[0]:
            modules.setdefault(key[0], []).append(f"| `{info['qualname']}` | {key[1]} | {info['lines']} "
                                                  f"| {kind} | {keep_rule(key, info, exported)} |")
    lines = [heading, "", NOTE, "", "| status | functions | lines |", "|---|---:|---:|"]
    lines += [f"| {kind} | {n} | {n_lines} |" for kind, (n, n_lines) in totals.items()]
    for module, rows in modules.items():
        lines += ["", f"### `{module}`", "", "| function | line | lines | status | kept by |",
                  "|---|---:|---:|---|---|", *rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the Markdown table here, not to stdout")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC.parent))
    from repro.experiments.registry import names

    py, tmp = sys.executable, Path(tempfile.mkdtemp(prefix="census-"))
    cli = [f"run {name} --csv {tmp}/{name}.csv" + ("" if name == "fig7" else " --horizon-days 30")
           for name in names()] + ["list", f"explain {tmp}/obs", f"flamegraph {tmp}/obs --top 5"]
    cli.insert(-2, f"run fig6 --horizon-days 30 --metrics-out {tmp}/obs/m.json --trace --trace-out "
               f"{tmp}/obs/trace.jsonl --audit-out {tmp}/obs/audit.jsonl --audit-sample 0.5 --log-level debug "
               f"--log-file {tmp}/log.jsonl")
    contract = [[py, "-m", "repro", *line.split()] for line in cli]
    contract += [[py, str(path)] for path in sorted(REPO.glob("examples/*.py"))]
    contract += [["make", "-s", "obs-smoke", "audit-smoke", "alerts-check", "trace-smoke", "serve-smoke"],
                 [py, "-m", "bench", "--quick", "--out", str(tmp / "bench")],
                 [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks/"]]
    called = record(contract, tmp / "contract", tmp)
    tested = record([[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]], tmp / "tier1", tmp)
    shutil.rmtree(tmp)
    head = subprocess.run(["git", "-C", str(REPO), "describe", "--always", "--dirty"],
                          capture_output=True, text=True).stdout.strip()
    found = functions()
    table = render(found, classify(found, called, tested), f"# Execution census of `src/repro` at `{head}`")
    args.out.write_text(table) if args.out else print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
