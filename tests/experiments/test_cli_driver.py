"""The one CLI run driver: what it emits never depends on ``--jobs``.

``run`` and ``sweep`` at every job count go through ``run_specs`` and one
emitter (``cli._run_and_emit``).  These tests pin the contract that
follows: a multi-spec ``run`` writes the same artifact set under the
same names at ``--jobs 1`` and ``--jobs 2``, outcomes print in submission
order whatever order they complete in, every sink follows one naming
rule, and the flag surface is the one the hand-written parser had.
"""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.experiments import registry
from repro.obs.traceexport import TraceArchive
from repro.serve.loadgen import LoadGenSpec
from repro.serve.protocol import ServeError
from repro.sim.parallel import execute_spec


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def two_experiments(monkeypatch):
    """Shrink ``run all`` to two cheap registry entries.

    Worker processes import the full registry, which still has both.
    """
    monkeypatch.setattr(
        registry,
        "_MODULES",
        {name: registry._MODULES[name] for name in ("table1", "fig6")},
    )


def _span_tree(stdout):
    """Span-tree lines of a ``--trace`` run with the wall-clock stripped."""
    lines, inside = [], False
    for line in stdout.splitlines():
        if line == "span tree:":
            inside = True
        elif inside and not line.startswith("  "):
            inside = False
        if inside:
            lines.append(re.sub(r": \d+\.\d+s", "", line))
    return lines


class TestArtifactSetParity:
    """A multi-spec ``run`` with all four sinks on: jobs 1 ≡ jobs 2."""

    def _run(self, out_dir, jobs, capsys):
        code = main(
            [
                "run", "all", "--horizon-days", "20", "--jobs", str(jobs), "--trace",
                "--csv", str(out_dir / "vcs.csv"),
                "--metrics-out", str(out_dir / "m.json"),
                "--audit-out", str(out_dir / "audit.jsonl"),
                "--trace-out", str(out_dir / "t.jsonl"),
            ]
        )
        assert code == 0
        return capsys.readouterr().out.replace(str(out_dir), "<out>")

    def test_jobs1_and_jobs2_write_the_same_artifact_set(
        self, two_experiments, tmp_path, capsys
    ):
        serial_dir, pooled_dir = tmp_path / "jobs1", tmp_path / "jobs2"
        serial = self._run(serial_dir, 1, capsys)
        pooled = self._run(pooled_dir, 2, capsys)

        names = sorted(p.name for p in serial_dir.iterdir())
        assert names == sorted(p.name for p in pooled_dir.iterdir())
        assert names == [
            "audit-fig6.jsonl", "audit-merged.jsonl", "audit-table1.jsonl",
            "m-fig6.json", "m-merged.json", "m-table1.json",
            "t-fig6.jsonl", "t-merged.jsonl", "t-table1.jsonl",
            "vcs-fig6.csv", "vcs-table1.csv",
        ]
        for name in names:
            mine, theirs = serial_dir / name, pooled_dir / name
            if name.startswith("t-"):
                # Trace shards carry wall-clock fields; the canonical form
                # (ids, labels, nesting, sim time) must agree — including
                # the worker.run root span every shard hangs from.
                archive = TraceArchive.read_jsonl(str(mine))
                assert archive.canonical_bytes() == (
                    TraceArchive.read_jsonl(str(theirs)).canonical_bytes()
                ), name
                assert {r.label for r in archive.roots()} == {"worker.run"}, name
            elif name.startswith("m-"):
                ours, other = json.loads(mine.read_text()), json.loads(theirs.read_text())
                assert ours["experiment"] == other["experiment"], name
                assert sorted(ours["metrics"]) == sorted(other["metrics"]), name
            else:
                assert mine.read_bytes() == theirs.read_bytes(), name
        assert (serial_dir / "audit-merged.jsonl").read_bytes() == (
            serial_dir / "audit-fig6.jsonl"
        ).read_bytes()  # table1 is analytic: the fold is fig6's ledger

        def skeleton(stdout):
            return [
                line
                for line in stdout.splitlines()
                if line.startswith("== ") or " written to " in line
            ]

        assert skeleton(serial) == skeleton(pooled)
        assert skeleton(serial)[:2] == ["== table1 ==", "[csv written to <out>/vcs-table1.csv]"]
        assert "== merged (all specs) ==" in skeleton(serial)
        # --trace prints the span tree (not only the aggregate table) from a
        # worker's payload exactly as from an inline run.
        assert _span_tree(serial) == _span_tree(pooled)
        assert "  worker.run" in _span_tree(serial)


class TestCsvParity:
    """``--csv`` rows are built in the parent from the typed result that came
    back from the worker, so every experiment's CSV is jobs-invariant —
    ``serve-shard``'s (its ledger) included."""

    def _csvs(self, argv, out_dir, jobs, capsys):
        code = main([*argv, "--jobs", str(jobs), "--csv", str(out_dir / "vcs.csv")])
        capsys.readouterr()
        return code, {path.name: path.read_bytes() for path in out_dir.iterdir()}

    def test_run_all_csv_bytes_do_not_depend_on_jobs(self, tmp_path, capsys):
        # A 20-day horizon keeps this cheap; fig7 raises at it by design
        # (exit 1, the batch goes on) and is covered by the sweep below.
        argv = ["run", "all", "--horizon-days", "20"]
        serial = self._csvs(argv, tmp_path / "jobs1", 1, capsys)
        assert serial == self._csvs(argv, tmp_path / "jobs2", 2, capsys)
        code, files = serial
        assert code == 1
        assert sorted(files) == sorted(
            f"vcs-{name}.csv" for name in registry.names() if name != "fig7"
        )
        assert files["vcs-serve-shard.csv"].startswith(b"seq,t_submit,t_decided,")

    def test_fig7_csv_bytes_do_not_depend_on_jobs(self, tmp_path, capsys):
        argv = ["sweep", "fig7", "--seeds", "2", "--horizon-days", "120"]
        serial = self._csvs(argv, tmp_path / "jobs1", 1, capsys)
        assert serial == self._csvs(argv, tmp_path / "jobs2", 2, capsys)
        assert serial[0] == 0 and len(serial[1]) == 2


class TestEmitterOrder:
    def test_out_of_order_outcomes_print_in_submission_order(self, monkeypatch, capsys):
        def backwards(specs, *, jobs, on_outcome):
            outcomes = [execute_spec(spec) for spec in specs]
            for outcome in reversed(outcomes):
                on_outcome(outcome)
            return outcomes

        monkeypatch.setattr("repro.cli.run_specs", backwards)
        assert main(["sweep", "fig8", "--seeds", "3"]) == 0
        sections = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("== ")
        ]
        assert sections == ["== fig8 ==", "== fig8-r1 ==", "== fig8-r2 =="]

    def test_outcomes_are_emitted_as_they_arrive(self, monkeypatch, capsys):
        # A long serial batch must stream experiment by experiment, not go
        # silent until the last spec is done.
        chunks = []

        def one_at_a_time(specs, *, jobs, on_outcome):
            for spec in specs:
                on_outcome(execute_spec(spec))
                chunks.append(capsys.readouterr().out)
            return []

        monkeypatch.setattr("repro.cli.run_specs", one_at_a_time)
        assert main(["sweep", "fig8", "--seeds", "2"]) == 0
        assert chunks[0].startswith("== fig8 ==")
        assert chunks[1].startswith("== fig8-r1 ==")


class TestSinkNaming:
    @pytest.mark.parametrize("base", ["vcs.csv", "disc.csv", "runs.csv", "rev.csv", "out..csv"])
    def test_multi_spec_csv_keeps_the_whole_base_name(self, base, tmp_path, capsys):
        # Regression: ``base.rstrip('.csv')`` strips characters, not the
        # suffix — ``--csv vcs.csv`` used to write ``-fig8.csv``.
        assert main(["sweep", "fig8", "--seeds", "2", "--csv", str(tmp_path / base)]) == 0
        capsys.readouterr()
        stem = base[: -len(".csv")]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}-fig8-r1.csv",
            f"{stem}-fig8.csv",
        ]

    def test_extensionless_bases_get_the_sinks_default_extension(
        self, two_experiments, tmp_path, capsys
    ):
        code = main(
            [
                "run", "all", "--horizon-days", "5",
                "--csv", str(tmp_path / "series"),
                "--metrics-out", str(tmp_path / "m"),
                "--audit-out", str(tmp_path / "audit"),
                "--trace-out", str(tmp_path / "t"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"series-fig6.csv", "m-fig6.json", "audit-fig6.jsonl", "t-fig6.jsonl"} <= names
        assert {"m-merged.json", "audit-merged.jsonl", "t-merged.jsonl"} <= names

    def test_failed_spec_does_not_stop_the_batch(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            registry,
            "_MODULES",
            {name: registry._MODULES[name] for name in ("fig7", "table1")},
        )
        code = main(["run", "all", "--horizon-days", "5", "--csv", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "[fig7 failed: RuntimeError: " in captured.err
        assert "== table1 ==" in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["o-table1.csv"]

    def test_unreadable_alert_rules_exit_2_before_running(self, tmp_path, capsys):
        code = main(["run", "table1", "--alerts", str(tmp_path / "missing.rules")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "== table1 ==" not in captured.out


def _surface(parser):
    """Every subcommand's arguments: flags -> default/type/choices/metavar/help."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    surface = {}
    for name, sub_parser in sub.choices.items():
        arguments = {}
        for action in sub_parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            registry_names = action.dest == "experiment"  # checked against the registry
            arguments[" ".join(action.option_strings) or action.dest] = {
                "default": action.default,
                "type": getattr(action.type, "__name__", "str"),
                "choices": None
                if registry_names or action.choices is None
                else list(action.choices),
                "metavar": action.metavar,
                "nargs": action.nargs,
                "help": action.help,
            }
        surface[name] = {"help": helps[name], "arguments": arguments}
    return surface


class TestFlagSurface:
    """Deriving the serving flags from ``LoadGenSpec`` changed no flag."""

    def test_every_subcommand_matches_the_recorded_surface(self):
        # cli_surface.json was dumped by _surface() from the hand-written
        # parser of commit c361165 (the last one with _add_serve_flags
        # spelled out); flag order within a subcommand is not part of it.
        recorded = json.loads(
            (Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8")
        )
        assert _surface(build_parser()) == recorded

    def test_experiment_choices_come_from_the_registry(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"
        for command in ("run", "sweep"):
            for name in registry.names():
                assert build_parser().parse_args([command, name]).experiment == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "all"])

    def test_one_subcommand_parser_equals_the_full_one(self):
        # main() only builds the flags of the subcommand it is about to
        # parse; the result must not depend on that shortcut.
        for argv in (["serve", "--nodes", "2"], ["loadgen"], ["run", "fig6", "--trace"]):
            lazy = vars(build_parser(argv[0]).parse_args(argv))
            assert lazy == vars(build_parser().parse_args(argv))

    def test_each_spec_field_has_exactly_one_flag(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = [action.dest for action in sub.choices["loadgen"]._actions]
        for field in dataclasses.fields(LoadGenSpec):
            assert dests.count(field.name) + dests.count(f"no_{field.name}") == 1, field.name
        # ``serve`` presets mode/clients instead of exposing them.
        serve_dests = [action.dest for action in sub.choices["serve"]._actions]
        assert "mode" not in serve_dests and "clients" not in serve_dests

    @pytest.fixture()
    def built_spec(self, monkeypatch, capsys):
        """Run ``main`` up to the point the spec is handed to the load generator."""
        built = []

        def capture(spec, *, jobs=1):
            built.append(spec)
            raise ServeError("spec captured")

        monkeypatch.setattr("repro.serve.loadgen.run_loadgen", capture)

        def build(argv):
            assert main(argv) == 2
            assert "spec captured" in capsys.readouterr().err
            return built.pop()

        return build

    def test_no_flags_yield_the_dataclass_defaults(self, built_spec):
        assert built_spec(["loadgen"]) == LoadGenSpec()
        assert built_spec(["serve"]) == LoadGenSpec(mode="open", clients=1)

    def test_flags_reach_their_fields(self, built_spec):
        spec = built_spec(
            [
                "loadgen", "--mode", "open", "--clients", "3", "--workload", "flashcrowd",
                "--shards", "2", "--target-shard", "1", "--no-coalesce",
                "--deadline-minutes", "5", "--max-requests", "10", "--spill", "never",
            ]
        )
        assert spec == LoadGenSpec(
            mode="open", clients=3, workload="flashcrowd", shards=2, target_shard=1,
            coalesce=False, deadline_minutes=5.0, max_requests=10, spill="never",
        )

    def test_invalid_spec_is_a_usage_error(self, capsys):
        assert main(["loadgen", "--shards", "9", "--nodes", "2"]) == 2
        assert "shards must be <= nodes" in capsys.readouterr().err
