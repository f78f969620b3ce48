"""End-to-end acceptance tests for the decision-provenance ledger.

The contract under test: the ledger records the *exact* threshold
comparison the store made (bit-for-bit reproducible by a twin replay of
the same spec), ``repro-sim explain`` renders it, merged ledgers are
deterministic regardless of ``--jobs``, and ``repro-sim alerts --check``
is a usable CI gate.
"""

import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.obs.audit import AuditLedger
from repro.report.explain import explain_object, timeline_for
from repro.sim.parallel import ObsOptions, RunSpec, expand_sweep, run_specs


def _audited_outcome(name="fig4", seed=42, horizon_days=365.0):
    from repro.sim.parallel import execute_spec

    spec = RunSpec(
        name,
        seed=seed,
        horizon_days=horizon_days,
        obs=ObsOptions(metrics=True, audit=True),
    )
    outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    return outcome


def _jsonl(ledger: AuditLedger) -> str:
    buf = io.StringIO()
    ledger.write_jsonl(buf)
    return buf.getvalue()


class TestTwinStoreReplay:
    """One audited run, replayed: comparisons must agree bit-for-bit."""

    @pytest.fixture(scope="class")
    def twin_ledgers(self):
        first = _audited_outcome().telemetry["audit"]
        twin = _audited_outcome().telemetry["audit"]
        return first, twin

    def test_twin_replay_is_byte_identical(self, twin_ledgers):
        first, twin = twin_ledgers
        assert _jsonl(first) == _jsonl(twin)

    def test_explain_quotes_the_exact_eviction_threshold(self, twin_ledgers):
        first, twin = twin_ledgers
        evicted = next(
            r.object_id
            for r in first
            if r.action == "evict" and r.threshold is not None
        )
        text = explain_object(first, evicted)
        twin_evict = [r for r in twin.records_for(evicted) if r.action == "evict"][-1]
        # repr round-trips floats exactly: the rendered threshold IS the
        # float the twin store compared, bit for bit.
        assert f"incoming={twin_evict.threshold!r}" in text
        assert f"L(t)={twin_evict.importance!r}" in text
        assert twin_evict.importance < twin_evict.threshold or (
            twin_evict.importance == twin_evict.threshold
        )

    def test_explain_quotes_the_exact_rejection_threshold(self, twin_ledgers):
        first, twin = twin_ledgers
        rejected = next(
            r.object_id
            for r in first
            if r.action == "reject" and r.threshold is not None
        )
        text = explain_object(first, rejected)
        twin_reject = twin.records_for(rejected)[-1]
        assert f"blocking={twin_reject.threshold!r}" in text
        assert f"L(t)={twin_reject.importance!r}" in text
        # The admission rule: a reject means the blocking resident's
        # importance was >= the incoming importance.
        assert twin_reject.threshold >= twin_reject.importance

    def test_timeline_outcomes_match_record_stream(self, twin_ledgers):
        first, _twin = twin_ledgers
        rejected = next(r.object_id for r in first if r.action == "reject")
        assert timeline_for(first, rejected).outcome == "reject"


class TestMergedLedgerDeterminism:
    def _sweep_audit(self, jobs: int) -> str:
        specs = expand_sweep(
            "fig6",
            grid={"capacities_gib": [(40, 80), (80, 120)]},
            seeds=2,
            base_seed=42,
            horizon_days=45.0,
            obs=ObsOptions(metrics=True, audit=True),
        )
        outcomes = run_specs(specs, jobs=jobs)
        merged = None
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            ledger = outcome.telemetry["audit"]
            if merged is None:
                merged = ledger
            else:
                merged.merge(ledger)
        return _jsonl(merged)

    def test_jobs_1_and_jobs_4_merge_identically(self):
        assert self._sweep_audit(jobs=1) == self._sweep_audit(jobs=4)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_merged_bytes_are_pinned(self, jobs):
        # Recorded when worker ledgers still crossed the process boundary
        # as dicts; shipping the ledger object itself must not move a byte.
        merged = self._sweep_audit(jobs=jobs).encode("utf-8")
        assert hashlib.sha256(merged).hexdigest() == (
            "c5043ea6db527af9fb436f8926e57fd8531df0447432c4ead1eb0dabf92286f8"
        )


class TestAlertsCliGate:
    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        code = main(
            [
                "run",
                "fig6",
                "--horizon-days",
                "20",
                "--metrics-out",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        return tmp_path

    def test_check_fails_on_seeded_violation(self, run_dir, capsys):
        rules = run_dir / "rules.txt"
        rules.write_text("impossible: occupancy_max <= 0.000001\n")
        code = main(
            ["alerts", str(run_dir), "--rules", str(rules), "--check"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL impossible" in out

    def test_without_check_failures_only_report(self, run_dir, capsys):
        rules = run_dir / "rules.txt"
        rules.write_text("impossible: occupancy_max <= 0.000001\n")
        code = main(["alerts", str(run_dir), "--rules", str(rules)])
        capsys.readouterr()
        assert code == 0

    def test_default_rules_pass_on_healthy_run(self, run_dir, capsys):
        code = main(["alerts", str(run_dir), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out

    def test_exit_2_on_missing_run_dir(self, run_dir, capsys):
        code = main(["alerts", str(run_dir / "nope"), "--check"])
        capsys.readouterr()
        assert code == 2


class TestExplainCli:
    @pytest.fixture()
    def ledger_path(self, tmp_path, capsys):
        target = tmp_path / "fig6-audit.jsonl"
        code = main(
            [
                "run",
                "fig6",
                "--horizon-days",
                "60",
                "--audit-out",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        return target

    def test_listing_then_explaining_an_evicted_object(self, ledger_path, capsys):
        assert main(["explain", str(ledger_path)]) == 0
        listing = capsys.readouterr().out
        object_id = listing.splitlines()[1].split()[0]
        assert main(["explain", str(ledger_path), object_id]) == 0
        text = capsys.readouterr().out
        assert f"object {object_id}" in text
        assert "timeline:" in text

    def test_a_truncated_ledger_is_flagged(self, ledger_path, tmp_path, capsys):
        assert main(["explain", str(ledger_path)]) == 0
        assert "warning" not in capsys.readouterr().err
        # What a two-record ring buffer writes after three decisions.
        target = tmp_path / "truncated-audit.jsonl"
        target.write_text("\n".join(ledger_path.read_text().splitlines()[1:3]) + "\n")
        assert main(["explain", str(target)]) == 0
        assert "dropped 1 of 3 records" in capsys.readouterr().err

    def test_unknown_object_exits_2(self, ledger_path, capsys):
        assert main(["explain", str(ledger_path), "obj-999999"]) == 2
        assert "no audit records" in capsys.readouterr().err

    def test_a_sweep_directory_is_read_one_ledger_per_spec(self, tmp_path, capsys):
        # Both seeds number their objects from obj-000000.
        code = main(
            ["sweep", "fig6", "--seeds", "2", "--horizon-days", "30",
             "--audit-out", str(tmp_path / "audit.jsonl")]
        )
        capsys.readouterr()
        assert code == 0
        per_spec = sorted(p.name for p in tmp_path.glob("audit-*.jsonl") if "merged" not in p.name)
        assert len(per_spec) == 2
        assert main(["explain", str(tmp_path), "--limit", "100000"]) == 0
        listed = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert {words[-1] for words in listed} == set(per_spec)
        assert sum(words[0] == "obj-000000" for words in listed) == 2
        assert main(["explain", str(tmp_path), "obj-000000"]) == 2
        err = capsys.readouterr().err
        assert "2 ledgers" in err and all(name in err for name in per_spec)
        assert main(["explain", str(tmp_path / per_spec[0]), "obj-000000"]) == 0
        assert capsys.readouterr().out.count("  admit ") == 1

    def test_audit_json_not_duplicated_into_metrics_export(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        audit = tmp_path / "audit.jsonl"
        code = main(
            [
                "run",
                "fig6",
                "--horizon-days",
                "10",
                "--metrics-out",
                str(metrics),
                "--audit-out",
                str(audit),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert "audit" not in payload
        assert audit.exists()
