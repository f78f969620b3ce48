"""Unit tests for the declarative SLO alert engine (repro.obs.alerts)."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.alerts import (
    DEFAULT_RULES,
    AlertEngine,
    load_rules,
    parse_rule,
    resolve_signal,
)
from repro.obs.metrics import MetricsRegistry


def _registry_with_traffic(rejected=3, admitted=7):
    registry = MetricsRegistry()
    admissions = registry.counter(
        "store_admissions_total", "Admission outcomes.", ("unit", "outcome")
    )
    admissions.inc(admitted, unit="disk", outcome="admitted")
    admissions.inc(rejected, unit="disk", outcome="rejected")
    occupancy = registry.gauge(
        "store_occupancy_ratio", "Occupied fraction.", ("unit",)
    )
    occupancy.set(0.4, unit="disk-a")
    occupancy.set(0.8, unit="disk-b")
    density = registry.gauge(
        "store_importance_density", "Importance density.", ("unit",)
    )
    density.set(0.2, unit="disk-a")
    density.set(0.6, unit="disk-b")
    return registry


class TestParseRule:
    def test_parses_signal_op_bound(self):
        rule = parse_rule("healthy", "reject_rate < 0.3")
        assert (rule.signal, rule.op, rule.bound) == ("reject_rate", "<", 0.3)

    def test_all_operators(self):
        for op in ("<", "<=", ">", ">=", "==", "!="):
            rule = parse_rule("r", f"evictions_total {op} 5")
            assert rule.op == op

    def test_label_selector_with_aggregate(self):
        rule = parse_rule("r", "store_admissions_total{outcome=rejected}:sum >= 1")
        assert rule.signal == "store_admissions_total{outcome=rejected}:sum"

    def test_garbage_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_rule("r", "no operator here")
        with pytest.raises(ObservabilityError):
            parse_rule("r", "reject_rate < not-a-number")

    def test_check_applies_operator(self):
        rule = parse_rule("r", "reject_rate <= 0.5")
        assert rule.check(0.5) is True
        assert rule.check(0.6) is False


class TestLoadRules:
    def test_json_mapping(self):
        handle = io.StringIO(json.dumps({"rules": {"a": "reject_rate < 1"}}))
        (rule,) = load_rules(handle)
        assert rule.name == "a"

    def test_json_top_level_mapping(self):
        handle = io.StringIO(json.dumps({"a": "reject_rate < 1"}))
        assert load_rules(handle)[0].signal == "reject_rate"

    def test_flat_yaml_subset(self):
        text = "# SLOs\nhealthy: reject_rate < 0.3\n\nqueue: 'engine_queue_depth:max < 100000'\n"
        rules = load_rules(io.StringIO(text))
        assert [r.name for r in rules] == ["healthy", "queue"]
        assert rules[1].expr == "engine_queue_depth:max < 100000"

    @pytest.mark.parametrize(
        "expr",
        ["serve_responses_total:p150 > 1", "importance_density_p150 < 1", "m{a=b}:p101 < 1"],
    )
    def test_percentile_above_100_rejected_at_load(self, expr):
        with pytest.raises(ObservabilityError, match="outside p0..p100"):
            load_rules(io.StringIO(f"bad: {expr}\n"))

    @pytest.mark.parametrize(
        "expr",
        ["serve_responses_total:p0 >= 0", "serve_responses_total:p100 >= 0",
         "importance_density_p0 >= 0", "importance_density_p100 <= 1", "latency_p999 < 1"],
    )
    def test_percentiles_in_range_still_load(self, expr):
        (rule,) = load_rules(io.StringIO(f"ok: {expr}\n"))
        assert rule.signal == expr.split()[0]

    def test_p0_and_p100_evaluate_to_min_and_max(self):
        registry = _registry_with_traffic()
        engine = AlertEngine.from_pairs(
            [("lo", "store_occupancy_ratio:p0 >= 0"), ("hi", "store_occupancy_ratio:p100 <= 1")]
        )
        assert [r.value for r in engine.evaluate(registry)] == [0.4, 0.8]

    def test_cli_exits_2_before_serving_on_a_p150_rule(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "bad.rules"
        rules.write_text("too_high: serve_responses_total:p150 > 1\n")
        ledger = tmp_path / "ledger.jsonl"
        code = main(
            ["loadgen", "--nodes", "1", "--horizon-days", "2", "--max-requests", "5",
             "--alerts", str(rules), "--check", "--ledger-out", str(ledger)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "outside p0..p100" in captured.err
        assert "loadgen:" not in captured.out and not ledger.exists()


class TestResolveSignal:
    def test_derived_reject_rate(self):
        registry = _registry_with_traffic(rejected=3, admitted=7)
        assert resolve_signal(registry, "reject_rate") == pytest.approx(0.3)
        assert resolve_signal(registry, "admit_rate") == pytest.approx(0.7)

    def test_occupancy_aggregates(self):
        registry = _registry_with_traffic()
        assert resolve_signal(registry, "occupancy_min") == pytest.approx(0.4)
        assert resolve_signal(registry, "occupancy_max") == pytest.approx(0.8)
        assert resolve_signal(registry, "occupancy_mean") == pytest.approx(0.6)

    def test_density_percentile(self):
        registry = _registry_with_traffic()
        assert resolve_signal(registry, "importance_density_min") == pytest.approx(0.2)
        p50 = resolve_signal(registry, "importance_density_p50")
        assert 0.2 <= p50 <= 0.6

    def test_generic_selector_with_labels(self):
        registry = _registry_with_traffic(rejected=3)
        value = resolve_signal(
            registry, "store_admissions_total{outcome=rejected}:sum"
        )
        assert value == pytest.approx(3.0)

    def test_missing_metric_is_no_data(self):
        assert resolve_signal(MetricsRegistry(), "reject_rate") is None
        assert resolve_signal(MetricsRegistry(), "nothing_here") is None


class TestAlertEngine:
    def test_evaluate_pass_and_fail(self):
        registry = _registry_with_traffic(rejected=9, admitted=1)
        engine = AlertEngine.from_mapping(
            {"hard": "reject_rate < 0.5", "soft": "reject_rate <= 1.0"}
        )
        results = engine.evaluate(registry, now=10.0)
        by_name = {r.rule.name: r for r in results}
        assert by_name["hard"].passed is False
        assert by_name["soft"].passed is True
        assert engine.passed is False
        assert [r.rule.name for r in engine.failed_results] == ["hard"]

    def test_first_violation_sim_time_sticks(self):
        registry = _registry_with_traffic(rejected=9, admitted=1)
        engine = AlertEngine.from_mapping({"hard": "reject_rate < 0.5"})
        engine.evaluate(registry, now=5.0)
        engine.evaluate(registry, now=99.0)
        assert engine.first_violation["hard"] == 5.0
        assert engine.violation_counts["hard"] == 2

    def test_no_data_neither_passes_nor_fails(self):
        engine = AlertEngine.from_mapping({"ghost": "no_such_signal > 1"})
        (result,) = engine.evaluate(MetricsRegistry())
        assert result.passed is None
        assert result.verdict == "n/a"
        assert engine.passed is True  # no-data must not page anyone

    def test_to_dict_snapshot(self):
        registry = _registry_with_traffic(rejected=9, admitted=1)
        engine = AlertEngine.from_mapping({"hard": "reject_rate < 0.5"})
        engine.evaluate(registry, now=3.0)
        snap = engine.to_dict()
        assert snap["passed"] is False
        assert snap["evaluations"] == 1
        (rule,) = snap["rules"]
        assert rule["name"] == "hard"
        assert rule["first_violation"] == 3.0
        assert rule["violations"] == 1

    def test_default_rules_pass_on_sane_run(self):
        registry = _registry_with_traffic()
        engine = AlertEngine.from_pairs(DEFAULT_RULES)
        engine.evaluate(registry)
        assert engine.passed is True
