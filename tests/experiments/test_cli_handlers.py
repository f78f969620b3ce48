"""Module-level tests for every CLI experiment entry.

`tests/experiments/test_cli.py` covers the argument parsing and a few full
commands; these tests drive each registry module directly at reduced
horizons — the spec the CLI would build, through ``registry.run_cli`` — to
verify each module's CSV rows (``registry.csv_table``) and rendering wiring.
"""

import pytest

from repro.experiments import registry
from repro.sim.parallel import RunSpec


def run(name, horizon_days=None, seed=11):
    result, rendered = registry.run_cli(RunSpec(name, seed=seed, horizon_days=horizon_days))
    return result, rendered, registry.csv_table(name, result)


def assert_csv_shape(headers, rows):
    assert headers and all(isinstance(h, str) for h in headers)
    for row in rows:
        assert len(row) == len(headers)


@pytest.mark.parametrize("name,horizon", [
    ("fig2", 60.0),
    ("fig3", 90.0),
    ("fig4", 200.0),  # rejections only begin once the ramp builds pressure
    ("fig5", 90.0),
    ("fig6", 90.0),
    ("fig8", None),
    ("table1", None),
])
def test_fast_handlers_produce_csv_rows(name, horizon):
    result, rendered, (headers, rows) = run(name, horizon)
    assert result is not None
    assert rendered.strip()
    assert_csv_shape(headers, rows)
    if name not in ("table1",):
        assert rows  # every figure has at least one data point


@pytest.mark.parametrize("name,horizon", [
    ("fig7", 200.0),
    ("fig9", 400.0),
    ("fig10", 400.0),
    ("fig11", 400.0),
    ("fig12", 400.0),
])
def test_lecture_scale_handlers_produce_csv_rows(name, horizon):
    _result, rendered, (headers, rows) = run(name, horizon)
    assert rendered.strip()
    assert_csv_shape(headers, rows)
    assert rows


def test_sec53_handler():
    _result, rendered, (headers, rows) = run("sec53", 120.0)
    assert "Section 5.3" in rendered
    assert_csv_shape(headers, rows)
    assert len(rows) == 2  # one row per node capacity


def test_ext_handlers():
    for name, horizon in (("ext-mixed", 90.0), ("ext-refresh", 90.0),
                          ("ext-reads", None)):
        _result, rendered, (headers, rows) = run(name, horizon)
        assert rendered.strip()
        assert_csv_shape(headers, rows)
        assert rows
