"""Whoever owns the sim clock scrapes: each engine run, and the serving worker."""

from repro.sim.parallel import ObsOptions, RunSpec, execute_spec
from repro.units import days

_DAILY = ObsOptions(metrics=True, scrape_interval_days=1.0)


def _timeseries(spec: RunSpec) -> dict:
    outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    return outcome.telemetry["timeseries"]


def test_each_sec53_capacity_contributes_scrape_points():
    # One engine per node capacity, each restarting the clock at t=0: the
    # second run's samples follow the first run's in the series, so its
    # times restart once.  Both capacities see the same arrival times, so
    # both are scraped at the same minutes.
    spec = RunSpec(
        "sec53", params={"scale": 0.01}, seed=7, horizon_days=60.0, obs=_DAILY
    )
    series = _timeseries(spec)["series"]
    times = series["store_importance_density{unit=node-0000}"]["t"]
    restart = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
    first, second = times[:restart], times[restart:]
    assert first == second
    assert len(first) > 20 and first[-1] <= days(60)


def test_serve_keeps_its_per_node_density_series():
    spec = RunSpec("serve-flash", seed=7, horizon_days=20.0, obs=_DAILY)
    timeseries = _timeseries(spec)
    assert timeseries["scrape_count"] >= 1
    density = [s for s in timeseries["series"] if s.startswith("store_importance_density{")]
    assert density == [
        "store_importance_density{unit=node-000}",
        "store_importance_density{unit=node-001}",
    ]
