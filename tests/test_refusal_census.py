"""``tools/refusal_census.py``: its wrapped seams still see the run.

One short ``sim_cluster`` census (129 simulated days, the contract run's
horizon scaled down through the module's ``CONTRACT_SECONDS``) must count
floor refusals with no admissible unit anywhere, walks, and probes split
between the cached floor and the merge fold.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_sim_cluster_census_at_a_short_horizon(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "refusal_census", REPO / "tools" / "refusal_census.py"
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(census, "CONTRACT_SECONDS", 6.0)
    counts = census.census("sim_cluster", 42)
    assert counts["horizon_days"] == 129.0
    assert counts["unwalked"] > 0 and counts["unwalked_admissible"] == 0
    assert counts["refusals"] == counts["unwalked"] + counts["walked"]
    assert counts["walked"] == sum(
        counts[key] for key in ("admissible", "unmirrored", "merge_decided", "walked_other")
    )
    assert counts["walks"] >= counts["walked_offers"] > 0
    assert counts["floor"] > 0 and counts["merge"] > 0 and counts["other"] > 0
    assert counts["probes"] == counts["floor"] + counts["merge"] + counts["other"]
