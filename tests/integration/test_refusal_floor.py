"""The cached refusal floor, end to end.

A temporal probe answers "full for this importance" from a cached floor
when every live resident of the unit blocks the incoming importance.  Over
a whole ``sec53`` run and a whole pressured serving run (the shape of the
benchmark's ``serve_pressure``, smaller), :class:`tests.oracles.FloorTally`
re-scores every probe the floor answered with the merge fold it skipped:
each must be a refusal there too, and the floor must have answered.
"""

from repro.core.obj import reset_object_ids
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.sim.parallel import RunSpec, execute_spec
from tests.oracles import FloorTally


def test_every_sec53_floor_answer_is_a_merge_refusal():
    spec = RunSpec(
        "sec53", {"scale": 0.01, "node_capacities_gib": (24,)}, seed=11, horizon_days=200.0
    )
    with FloorTally() as tally:
        outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    assert not tally.disagreements
    assert tally.floor > 0 and tally.merge > 0


def test_every_pressured_serving_floor_answer_is_a_merge_refusal():
    spec = LoadGenSpec(
        workload="university", mode="closed", clients=4, shards=1, nodes=20,
        node_capacity_gib=24, scale=0.01, horizon_days=200.0, seed=42, budget_gib_days=1e9,
    )
    reset_object_ids()
    with FloorTally() as tally:
        report = run_loadgen(spec)
    assert not tally.disagreements
    assert tally.floor > 0 and tally.merge > 0
    assert report.cluster.placed > report.cluster.rejected > 0
