"""Placement by score must be placement by plan, decision for decision.

``choose_unit`` asks every sampled unit for a score and plans nobody;
:func:`tests.oracles.placement.choose_unit_by_plans` is the loop it
replaced, which builds a full ``AdmissionPlan`` per probe.  They must agree
on every field of the decision **and leave the RNG in the same state**, on
random clusters here and — swapped in under a whole experiment and a whole
serving run — on the artifact and ledger sha256.  The last class holds the
faults: a probe that lies about its plan, and a node lost mid-placement.
"""

import random
from dataclasses import dataclass

import pytest

import repro.besteffs.cluster as cluster_module
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.placement import PlacementConfig, choose_unit
from repro.core.importance import DiracImportance, TwoStepImportance
from repro.core.obj import StoredObject, reset_object_ids
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.errors import PlacementError
from repro.experiments.registry import csv_table
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.sim.parallel import RunSpec, execute_spec
from repro.units import days, gib
from tests.conftest import make_obj
from tests.integration.test_index_parity import _artifact_sha
from tests.oracles.placement import choose_unit_by_plans


def random_object(rng: random.Random, now: float, tag: str) -> StoredObject:
    if rng.random() < 0.05:
        lifetime = DiracImportance()
    else:
        lifetime = TwoStepImportance(
            p=rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)),
            t_persist=days(rng.randrange(0, 20)),
            t_wane=days(rng.randrange(0, 20)),
        )
    size = rng.choice((50, 200, 700, 1500, 4200))  # the last exceeds a unit
    return StoredObject(size=size, t_arrival=now, lifetime=lifetime, object_id=tag)


@pytest.mark.parametrize("seed", [3, 41, 2026])
@pytest.mark.parametrize("strict", [True, False])
def test_score_placement_equals_plan_placement(seed, strict):
    rng = random.Random(seed)
    n = rng.choice((6, 12, 25))
    nodes = {
        f"n{i:02d}": BesteffsNode(
            f"n{i:02d}", rng.choice((2000, 4000)),
            policy=TemporalImportancePolicy(strict=strict), keep_history=False,
        )
        for i in range(n)
    }
    overlay = Overlay.random_regular(list(nodes), degree=4, seed=seed)
    config = PlacementConfig(x=rng.choice((2, 3, 5)), m=rng.choice((1, 2, 3)), walk_length=6)
    walker = random.Random(seed + 1)
    now = 0.0
    reasons = set()
    for step in range(1200):
        # Mostly whole minutes (the merge's grid), sometimes fractions.
        now += float(rng.randrange(0, 600)) if rng.random() < 0.9 else rng.uniform(0.0, 600.0)
        obj = random_object(rng, now, f"o-{step}")
        twin_walker = random.Random()
        twin_walker.setstate(walker.getstate())
        decision, node = choose_unit(nodes, overlay, obj, now, config=config, rng=walker)
        expected, expected_node = choose_unit_by_plans(
            nodes, overlay, obj, now, config=config, rng=twin_walker
        )
        assert decision == expected, f"step {step}"
        assert node is expected_node, f"step {step}"
        assert walker.getstate() == twin_walker.getstate(), f"step {step}"
        reasons.add(decision.reason)
        if node is not None:
            assert node.accept(obj, now).admitted
    assert reasons == {"direct", "lowest-preempted", "all-full"}


def test_sec53_artifact_is_the_plan_per_probe_artifact(monkeypatch):
    spec = RunSpec(
        "sec53", {"scale": 0.01, "node_capacities_gib": (24,)}, seed=11, horizon_days=200.0
    )
    scored = execute_spec(spec)
    assert scored.ok, scored.error
    monkeypatch.setattr(cluster_module, "choose_unit", choose_unit_by_plans)
    planned = execute_spec(spec)
    assert planned.ok, planned.error
    assert _artifact_sha(scored) == _artifact_sha(planned)
    # The run must be under pressure for the comparison to mean anything.
    (_capacity, placed, rejected, _density), = csv_table("sec53", scored.result)[1]
    assert placed > rejected > 0


def test_loadgen_ledger_is_the_plan_per_probe_ledger(monkeypatch):
    spec = LoadGenSpec(
        workload="university", mode="closed", clients=4, nodes=20, node_capacity_gib=24,
        horizon_days=200.0, scale=0.01, seed=7, budget_gib_days=1e9,
    )
    reset_object_ids()
    scored = run_loadgen(spec)
    monkeypatch.setattr(cluster_module, "choose_unit", choose_unit_by_plans)
    reset_object_ids()
    planned = run_loadgen(spec)
    assert scored.ledger.canonical_sha256() == planned.ledger.canonical_sha256()
    assert scored.cluster == planned.cluster
    assert scored.cluster.placed > scored.cluster.rejected > 0


@dataclass
class _LyingPolicy(TemporalImportancePolicy):
    """Scores every unit as a direct store, whatever its plan says."""

    def probe(self, store, obj, now, incoming):
        return True, 0.0


class TestFaults:
    def test_a_lying_probe_is_caught_before_any_resident_is_lost(self):
        cluster = BesteffsCluster(
            {f"n{i}": gib(1) for i in range(4)},
            placement=PlacementConfig(x=2, m=1), seed=0, policy_factory=_LyingPolicy,
        )
        for node in cluster.nodes.values():
            node.accept(make_obj(1.0), 0.0)
        residents = {nid: list(n.store.iter_residents()) for nid, n in cluster.nodes.items()}
        # Really a preemption at 2/3 importance (and, for the weak object,
        # a refusal) — not the direct store the probe claimed.
        now = days(20)
        for incoming in (make_obj(1.0, t_arrival=now), make_obj(1.0, lifetime=DiracImportance())):
            with pytest.raises(PlacementError, match="probe/commit disagreement"):
                cluster.offer(incoming, now)
        for nid, node in cluster.nodes.items():
            assert list(node.store.iter_residents()) == residents[nid]
            assert node.store.stats().evicted_count == 0
        assert cluster.placed_count == 0 and len(cluster._locations) == 0

    def test_the_check_is_silent_on_honest_probes(self):
        cluster = BesteffsCluster({f"n{i}": gib(1) for i in range(4)}, seed=0)
        for i in range(40):
            now = days(i)
            cluster.offer(make_obj(1.0, t_arrival=now), now)
        assert cluster.placed_count > 4  # preemptions happened and were committed

    def test_an_expelled_node_is_probed_as_a_brick_that_cannot_store(self):
        cluster = BesteffsCluster(
            {f"n{i}": gib(1) for i in range(6)}, placement=PlacementConfig(x=3, m=2), seed=5
        )
        # Expelled, but still an overlay member: the caller has not rebuilt it.
        cluster.expel_node("n2")
        assert "n2" in cluster.overlay and "n2" not in cluster.nodes
        hit_the_ghost = 0
        for i in range(30):
            decision, _result = cluster.offer(make_obj(0.25, t_arrival=0.0), 0.0, start_node="n0")
            assert decision.node_id != "n2"
            assert decision.reason in ("direct", "lowest-preempted", "all-full")
            hit_the_ghost += decision.placed and decision.nodes_probed > 1
        # Some offers sampled the ghost first, counted it, and kept going.
        assert hit_the_ghost > 0

    def test_all_full_when_every_sampled_unit_is_gone(self):
        nodes = {f"n{i}": BesteffsNode(f"n{i}", gib(1)) for i in range(5)}
        overlay = Overlay.random_regular(list(nodes), degree=2, seed=0)
        survivors = {"n0": nodes["n0"]}
        # x covers the overlay, so every member is "sampled"; only the
        # origin survives and it is full for the object.
        survivors["n0"].accept(make_obj(1.0), 0.0)
        decision, node = choose_unit(
            survivors, overlay, make_obj(1.0), 0.0,
            config=PlacementConfig(x=5, m=2), rng=random.Random(0), start_node="n0",
        )
        assert node is None and not decision.placed
        assert decision.reason == "all-full"
        assert decision.nodes_probed == 10 and decision.rounds_used == 2

    def test_random_origin_may_be_an_expelled_overlay_member(self):
        nodes = {f"n{i}": BesteffsNode(f"n{i}", gib(1)) for i in range(5)}
        overlay = Overlay.random_regular(list(nodes), degree=2, seed=0)
        del nodes["n3"]
        for seed in range(20):  # some seeds draw n3 as the walk origin
            decision, node = choose_unit(
                nodes, overlay, make_obj(0.5), 0.0,
                config=PlacementConfig(x=2, m=2, walk_length=4), rng=random.Random(seed),
            )
            assert decision.placed and node is not None and node.node_id != "n3"
