"""The zero-walk refusal must refuse only what every unit refuses.

``BesteffsCluster.offer`` refuses an offer before any walk when its
cluster-wide full-for-importance floor (:mod:`repro.besteffs.floor`) says
every member is full for it.  Each such refusal is checked here against a
full sweep: every member unit plans the object, and none may admit it.
The clusters are driven through admissions, preemptions and expiries, and
behind the cluster's back (direct ``accept``, ``remove``, expiry sweeps,
churn).  A whole ``sec53`` run with the skipped walks' RNG draws replayed
must equal the run that always walks.  The fault seeds each hold one way
the floor could keep a stale entry.
"""

import random
from dataclasses import replace

import pytest

from repro import obs
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.floor import _SLACK, MAX_LEVELS, RefusalFloor
from repro.besteffs.membership import ChurnManager
from repro.besteffs.node import BesteffsNode
from repro.besteffs.placement import PlacementConfig
from repro.besteffs.walks import sample_nodes
from repro.core.importance import (
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.policies.palimpsest import PalimpsestPolicy
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.errors import OverlayError
from repro.obs.audit import AuditLedger
from repro.sim.parallel import RunSpec, execute_spec
from repro.units import days
from tests.oracles.scaled import Scaled


def _object(rng: random.Random, now: float, tag: str) -> StoredObject:
    p = rng.choice((0.25, 0.5, 0.5, 1.0, 1.0, 1.0))
    persist = days(rng.randrange(3, 30))
    roll = rng.random()
    # One in five is filed in an annotation group, not a family.
    if roll < 0.1:
        lifetime = Scaled(FixedLifetimeImportance(p=p, expire_after=persist), 1.0)
    elif roll < 0.2:
        wane = days(rng.randrange(1, 9))
        lifetime = ExponentialWaneImportance(p=p, t_persist=persist, t_wane=wane)
    else:
        lifetime = TwoStepImportance(p=p, t_persist=persist, t_wane=days(rng.randrange(0, 9)))
    size = rng.choice((40, 100, 250, 600, 1500))  # the last exceeds the small units
    return StoredObject(size=size, t_arrival=now, lifetime=lifetime, object_id=tag)


def _swept_refusal(cluster: BesteffsCluster, obj: StoredObject, now: float) -> bool:
    """True when no member unit's plan admits ``obj`` at ``now``."""
    return not any(
        node.store.peek_admission(obj, now).admit for node in cluster.nodes.values()
    )


@pytest.mark.parametrize("seed", [5, 17, 2026])
@pytest.mark.parametrize("strict", [True, False])
def test_every_floor_refusal_is_a_swept_refusal(seed, strict):
    rng = random.Random(seed)
    cluster = BesteffsCluster(
        {f"n{i}": rng.choice((1000, 2000)) for i in range(8)},
        placement=PlacementConfig(x=3, m=2, walk_length=4),
        seed=seed,
        policy_factory=lambda: TemporalImportancePolicy(strict=strict),
    )
    churn = ChurnManager(cluster, overlay_seed=seed, join_degree=3)
    now = 0.0
    unwalked = walked = joined = 0
    for step in range(4000):
        now += float(rng.randrange(0, 240))
        obj = _object(rng, now, f"o{step}")
        roll = rng.random()
        members = sorted(cluster.nodes)
        if roll < 0.05:
            # Behind the cluster's back: a direct store, which may preempt.
            cluster.nodes[rng.choice(members)].accept(obj, now)
            continue
        if roll < 0.08:
            store = cluster.nodes[rng.choice(members)].store
            residents = list(store.iter_residents())
            if residents:
                store.remove(rng.choice(residents).object_id, now)
            continue
        if roll < 0.09:
            cluster.nodes[rng.choice(members)].store.reclaim_expired(now)
            continue
        if roll < 0.1:
            if rng.random() < 0.5 and len(members) > 4:
                churn.leave(rng.choice(members), now)
            else:
                joined += 1
                churn.join(f"j{joined}", rng.choice((1000, 2000)), now)
            continue
        decision, _result = cluster.offer(obj, now)
        if decision.placed:
            continue
        if decision.rounds_used == 0:
            assert decision.nodes_probed == 0 and decision.reason == "all-full"
            assert _swept_refusal(cluster, obj, now), f"step {step}"
            unwalked += 1
        else:
            walked += 1
    # Both kinds of refusal happened, so the check meant something.
    assert unwalked >= 10 and walked > 0


def _replaying_walks(monkeypatch):
    """Make every floor refusal draw what its walks would have drawn."""
    offer = BesteffsCluster.offer

    def replayed(cluster, obj, now, *, start_node=None):
        decision, result = offer(cluster, obj, now, start_node=start_node)
        if decision.rounds_used == 0:
            rng, config = cluster._rng, cluster.placement
            origin = start_node if start_node is not None else rng.choice(cluster.overlay.node_ids)
            for _round in range(config.m):
                sample_nodes(cluster.overlay, origin, config.x, rng, walk_length=config.walk_length)
        return decision, result

    monkeypatch.setattr(BesteffsCluster, "offer", replayed)


@pytest.mark.parametrize("seed", [42, 7])
def test_replayed_draws_make_the_run_that_always_walks(monkeypatch, seed):
    spec = RunSpec("sec53", {"scale": 0.01, "node_capacities_gib": (24,)}, seed=seed,
                   horizon_days=200.0)
    refused_unwalked = 0
    refuses = RefusalFloor.refuses

    def counted(floor, obj, now):
        nonlocal refused_unwalked
        decided = refuses(floor, obj, now)
        refused_unwalked += decided
        return decided

    with monkeypatch.context() as patch:
        patch.setattr(RefusalFloor, "refuses", counted)
        _replaying_walks(patch)
        replayed = execute_spec(spec)
    with monkeypatch.context() as patch:
        patch.setattr(RefusalFloor, "refuses", lambda floor, obj, now: False)
        walked = execute_spec(spec)
    assert replayed.ok and walked.ok
    assert refused_unwalked > 100
    (capacity,) = walked.result.stats
    mine, theirs = replayed.result.stats[capacity], walked.result.stats[capacity]
    # Floor refusals report the rounds and probes that ran: none.
    assert mine.mean_probes < theirs.mean_probes
    assert replace(mine, mean_rounds=0.0, mean_probes=0.0) == replace(
        theirs, mean_rounds=0.0, mean_probes=0.0
    )
    assert replayed.result.by_creator == walked.result.by_creator
    assert mine.placed > mine.rejected > 0


# -- fault seeds ---------------------------------------------------------


def _full_cluster(spares=(50, 50, 50)) -> BesteffsCluster:
    """A unit of 1000 bytes per entry of ``spares``, holding an 800-byte
    and a ``200 - spare``-byte resident of importance 0.5 (the larger one
    leaves first, and 0 bytes is none): full for an incoming 0.5 (the strict rule) past its
    ``spare`` free bytes.  ``x`` covers the cluster, so a walk probes every
    unit."""
    n = len(spares)
    cluster = BesteffsCluster(
        {f"n{i}": 1000 for i in range(n)}, placement=PlacementConfig(x=n, m=1), seed=0
    )
    for (node_id, node), spare in zip(cluster.nodes.items(), spares):
        node.accept(_stable(0.5, 800, 0.0, f"{node_id}-big", persist=days(50)), 0.0)
        if spare < 200:
            node.accept(_stable(0.5, 200 - spare, 0.0, f"{node_id}-small"), 0.0)
    return cluster


def _stable(p: float, size: int, now: float, tag: str, persist: float = days(100)) -> StoredObject:
    lifetime = TwoStepImportance(p=p, t_persist=persist, t_wane=days(100))
    return StoredObject(size=size, t_arrival=now, lifetime=lifetime, object_id=tag)


def _floor_refuses(cluster: BesteffsCluster, size: int, now: float, tag: str) -> bool:
    decision, _result = cluster.offer(_stable(0.5, size, now, tag), now)
    return not decision.placed and decision.rounds_used == 0


class TestFaults:
    def test_a_direct_store_that_preempts_frees_a_unit(self):
        cluster = _full_cluster()
        assert _floor_refuses(cluster, 300, 60.0, "a")
        # Behind the cluster's back: a 1.0 object preempts n1's 800-byte
        # resident for 100 bytes, leaving 750 free there.
        evicted = cluster.nodes["n1"].accept(_stable(1.0, 100, 120.0, "direct"), 120.0).evictions
        assert [e.object_id for e in evicted] == ["n1-big"]
        decision, _result = cluster.offer(_stable(0.5, 300, 180.0, "b"), 180.0)
        assert decision.placed and decision.node_id == "n1"

    def test_a_removal_behind_the_clusters_back_frees_a_unit(self):
        cluster = _full_cluster()
        assert _floor_refuses(cluster, 300, 60.0, "a")
        cluster.nodes["n2"].store.remove("n2-big", 120.0)
        decision, _result = cluster.offer(_stable(0.5, 300, 180.0, "b"), 180.0)
        assert decision.placed and decision.node_id == "n2"

    def test_a_direct_store_is_read_before_a_commit_is_folded_in(self):
        # Behind the cluster's back n0 takes a 40-byte resident of
        # importance 0.25, which never blocks 0.5; then the cluster commits
        # a 5-byte 0.5 object there (n1, roomier, answers the offer's spare
        # check) and fills n1.  Folding the commit into n0's old entry and
        # reading its spare (5 free bytes) would refuse a 45-byte 0.5
        # object that n0 admits by preempting the direct resident.
        cluster = _full_cluster(spares=(50, 100, 0))
        assert _floor_refuses(cluster, 300, 60.0, "a")
        cluster.nodes["n0"].accept(_stable(0.25, 40, 60.0, "direct"), 60.0)
        cluster.placement = PlacementConfig(x=1, m=1, walk_length=0)
        for node_id, size, tag in (("n0", 5, "b"), ("n1", 100, "c")):
            decision, _result = cluster.offer(_stable(0.5, size, 120.0, tag), 120.0,
                                              start_node=node_id)
            assert decision.placed and decision.node_id == node_id
        cluster.placement = PlacementConfig(x=3, m=1)
        decision, result = cluster.offer(_stable(0.5, 45, 180.0, "d"), 180.0)
        assert decision.placed and decision.node_id == "n0"
        assert [e.object_id for e in result.evictions] == ["direct"]

    def test_a_direct_store_is_read_before_any_entry_of_its_unit(self):
        # As above, but n0 is read first for a new level (1.0, which its
        # residents never block), on the way to refusing an object no unit
        # can hold.  Reading that one entry and n0's spare (10 free bytes)
        # while keeping its 0.5 entry would refuse the 45-byte object too.
        cluster = _full_cluster(spares=(50, 0, 0))
        assert _floor_refuses(cluster, 300, 60.0, "a")
        cluster.nodes["n0"].accept(_stable(0.25, 40, 60.0, "direct"), 60.0)
        decision, _result = cluster.offer(_stable(1.0, 1500, 120.0, "b"), 120.0)
        assert not decision.placed and decision.rounds_used == 1
        decision, result = cluster.offer(_stable(0.5, 45, 180.0, "c"), 180.0)
        assert decision.placed and decision.node_id == "n0"
        assert [e.object_id for e in result.evictions] == ["direct"]

    def test_a_resident_expiring_at_its_stable_end_frees_its_unit_then(self):
        # A user-defined scaled fixed lifetime sits in a group of its own, blocks 0.5
        # right up to its expiry at a whole minute, and is expired there:
        # its unit's instant must end before that minute, or the floor
        # would keep n0's spare from before the expiry at the expiry.
        cluster = _full_cluster(spares=(200, 0, 0))
        expiring = Scaled(FixedLifetimeImportance(p=1.0, expire_after=days(1)), 0.5)
        cluster.nodes["n0"].accept(
            StoredObject(size=150, t_arrival=0.0, lifetime=expiring, object_id="expiring"), 0.0
        )
        assert _floor_refuses(cluster, 300, 60.0, "a")
        now = days(1)
        decision, _result = cluster.offer(_stable(0.5, 180, now, "b"), now)
        assert decision.placed and decision.node_id == "n0"

    def test_a_joined_unit_enters_the_floor(self):
        cluster = _full_cluster()
        assert _floor_refuses(cluster, 300, 60.0, "a")
        ChurnManager(cluster, join_degree=2).join("fresh", 1000, 120.0)
        cluster.placement = PlacementConfig(x=4, m=1)
        decision, _result = cluster.offer(_stable(0.5, 300, 180.0, "b"), 180.0)
        assert decision.placed and decision.node_id == "fresh"

    def test_a_failed_join_leaves_the_cluster_unchanged(self):
        cluster = _full_cluster()
        churn = ChurnManager(cluster, join_degree=2)
        churn.join_degree = 0  # a joiner with no edge: the overlay splice fails
        nodes, overlay = dict(cluster.nodes), cluster.overlay
        with pytest.raises(OverlayError):
            churn.join("late", 10_000, 60.0)
        assert cluster.nodes == nodes and cluster.overlay is overlay
        assert set(cluster._floor._units) == set(nodes)
        # A half-joined empty unit's spare would hold the floor open.
        assert _floor_refuses(cluster, 300, 60.0, "a")

    def test_a_drained_unit_leaves_the_floor(self):
        cluster = _full_cluster((50, 50, 50, 50))
        churn = ChurnManager(cluster, join_degree=2)
        assert _floor_refuses(cluster, 300, 60.0, "a")
        lost = churn.leave("n3", 120.0).lost
        assert len(lost) == 2  # its residents are gone, and so is the unit
        cluster.placement = PlacementConfig(x=3, m=1)
        assert _floor_refuses(cluster, 300, 180.0, "b")
        cluster.nodes["n0"].store.remove("n0-big", 240.0)
        decision, _result = cluster.offer(_stable(0.5, 300, 300.0, "c"), 300.0)
        assert decision.placed and decision.node_id == "n0"

    def test_an_expelled_unit_is_forgotten(self):
        cluster = _full_cluster()
        node = cluster.expel_node("n2")
        node.store.remove("n2-big", 60.0)  # no longer the cluster's concern
        assert _floor_refuses(cluster, 300, 120.0, "a")


class TestScope:
    def test_an_unmirrored_policy_keeps_the_cluster_walking(self):
        # Too large for every unit: an all-temporal cluster refuses these
        # unwalked; a FIFO cluster walks every time.
        for policy_factory, rounds in ((None, 0), (PalimpsestPolicy, 2)):
            cluster = BesteffsCluster(
                {f"n{i}": 1000 for i in range(3)}, placement=PlacementConfig(x=3, m=2),
                seed=0, policy_factory=policy_factory,
            )
            for i in range(5):
                now = float(60 * i)
                decision, _result = cluster.offer(_stable(0.5, 1500, now, f"o{i}"), now)
                assert not decision.placed and decision.rounds_used == rounds

    def test_one_unmirrored_member_turns_the_floor_off_until_it_leaves(self):
        cluster = _full_cluster()
        assert _floor_refuses(cluster, 300, 60.0, "a")
        node = BesteffsNode("fifo", 1000, policy=PalimpsestPolicy())
        node.accept(_stable(1.0, 1000, 60.0, "fifo-1"), 60.0)
        cluster.adopt_node(node)  # outside the overlay: never sampled
        decision, _result = cluster.offer(_stable(0.5, 300, 120.0, "b"), 120.0)
        assert not decision.placed and decision.rounds_used == 1
        cluster.expel_node("fifo")
        assert _floor_refuses(cluster, 300, 180.0, "c")

    def test_heaps_stay_bounded(self):
        cluster = BesteffsCluster(
            {f"n{i}": 5000 for i in range(4)}, placement=PlacementConfig(x=2, m=1), seed=3
        )
        rng = random.Random(3)
        for i in range(3000):
            now = float(30 * i)
            cluster.offer(_object(rng, now, f"o{i}"), now)
        floor = cluster._floor
        assert 0 < len(floor._levels) <= MAX_LEVELS
        bound = _SLACK * (len(cluster.nodes) + 1)
        assert all(len(level.heap) <= bound for level in floor._levels.values())
        assert len(floor._spare) <= bound

    def test_a_floor_refusal_is_audited_and_counted_like_a_walked_one(self):
        cluster = _full_cluster()
        ledger = AuditLedger()
        obs.enable(audit=ledger)
        try:
            decision, _result = cluster.offer(_stable(0.5, 300, 60.0, "a"), 60.0)
            decisions = obs.STATE.registry.get("placement_decisions_total").series()
        finally:
            obs.disable()
        assert decision.rounds_used == 0 and not decision.placed
        assert list(decisions.values()) == [1.0]
        (record,) = ledger.records_for("a")
        assert (record.action, record.unit, record.reason) == ("reject", "cluster", "all-full")
        assert record.occupancy == pytest.approx(2850 / 3000)


def test_a_floor_refusal_draws_nothing():
    cluster = _full_cluster()
    state = cluster._rng.getstate()
    assert _floor_refuses(cluster, 300, 60.0, "a")
    assert cluster._rng.getstate() == state
