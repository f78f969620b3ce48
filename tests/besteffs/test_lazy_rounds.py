"""A lazy placement round decides what the eager round decided.

``choose_unit`` walks one endpoint at a time and stops at the probe that
decides the round (a direct store); the eager sampler
(:mod:`tests.oracles.walks`) ran every walk of the round first.  From one
generator state both must return the same decision and the same node, and
the lazy run's random bits must be a prefix of the eager run's: the only
change is that bits for walks nobody probes are no longer drawn.  Swapped
back in under a whole experiment and a whole serving run, the eager
sampler reproduces the artifacts pinned before rounds were lazy.
"""

import random

import pytest

from repro.besteffs import placement
from repro.besteffs.node import BesteffsNode
from repro.besteffs.placement import PlacementConfig, choose_unit
from repro.core.obj import reset_object_ids
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.sim.parallel import RunSpec, execute_spec
from tests.besteffs.test_overlay_walks import _overlays
from tests.besteffs.test_placement_differential import random_object
from tests.integration.test_index_parity import _artifact_sha
from tests.oracles.walks import eager_endpoints, sample_nodes_eagerly
from tests.serve.test_determinism import PINNED


class _LoggedRandom(random.Random):
    """Logs every ``getrandbits`` call (and forces the string-space walk)."""

    def __init__(self, seed=None):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        bits = super().getrandbits(k)
        self.log.append((k, bits))
        return bits


def _eagerly(monkeypatch, rng, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(placement, "walk_endpoints", eager_endpoints)
        return choose_unit(rng=rng, **kwargs)


def _twin(rng):
    twin = type(rng)()
    twin.setstate(rng.getstate())
    return twin


@pytest.mark.parametrize("expelled", [False, True])
@pytest.mark.parametrize("rng_type", [random.Random, _LoggedRandom])
@pytest.mark.parametrize("name", list(_overlays()))
def test_lazy_rounds_decide_as_eager_rounds(monkeypatch, name, rng_type, expelled):
    overlay = _overlays()[name]
    rng = random.Random(len(name))
    members = list(overlay.node_ids)
    if expelled and len(members) > 4:
        # Still overlay members, no longer nodes: probed and skipped.
        members = [m for m in members if m not in set(rng.sample(members, 3))]
    nodes = {
        m: BesteffsNode(m, rng.choice((2000, 4000))) for m in members
    }
    configs = [
        PlacementConfig(x=1, m=1, walk_length=16),
        PlacementConfig(x=3, m=2, walk_length=5),
        PlacementConfig(x=5, m=3, walk_length=16),
        PlacementConfig(x=len(overlay.node_ids), m=2, walk_length=4),  # the whole overlay
    ]
    walker = rng_type(7)
    now = 0.0
    reasons, saved = set(), 0
    for step in range(400):
        now += float(rng.randrange(0, 600))
        obj = random_object(rng, now, f"o-{step}")
        config = configs[step % len(configs)]
        twin = _twin(walker)
        if rng_type is _LoggedRandom:
            walker.log, twin.log = [], []
        kwargs = dict(nodes=nodes, overlay=overlay, obj=obj, now=now, config=config)
        decision, node = choose_unit(rng=walker, **kwargs)
        expected, expected_node = _eagerly(monkeypatch, twin, **kwargs)
        assert decision == expected, f"step {step}"
        assert node is expected_node, f"step {step}"
        if rng_type is _LoggedRandom:
            assert walker.log == twin.log[: len(walker.log)], f"step {step}"
            saved += len(twin.log) - len(walker.log)
        if decision.reason != "direct":
            # A round that did not stop early ran every walk of the sample.
            assert walker.getstate() == twin.getstate(), f"step {step}"
        reasons.add(decision.reason)
        if node is not None:
            assert node.accept(obj, now).admitted
    assert reasons == {"direct", "lowest-preempted", "all-full"}
    if rng_type is _LoggedRandom and len(overlay.node_ids) > 1:
        assert saved > 0  # some direct stores skipped walks


def test_the_eager_oracle_is_the_full_lazy_sample():
    for name, overlay in _overlays().items():
        for x in (1, 3, len(overlay.node_ids)):
            lazy, eager = random.Random(x), random.Random(x)
            for start in overlay.node_ids[:4]:
                assert list(placement.walk_endpoints(overlay, start, x, lazy)) == (
                    sample_nodes_eagerly(overlay, start, x, eager)
                ), name
                assert lazy.getstate() == eager.getstate()


# -- the eager replay: the parent's pins, byte for byte ---------------------

#: ``tests/besteffs/test_placement_differential.py``'s sec53 spec, and its
#: artifact sha256 while rounds were eager.
_SEC53 = RunSpec("sec53", {"scale": 0.01, "node_capacities_gib": (24,)}, seed=11,
                 horizon_days=200.0)
_SEC53_EAGER_SHA = "f7b65cd9ea56820bcee35026cc020531824a6744cdb336d679084a457ac67339"
#: ``TestPinnedLedgers``' flashcrowd-1-shard ledger while rounds were eager.
_FLASH_1_EAGER_SHA = "ddf0925234a8f1a854c570eb3943b5cd3a96284cb33b0a8100ceb5353974b509"


def test_eager_replay_reproduces_the_eager_sec53_artifact(monkeypatch):
    lazy = execute_spec(_SEC53)
    monkeypatch.setattr(placement, "walk_endpoints", eager_endpoints)
    eager = execute_spec(_SEC53)
    assert lazy.ok and eager.ok
    assert _artifact_sha(eager) == _SEC53_EAGER_SHA
    assert _artifact_sha(lazy) != _SEC53_EAGER_SHA  # the skipped draws moved it


def test_eager_replay_reproduces_the_eager_flashcrowd_ledger(monkeypatch):
    kwargs, _status, lazy_sha = PINNED["flashcrowd-1-shard"]
    monkeypatch.setattr(placement, "walk_endpoints", eager_endpoints)
    reset_object_ids()
    report = run_loadgen(LoadGenSpec(**kwargs), jobs=1)
    assert report.ledger.canonical_sha256() == _FLASH_1_EAGER_SHA != lazy_sha
