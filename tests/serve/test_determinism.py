"""Determinism pin: a seeded loadgen run maps to one byte-exact ledger.

The serving stack is only a faithful reproduction harness if outcome
state never depends on wall-clock scheduling.  These tests run the same
seeded spec twice (with fresh auto object-ids between runs) and demand
byte-identical canonical ledgers — the regression tripwire for anyone
who lets ``perf_counter`` or host ordering leak into the request path.
"""

import json

import pytest

from repro.core.obj import reset_object_ids
from repro.serve.ledger import ServeLedger
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.serve.protocol import StoreRequest, StoreResponse, StoreStatus
from repro.besteffs.auth import CapabilityRealm
from tests.conftest import make_obj


def run_twice(spec):
    reset_object_ids()
    first = run_loadgen(spec)
    reset_object_ids()
    second = run_loadgen(spec)
    return first, second


class TestSeededReplays:
    def test_closed_loop_ledger_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="university", mode="closed", clients=4, nodes=4,
            horizon_days=10.0, scale=0.005, seed=7, max_requests=80,
        )
        first, second = run_twice(spec)
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()
        assert first.ledger.canonical_sha256() == second.ledger.canonical_sha256()

    def test_open_loop_with_shedding_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="downloads", mode="open", clients=1, nodes=1,
            horizon_days=20.0, seed=3, queue_size=8, batch_max=4,
            open_burst=16, max_requests=300,
        )
        first, second = run_twice(spec)
        # The run must actually shed for this pin to mean anything.
        assert first.shed_by_reason.get("queue-full", 0) > 0
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()

    def test_rate_limited_run_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="university", mode="closed", clients=2, nodes=2,
            horizon_days=10.0, scale=0.005, seed=11, max_requests=80,
            rate_per_minute=0.05, rate_burst=2.0,
        )
        first, second = run_twice(spec)
        assert first.shed_by_reason.get("ratelimit", 0) > 0
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()


_SMALL = dict(
    horizon_days=10.0, scale=0.02, clients=4, nodes=4, seed=7, max_requests=150
)
_FLASH = dict(
    _SMALL, workload="flashcrowd", nodes=8, clients=8, burst_factor=3.0,
    high_water=4, window_minutes=720.0, max_requests=400,
)
_DOWNLOADS = dict(
    workload="downloads", nodes=1, clients=1, horizon_days=20.0, seed=3,
    max_requests=300,
)

#: ``id: (spec, a status the run must produce, ledger sha256)``.  The
#: hashes were captured at commit 0214633, where ``shards == 1`` still ran
#: its own gateway, drive loop and report: they pin the one serving path
#: to the bytes both of its predecessors wrote.  The ``flashcrowd-*`` ones
#: were re-captured when the flash burst's arrivals were rounded up to
#: whole minutes (a unit decides only at whole minutes); that round-up,
#: applied alone to the earlier code, writes the same bytes.
PINNED = {
    "university-closed": (
        dict(_SMALL, workload="university", node_capacity_gib=0.25),
        "rejected-placement",
        "f99e29131d5007bcb8f42ccb9c3c2a956971e22d8bcf3aa4bd48ba118dd39f9b",
    ),
    "university-open": (
        dict(_SMALL, workload="university", node_capacity_gib=0.25, mode="open"),
        "rejected-placement",
        "29b0984253d98638f2e20e3830b974129b6b92016f0cbad8492fca717aa64d2b",
    ),
    "downloads-closed": (
        dict(_SMALL, workload="downloads", horizon_days=20.0),
        "admitted",
        "799abf9e485b61867cb165f16aca0b98623924ddc966142381e56d2f98a1008d",
    ),
    "downloads-open": (
        dict(_SMALL, workload="downloads", horizon_days=20.0, mode="open"),
        "admitted",
        "e17e8469380920a81c6880864da26902c964724d8c338dbbd26837fa2cc2f51c",
    ),
    "diurnal-closed": (
        dict(_SMALL, workload="diurnal", horizon_days=30.0),
        "rejected-placement",
        "a7efebecb9d773b72d597a5922a6eda241a05860b0d551ebc8528d233c50788f",
    ),
    "diurnal-open": (
        dict(_SMALL, workload="diurnal", horizon_days=30.0, mode="open"),
        "rejected-placement",
        "c2ea2737b9d232b7030e8b7e8a66cf9a17dc9c16bcc826e98636d8f6d1a0d73d",
    ),
    "flashcrowd-1-shard": (
        dict(_FLASH, shards=1),
        "rejected-fairness",
        "ddf0925234a8f1a854c570eb3943b5cd3a96284cb33b0a8100ceb5353974b509",
    ),
    "flashcrowd-2-shards": (
        dict(_FLASH, shards=2),
        "rejected-fairness",
        "73ca11553321084cb36343929fe15ecb51f9408a4afa3874e6437ea960899ff8",
    ),
    "flashcrowd-4-shards": (
        dict(_FLASH, shards=4),
        "rejected-fairness",
        "d1633f01a600947b43f52377d1586337f70e3e4daa7e202e3034430ce02af6bf",
    ),
    "deadline": (
        dict(_DOWNLOADS, nodes=2, clients=8, batch_max=2, deadline_minutes=360.0),
        "expired-in-queue",
        "7d3addc7fa9a6954648b19ac0fd6ff62fe9a51cabe79c76a9c88dec6c6770e4e",
    ),
    "ratelimit": (
        dict(_SMALL, workload="university", clients=2, nodes=2, seed=11,
             max_requests=80, rate_per_minute=0.05, rate_burst=2.0),
        "shed-backpressure",
        "08b163fe4617c1b440a0711da3596c7ea9950a4aefe6a485b176d19e66f5b696",
    ),
    "queue-full": (
        dict(_DOWNLOADS, mode="open", queue_size=8, batch_max=4, open_burst=16),
        "shed-backpressure",
        "77aad555c96069fd1e6cf84a635a207be69019327c624438cff1ff06d69c78fe",
    ),
}


class TestPinnedLedgers:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", PINNED)
    def test_ledger_sha256_is_the_parent_commits(self, name, jobs):
        kwargs, status, sha256 = PINNED[name]
        reset_object_ids()
        report = run_loadgen(LoadGenSpec(**kwargs), jobs=jobs)
        assert report.responses_by_status.get(status, 0) > 0
        assert report.ledger.canonical_sha256() == sha256


class TestCanonicalForm:
    def make_ledger(self):
        realm = CapabilityRealm(b"canonical-tests")
        cap = realm.mint("cam")
        ledger = ServeLedger()
        # Record out of submission order, as batching does.
        for seq in (1, 0):
            obj = make_obj(0.1, t_arrival=float(seq), object_id=f"obj-{seq}")
            ledger.record(
                StoreRequest(capability=cap, obj=obj),
                StoreResponse(
                    request_id=f"req-obj-{seq}",
                    status=StoreStatus.ADMITTED,
                    detail="placed on n0",
                ),
                t_submit=float(seq),
                t_decided=2.0,
                seq=seq,
            )
        return ledger

    def test_header_line_and_entry_order(self):
        lines = self.make_ledger().canonical_bytes().decode().splitlines()
        assert json.loads(lines[0]) == {
            "format": "repro-serve-ledger/1",
            "entries": 2,
        }
        seqs = [json.loads(line)["seq"] for line in lines[1:]]
        assert seqs == [0, 1]  # sorted by submission seq, not append order

    def test_no_wallclock_fields_anywhere(self):
        lines = self.make_ledger().canonical_bytes().decode().splitlines()
        for line in lines[1:]:
            entry = json.loads(line)
            assert set(entry) == {
                "seq", "t_submit", "t_decided", "request", "response",
            }
            assert set(entry["request"]) == {
                "request_id", "principal", "object_id", "size", "creator",
                "t_arrival", "deadline",
            }
            assert set(entry["response"]) == {
                "request_id", "status", "detail", "node_id", "cost_charged",
                "retry_after",
            }

    def test_write_jsonl_is_the_canonical_bytes(self, tmp_path):
        ledger = self.make_ledger()
        path = ledger.write_jsonl(tmp_path / "out" / "ledger.jsonl")
        assert path.read_bytes() == ledger.canonical_bytes()

    def test_keys_are_sorted_within_each_line(self):
        for line in self.make_ledger().canonical_bytes().decode().splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
