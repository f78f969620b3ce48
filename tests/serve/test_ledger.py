"""The ledger's one line function against the formula it replaced.

A ledger entry is a flat tuple of scalars (``ENTRY_FIELDS``); its line is
``entry_dict`` encoded with one module-level encoder and **no key sort**.
That is byte-equal to the original ``json.dumps(entry.to_dict(),
sort_keys=True)`` over the typed request/response pair only because the
literal behind ``entry_dict`` is written in sorted key order.  Both halves
of that argument are pinned here: the bytes, and the property they rely on.
"""

import gc
import hashlib
import itertools
import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.placement import PlacementDecision
from repro.serve.ledger import (
    ENTRY_FIELDS,
    FrozenServeLedger,
    ServeLedger,
    entry_dict,
    merge_entries,
    merge_ledger_lines,
)
from repro.serve.protocol import StoreRequest, StoreResponse, StoreStatus
from tests.conftest import make_obj

REALM = CapabilityRealm(b"ledger-tests")

#: Quotes, backslashes, control characters, non-ASCII (BMP and astral),
#: and a string that looks like the line's own syntax.
NASTY = ['plain', 'q"uo"te', "back\\slash", "ctl\x00\x1f\n\t", "naïve-日本-🙂", '", "seq": 0}']

DECISION = PlacementDecision(
    placed=True, node_id="node-\"7\"", rounds_used=1, nodes_probed=4,
    chosen_score=0.25, reason="lowest-preempted",
)


def pair(*, principal="cam", text="plain", status=StoreStatus.ADMITTED,
         retry_after=None, deadline=None, decision=None):
    request = StoreRequest(
        capability=REALM.mint(principal),
        obj=make_obj(0.1, t_arrival=1.5, object_id=f"obj-{text}", creator=text),
        request_id=f"req-{text}",
        deadline=deadline,
    )
    response = StoreResponse(
        request_id=request.request_id,
        status=status,
        detail=f"detail {text}",
        decision=decision,
        cost_charged=1234.5,
        retry_after=retry_after,
    )
    return request, response


def nested(request, response, seq, t_submit=1.5, t_decided=2.25) -> dict:
    """An entry's line object, built from the typed pair as the original
    ``to_dict`` / ``canonical_dict`` methods built it (in no key order)."""
    return {
        "seq": seq,
        "t_submit": t_submit,
        "t_decided": t_decided,
        "request": {
            "request_id": request.request_id,
            "principal": request.capability.principal,
            "object_id": request.obj.object_id,
            "size": request.obj.size,
            "creator": request.obj.creator,
            "t_arrival": request.obj.t_arrival,
            "deadline": request.deadline,
        },
        "response": {
            "request_id": response.request_id,
            "status": response.status.value,
            "detail": response.detail,
            "node_id": response.decision.node_id if response.decision else None,
            "cost_charged": response.cost_charged,
            "retry_after": response.retry_after,
        },
    }


def recorded(request, response, seq=3) -> tuple[tuple, str]:
    """``(entry, line)`` of one pair recorded on a fresh ledger."""
    ledger = ServeLedger()
    entry = ledger.record(request, response, t_submit=1.5, t_decided=2.25, seq=seq)
    (line,) = ledger.lines
    return entry, line


def parent_bytes(dicts) -> bytes:
    """``ServeLedger.canonical_bytes`` as the original commit spelled it."""
    header = {"format": "repro-serve-ledger/1", "entries": len(dicts)}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(d, sort_keys=True) for d in sorted(dicts, key=lambda d: d["seq"])
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestLineEqualsTheSortedDump:
    @pytest.mark.parametrize(
        "status, retry_after, deadline, decision",
        itertools.product(
            StoreStatus, [None, 0.0, 1.5, math.inf], [None, 90.0], [None, DECISION]
        ),
    )
    def test_every_shape_of_entry(self, status, retry_after, deadline, decision):
        for text in NASTY:
            request, response = pair(
                principal=text, text=text, status=status, retry_after=retry_after,
                deadline=deadline, decision=decision,
            )
            entry, line = recorded(request, response)
            assert line == json.dumps(nested(request, response, 3), sort_keys=True)
            assert "\n" not in line and line.isascii()
            assert json.loads(line) == entry_dict(entry) == nested(request, response, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        principal=st.text(min_size=1),
        text=st.text(),
        status=st.sampled_from(list(StoreStatus)),
        retry_after=st.none() | st.floats(min_value=0.0, allow_nan=False),
        seq=st.integers(min_value=0, max_value=10**12),
    )
    def test_any_text_in_any_field(self, principal, text, status, retry_after, seq):
        request, response = pair(
            principal=principal, text=text, status=status, retry_after=retry_after
        )
        _entry, line = recorded(request, response, seq)
        assert line == json.dumps(nested(request, response, seq), sort_keys=True)


class TestLedgerBytes:
    def shuffled(self) -> tuple[ServeLedger, list[dict]]:
        ledger = ServeLedger()
        pairs = [
            (i, *pair(text=NASTY[i % len(NASTY)], status=list(StoreStatus)[i % 6]))
            for i in range(40)
        ]
        random.Random(5).shuffle(pairs)  # decision order != submission order
        for seq, request, response in pairs:
            ledger.record(request, response, t_submit=1.5, t_decided=2.25, seq=seq)
        return ledger, [nested(request, response, seq) for seq, request, response in pairs]

    def test_canonical_bytes_equal_the_parent_formula(self):
        ledger, dicts = self.shuffled()
        appended = [entry[0] for entry in ledger._entries]
        assert appended != sorted(appended)
        assert [entry[0] for entry in ledger] == sorted(appended)
        assert ledger.canonical_bytes() == parent_bytes(dicts)
        assert ServeLedger().canonical_bytes() == parent_bytes(())

    def test_keyed_lines_and_canonical_bytes_are_one_spelling(self, tmp_path):
        ledger, dicts = self.shuffled()
        keyed = ledger.keyed_lines()
        assert [seq for seq, _line in keyed] == list(range(40))
        body = ledger.canonical_bytes().decode().splitlines()[1:]
        assert body == [line for _seq, line in keyed] == ledger.lines
        assert ledger.entry_dicts() == sorted(dicts, key=lambda d: d["seq"])
        assert ledger.canonical_sha256() == hashlib.sha256(ledger.canonical_bytes()).hexdigest()
        assert ledger.write_jsonl(tmp_path / "l.jsonl").read_bytes() == ledger.canonical_bytes()

    def test_merged_is_the_local_ledger_in_any_shard_order(self):
        ledger, _dicts = self.shuffled()
        entries = list(ledger)
        merged = merge_entries(entries[20:] + entries[:20])
        assert type(merged) is ServeLedger is FrozenServeLedger
        assert merge_ledger_lines is merge_entries
        assert merged == merge_entries(entries)
        assert merged.canonical_bytes() == ledger.canonical_bytes()
        assert merged.canonical_sha256() == ledger.canonical_sha256()

    def test_duplicate_seq_across_shards_raises(self):
        ledger, _dicts = self.shuffled()
        entries = list(ledger)
        with pytest.raises(ValueError, match="duplicate ledger sequence"):
            merge_entries(entries + entries[7:8])


class TestRecordFlattens:
    def test_record_does_not_retain_the_response(self):
        # What the serving path's memory rests on: a ledger of n entries
        # pins n tuples of scalars, not n responses and their decisions.
        ledger = ServeLedger()
        request, response = pair(decision=DECISION, retry_after=1.5)
        alive = weakref.ref(response)
        ledger.record(request, response, t_submit=1.5, t_decided=2.25, seq=0)
        del response
        gc.collect()
        assert alive() is None
        assert len(ledger) == 1

    def test_an_entry_is_scalars_in_field_order(self):
        request, response = pair(decision=DECISION, retry_after=1.5, deadline=90.0)
        entry, _line = recorded(request, response)
        assert len(entry) == len(ENTRY_FIELDS) == 15
        assert all(
            value is None or type(value) in (int, float, str) for value in entry
        )
        by_name = dict(zip(ENTRY_FIELDS, entry))
        assert by_name["seq"] == 3 and by_name["t_decided"] == 2.25
        assert by_name["node_id"] == DECISION.node_id
        assert by_name["status"] == "admitted"

    def test_field_names_and_line_keys_agree(self):
        # Feed the column names through as values: every leaf of the line
        # object must sit under the key that names its column.
        line = entry_dict(ENTRY_FIELDS)
        leaves = {**line["request"], **line["response"]}
        leaves.update((k, v) for k, v in line.items() if k not in ("request", "response"))
        assert all(key == value for key, value in leaves.items())
        assert set(leaves) == set(ENTRY_FIELDS)


def assert_sorted_at_every_level(value, path="line"):
    if isinstance(value, dict):
        assert list(value) == sorted(value), f"{path}: keys not in sorted order"
        for key, inner in value.items():
            assert_sorted_at_every_level(inner, f"{path}.{key}")


class TestLiteralsAreWrittenInSortedKeyOrder:
    """What the un-sorted encoder relies on."""

    @pytest.mark.parametrize("decision", [None, DECISION])
    def test_to_dict_and_both_canonical_dicts(self, decision):
        request, response = pair(decision=decision, deadline=90.0, retry_after=1.5)
        entry, _line = recorded(request, response)
        line = entry_dict(entry)
        assert_sorted_at_every_level(line)
        assert set(line) == {"request", "response", "seq", "t_decided", "t_submit"}
        assert len(line["request"]) == 7 and len(line["response"]) == 6

    def test_the_header_too(self):
        header = ServeLedger().canonical_bytes().decode().splitlines()[0]
        assert header == json.dumps(
            {"format": "repro-serve-ledger/1", "entries": 0}, sort_keys=True
        )
        assert list(json.loads(header)) == sorted(json.loads(header))
