"""The ledger's one line function against the formula it replaced.

``ServeLedgerEntry.canonical_line`` encodes ``to_dict()`` with one
module-level encoder and **no key sort**; it is byte-equal to the parent's
``json.dumps(entry.to_dict(), sort_keys=True)`` only because every literal
behind ``to_dict`` is written in sorted key order.  Both halves of that
argument are pinned here: the bytes, and the property they rely on.
"""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.placement import PlacementDecision
from repro.serve.ledger import (
    FrozenServeLedger,
    ServeLedger,
    ServeLedgerEntry,
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


def entry(*, principal="cam", text="plain", status=StoreStatus.ADMITTED,
          retry_after=None, deadline=None, decision=None, seq=3) -> ServeLedgerEntry:
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
    return ServeLedgerEntry(
        seq=seq, t_submit=1.5, t_decided=2.25, request=request, response=response
    )


def parent_line(e: ServeLedgerEntry) -> str:
    return json.dumps(e.to_dict(), sort_keys=True)


def parent_bytes(entries) -> bytes:
    """``ServeLedger.canonical_bytes`` as the parent commit spelled it."""
    header = {"format": "repro-serve-ledger/1", "entries": len(entries)}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(parent_line(e) for e in sorted(entries, key=lambda e: e.seq))
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
            e = entry(
                principal=text, text=text, status=status, retry_after=retry_after,
                deadline=deadline, decision=decision,
            )
            line = e.canonical_line()
            assert line == parent_line(e)
            assert "\n" not in line and line.isascii()
            assert json.loads(line) == e.to_dict()

    @settings(max_examples=150, deadline=None)
    @given(
        principal=st.text(min_size=1),
        text=st.text(),
        status=st.sampled_from(list(StoreStatus)),
        retry_after=st.none() | st.floats(min_value=0.0, allow_nan=False),
        seq=st.integers(min_value=0, max_value=10**12),
    )
    def test_any_text_in_any_field(self, principal, text, status, retry_after, seq):
        e = entry(
            principal=principal, text=text, status=status, retry_after=retry_after,
            seq=seq,
        )
        assert e.canonical_line() == parent_line(e)


class TestLedgerBytes:
    def shuffled(self) -> ServeLedger:
        ledger = ServeLedger()
        entries = [
            entry(text=NASTY[i % len(NASTY)], status=list(StoreStatus)[i % 6], seq=i)
            for i in range(40)
        ]
        random.Random(5).shuffle(entries)  # decision order != submission order
        for e in entries:
            ledger.record(
                e.request, e.response, t_submit=e.t_submit, t_decided=e.t_decided,
                seq=e.seq,
            )
        return ledger

    def test_canonical_bytes_equal_the_parent_formula(self):
        ledger = self.shuffled()
        assert [e.seq for e in ledger.entries] != sorted(e.seq for e in ledger.entries)
        assert ledger.canonical_bytes() == parent_bytes(ledger.entries)
        assert ServeLedger().canonical_bytes() == parent_bytes(())

    def test_keyed_lines_and_canonical_bytes_are_one_spelling(self):
        ledger = self.shuffled()
        keyed = ledger.keyed_lines()
        assert [seq for seq, _line in keyed] == list(range(40))
        body = ledger.canonical_bytes().decode().splitlines()[1:]
        assert body == [line for _seq, line in keyed]
        merged = merge_ledger_lines(keyed[20:] + keyed[:20])
        assert isinstance(merged, FrozenServeLedger)
        assert merged.canonical_bytes() == ledger.canonical_bytes()


def assert_sorted_at_every_level(value, path="line"):
    if isinstance(value, dict):
        assert list(value) == sorted(value), f"{path}: keys not in sorted order"
        for key, inner in value.items():
            assert_sorted_at_every_level(inner, f"{path}.{key}")


class TestLiteralsAreWrittenInSortedKeyOrder:
    """What the un-sorted encoder relies on."""

    @pytest.mark.parametrize("decision", [None, DECISION])
    def test_to_dict_and_both_canonical_dicts(self, decision):
        e = entry(decision=decision, deadline=90.0, retry_after=1.5)
        assert_sorted_at_every_level(e.request.canonical_dict(), "request")
        assert_sorted_at_every_level(e.response.canonical_dict(), "response")
        assert_sorted_at_every_level(e.to_dict())
        assert set(e.to_dict()) == {"request", "response", "seq", "t_decided", "t_submit"}

    def test_the_header_too(self):
        header = ServeLedger().canonical_bytes().decode().splitlines()[0]
        assert header == json.dumps(
            {"format": "repro-serve-ledger/1", "entries": 0}, sort_keys=True
        )
        assert list(json.loads(header)) == sorted(json.loads(header))
