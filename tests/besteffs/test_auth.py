"""Tests for capability-based authentication/authorisation."""

import dataclasses
import hmac
import json
import math

import pytest

from repro.besteffs.auth import AuthError, Capability, CapabilityRealm
from repro.core.importance import TwoStepImportance
from repro.units import days, gib
from tests.conftest import make_obj


@pytest.fixture
def realm():
    return CapabilityRealm(b"deployment-secret")


class TestMinting:
    def test_minted_capability_verifies(self, realm):
        cap = realm.mint("camera-1")
        realm.verify(cap, now=0.0)  # should not raise

    def test_other_realm_rejects(self, realm):
        cap = realm.mint("camera-1")
        other = CapabilityRealm(b"different-secret")
        with pytest.raises(AuthError, match="forged"):
            other.verify(cap, now=0.0)

    def test_tampered_capability_rejected(self, realm):
        cap = realm.mint("student:alice", max_initial_importance=0.5)
        upgraded = dataclasses.replace(cap, max_initial_importance=1.0)
        with pytest.raises(AuthError, match="forged"):
            realm.verify(upgraded, now=0.0)

    def test_expiry_enforced(self, realm):
        cap = realm.mint("camera-1", expires_at_minutes=days(1))
        realm.verify(cap, now=days(0.5))
        with pytest.raises(AuthError, match="expired"):
            realm.verify(cap, now=days(2))

    @pytest.mark.parametrize("kwargs", [
        {"actions": ("fly",)},
        {"max_initial_importance": 1.5},
        {"max_object_bytes": 0},
    ])
    def test_invalid_grants_rejected(self, realm, kwargs):
        with pytest.raises(AuthError):
            realm.mint("p", **kwargs)

    def test_empty_principal_and_key_rejected(self, realm):
        with pytest.raises(AuthError):
            realm.mint("")
        with pytest.raises(AuthError):
            CapabilityRealm(b"")


class TestAuthorizeStore:
    def test_within_limits_passes(self, realm):
        cap = realm.mint("camera-1", max_object_bytes=gib(2))
        realm.authorize_store(cap, make_obj(1.0), now=0.0)

    def test_store_action_required(self, realm):
        cap = realm.mint("reader", actions=("read",))
        with pytest.raises(AuthError, match="may not store"):
            realm.authorize_store(cap, make_obj(1.0), now=0.0)

    def test_byte_limit_enforced(self, realm):
        cap = realm.mint("small", max_object_bytes=gib(1))
        with pytest.raises(AuthError, match="exceeds"):
            realm.authorize_store(cap, make_obj(2.0), now=0.0)

    def test_importance_ceiling_enforces_student_pegging(self, realm):
        # The Section 5.2 policy: student cameras start at 50% importance.
        cap = realm.mint("student:bob", max_initial_importance=0.5)
        allowed = make_obj(
            1.0, lifetime=TwoStepImportance(p=0.5, t_persist=days(1), t_wane=days(1))
        )
        realm.authorize_store(cap, allowed, now=0.0)
        greedy = make_obj(
            1.0, lifetime=TwoStepImportance(p=1.0, t_persist=days(1), t_wane=days(1))
        )
        with pytest.raises(AuthError, match="ceiling"):
            realm.authorize_store(cap, greedy, now=0.0)

    def test_default_capability_is_permissive(self, realm):
        cap = realm.mint("admin")
        assert math.isinf(cap.expires_at_minutes)
        realm.authorize_store(cap, make_obj(1.0), now=days(10_000))


def fresh_payload(cap) -> bytes:
    """The signed bytes, encoded from the fields with no memo in the way."""
    return json.dumps(
        {
            "principal": cap.principal,
            "actions": list(cap.actions),
            "max_object_bytes": cap.max_object_bytes,
            "max_initial_importance": cap.max_initial_importance,
            "expires_at_minutes": cap.expires_at_minutes,
        },
        sort_keys=True,
    ).encode()


class TestPayloadIsEncodedOncePerInstance:
    def test_payload_equals_a_fresh_encoding(self, realm):
        minted = realm.mint("student:alice", max_initial_importance=0.5)
        replaced = dataclasses.replace(minted, max_initial_importance=1.0)
        unsigned = Capability("p", ("store",), 10, 0.25, math.inf)
        for cap in (minted, replaced, unsigned):
            assert cap.payload() == fresh_payload(cap)
            assert cap.payload() is cap.payload()  # the same bytes object

    def test_replace_re_encodes(self, realm):
        cap = realm.mint("student:alice", max_initial_importance=0.5)
        cap.payload()  # warm
        upgraded = dataclasses.replace(cap, max_initial_importance=1.0)
        assert upgraded.payload() == fresh_payload(upgraded) != cap.payload()

    def test_the_memo_is_invisible_to_the_dataclass_surface(self, realm):
        cold = realm.mint("camera-1")
        warm = realm.mint("camera-1")
        warm.payload()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        assert [f.name for f in dataclasses.fields(warm)] == [
            "principal", "actions", "max_object_bytes", "max_initial_importance",
            "expires_at_minutes", "signature",
        ]


class TestEveryVerifyRecomputesTheMac:
    def test_warm_cache_does_not_admit_a_tampered_or_foreign_token(self, realm):
        cap = realm.mint("student:alice", max_initial_importance=0.5)
        for _ in range(3):
            realm.verify(cap, now=0.0)  # payload and anything else now warm
        with pytest.raises(AuthError, match="forged"):
            realm.verify(dataclasses.replace(cap, max_initial_importance=1.0), now=0.0)
        with pytest.raises(AuthError, match="forged"):
            realm.verify(dataclasses.replace(cap, signature="0" * 64), now=0.0)
        foreign = CapabilityRealm(b"different-secret").mint(
            "student:alice", max_initial_importance=0.5
        )
        assert foreign == cap  # ``==`` ignores the signature ...
        assert not foreign.same_token(cap)  # ... which is why same_token exists
        with pytest.raises(AuthError, match="forged"):
            realm.verify(foreign, now=0.0)
        realm.verify(cap, now=0.0)  # and the valid one is still valid

    def test_one_hmac_per_verify(self, realm, monkeypatch):
        macs = []
        real_new, real_digest = hmac.new, hmac.digest
        monkeypatch.setattr(
            hmac, "new", lambda *a, **k: macs.append("new") or real_new(*a, **k)
        )
        monkeypatch.setattr(
            hmac, "digest", lambda *a, **k: macs.append("digest") or real_digest(*a, **k)
        )
        cap = realm.mint("camera-1")
        macs.clear()
        for _ in range(1000):
            realm.verify(cap, now=0.0)
        assert len(macs) == 1000  # nobody memoised the verdict

    def test_expiry_is_checked_on_the_call_after_a_success(self, realm):
        cap = realm.mint("camera-1", expires_at_minutes=days(1))
        realm.verify(cap, now=days(1))
        with pytest.raises(AuthError, match="expired"):
            realm.verify(cap, now=days(1) + 1.0)
        realm.authorize_store(cap, make_obj(1.0), now=0.0)
        with pytest.raises(AuthError, match="expired"):
            realm.authorize_store(cap, make_obj(1.0), now=days(2))


class TestMalformedSignature:
    @pytest.mark.parametrize(
        "signature",
        ["é" * 64, b"0" * 64, None, 0, "0" * 63, ""],
        ids=["non-ascii", "bytes", "none", "int", "short", "empty"],
    )
    def test_anything_but_the_hex_digest_is_forged_never_another_error(
        self, realm, signature
    ):
        cap = dataclasses.replace(realm.mint("camera-1"), signature=signature)
        with pytest.raises(AuthError, match="forged"):
            realm.verify(cap, now=0.0)
        with pytest.raises(AuthError, match="forged"):
            realm.authorize_store(cap, make_obj(1.0), now=0.0)

    def test_same_token_needs_fields_and_signature(self, realm):
        cap = realm.mint("camera-1")
        assert cap.same_token(cap)
        assert cap.same_token(realm.mint("camera-1"))  # re-minted: same bytes
        assert not cap.same_token(dataclasses.replace(cap, signature="0" * 64))
        assert not cap.same_token(realm.mint("camera-1", max_object_bytes=5))
        for malformed in ("é" * 64, b"0" * 64, None):
            bad = dataclasses.replace(cap, signature=malformed)
            assert not cap.same_token(bad) and not bad.same_token(cap)
            assert bad.same_token(bad)
