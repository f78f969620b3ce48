"""Capability-based authentication and authorisation (paper Section 4.1).

Besteffs implements "authentication, authorization and fair resource
allocation ... in a completely distributed fashion".  This module provides
the auth half as HMAC-signed **capability tokens**: any node holding the
realm key can verify a capability locally — no directory service, no
round trips — which is exactly the property a fully distributed store
needs.

A capability grants a *principal* (e.g. ``camera-17`` or
``student:alice``) the right to perform actions (``store`` / ``read`` /
``delete``) up to a byte limit and an initial-importance ceiling.  The
importance ceiling is the hook the fairness layer uses: student cameras
receive capabilities capped at importance 0.5, so the 50 % pegging of
Section 5.2 is enforced rather than merely assumed.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.obj import StoredObject
from repro.errors import ReproError

__all__ = ["AuthError", "Capability", "CapabilityRealm"]


class AuthError(ReproError):
    """A capability is forged, expired, or does not permit the action."""


#: Actions a capability can grant.
ACTIONS = ("store", "read", "delete")


@dataclass(frozen=True)
class Capability:
    """An unforgeable, locally verifiable grant.

    ``signature`` is an HMAC-SHA256 over the canonical payload; only
    :class:`CapabilityRealm` (which holds the key) can mint valid ones.
    """

    principal: str
    actions: tuple[str, ...]
    max_object_bytes: int
    max_initial_importance: float
    expires_at_minutes: float
    signature: str = field(default="", compare=False)

    @cached_property
    def _payload(self) -> bytes:
        return json.dumps(
            {
                "principal": self.principal,
                "actions": list(self.actions),
                "max_object_bytes": self.max_object_bytes,
                "max_initial_importance": self.max_initial_importance,
                "expires_at_minutes": self.expires_at_minutes,
            },
            sort_keys=True,
        ).encode()

    def payload(self) -> bytes:
        """Canonical signed byte representation, encoded once per instance.

        A pure function of the frozen fields, kept in the instance
        ``__dict__`` where no dataclass-generated method looks (``==``,
        ``hash``, ``repr``, ``asdict``; ``replace`` builds a new instance
        that encodes its own).  Only the encoding is remembered: every
        :meth:`CapabilityRealm.verify` recomputes the HMAC over it.
        """
        return self._payload

    def same_token(self, other: Capability) -> bool:
        """Whether ``other`` presents the same fields *and* signature.

        ``==`` ignores ``signature`` (``compare=False``); this is the
        identity under which one token's verification outcome is
        another's.  A malformed signature matches nothing but itself.
        """
        if self is other:
            return True
        try:
            return self == other and hmac.compare_digest(self.signature, other.signature)
        except TypeError:
            return False

    def allows(self, action: str) -> bool:
        return action in self.actions


class CapabilityRealm:
    """Mints and verifies capabilities for one deployment.

    Every storage node is provisioned with the realm key (a deployment
    secret) and verifies capabilities locally; clients hold only their own
    tokens.
    """

    def __init__(self, key: bytes):
        if not key:
            raise AuthError("realm key must be non-empty")
        self._key = key

    def mint(
        self,
        principal: str,
        *,
        actions: tuple[str, ...] = ("store", "read"),
        max_object_bytes: int = 2**40,
        max_initial_importance: float = 1.0,
        expires_at_minutes: float = math.inf,
    ) -> Capability:
        """Create a signed capability for ``principal``."""
        if not principal:
            raise AuthError("principal must be non-empty")
        for action in actions:
            if action not in ACTIONS:
                raise AuthError(f"unknown action {action!r}")
        if not 0.0 <= max_initial_importance <= 1.0:
            raise AuthError("importance ceiling must lie in [0, 1]")
        if max_object_bytes <= 0:
            raise AuthError("byte limit must be positive")
        unsigned = Capability(
            principal=principal,
            actions=tuple(actions),
            max_object_bytes=max_object_bytes,
            max_initial_importance=max_initial_importance,
            expires_at_minutes=expires_at_minutes,
        )
        return replace(unsigned, signature=self._sign(unsigned))

    def verify(self, capability: Capability, now: float) -> None:
        """Raise :class:`AuthError` unless the capability is valid now.

        The HMAC is recomputed and compared on every call; a verdict is
        never remembered (it is what makes a token unforgeable, and expiry
        depends on ``now``).
        """
        signature = capability.signature
        # compare_digest raises TypeError for bytes, None and non-ASCII
        # str: anything but the exact hex digest is a forgery, not a crash.
        if not (
            isinstance(signature, str)
            and signature.isascii()
            and hmac.compare_digest(self._sign(capability), signature)
        ):
            raise AuthError(f"forged capability for {capability.principal!r}")
        if now > capability.expires_at_minutes:
            raise AuthError(
                f"capability for {capability.principal!r} expired at "
                f"{capability.expires_at_minutes}"
            )

    def authorize_store(
        self, capability: Capability, obj: StoredObject, now: float
    ) -> None:
        """Check a store request against the capability's limits.

        Verifies the signature and expiry, the ``store`` action, the byte
        limit, and — crucially for fairness — that the object's *initial*
        importance does not exceed the ceiling the principal was granted.
        """
        self.verify(capability, now)
        if not capability.allows("store"):
            raise AuthError(f"{capability.principal!r} may not store objects")
        if obj.size > capability.max_object_bytes:
            raise AuthError(
                f"object of {obj.size} bytes exceeds {capability.principal!r}'s "
                f"limit of {capability.max_object_bytes}"
            )
        initial = obj.lifetime.initial_importance
        if initial > capability.max_initial_importance + 1e-12:
            raise AuthError(
                f"initial importance {initial:.3f} exceeds "
                f"{capability.principal!r}'s ceiling of "
                f"{capability.max_initial_importance:.3f}"
            )

    def _sign(self, capability: Capability) -> str:
        return hmac.new(self._key, capability.payload(), hashlib.sha256).hexdigest()
