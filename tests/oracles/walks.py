"""The eager walk sampler ``repro.besteffs.walks`` ran before rounds were lazy.

``sample_nodes`` used to run every walk of a round before placement
probed the first endpoint, so a round that stopped at a direct store had
already drawn the bits of walks nobody probed.  ``walk_endpoints`` now
yields each distinct endpoint as its walk ends; this loop is the
reference it must reproduce, endpoint for endpoint, and — swapped into
placement — the run whose artifacts the lazy sampler's pins replaced.
"""

from __future__ import annotations

import random

from repro.besteffs import walks
from repro.besteffs.overlay import Overlay
from repro.besteffs.walks import DEFAULT_WALK_LENGTH, random_walk
from repro.errors import OverlayError

__all__ = ["eager_endpoints", "sample_nodes_eagerly"]


def sample_nodes_eagerly(
    overlay: Overlay,
    start: str,
    x: int,
    rng: random.Random,
    *,
    walk_length: int = DEFAULT_WALK_LENGTH,
    max_attempts_factor: int = 8,
) -> list[str]:
    """Run every walk of the sample, then return its distinct endpoints."""
    if x < 1:
        raise OverlayError(f"sample size x must be >= 1, got {x}")
    index_of, rows = overlay.walk_draws()
    start_ix = index_of.get(start)
    if start_ix is None:
        raise OverlayError(f"walk start {start!r} is not an overlay member")
    members = overlay.node_ids
    found: list[str] = []
    attempts = 0
    if x >= len(members):
        found = list(members)
    else:
        if walk_length < 0:
            raise OverlayError(f"walk length must be >= 0, got {walk_length}")
        seen: set[str] = set()
        limit = x * max_attempts_factor
        fast = type(rng) is random.Random
        while len(found) < x and attempts < limit:
            if fast:
                endpoint = members[walks._walk(rows[start_ix], walk_length, rng.getrandbits)]
            else:
                endpoint = random_walk(overlay, start, walk_length, rng)
            attempts += 1
            if endpoint not in seen:
                seen.add(endpoint)
                found.append(endpoint)
    if walks._OBS.enabled:
        walks._observe_walks(attempts, walk_length)
    return found


def eager_endpoints(overlay, start, x, rng, **kwargs):
    """``walk_endpoints`` with the eager loop behind it: every walk of the
    round runs before its first endpoint is yielded (patch it over
    ``repro.besteffs.placement.walk_endpoints``)."""
    yield from sample_nodes_eagerly(overlay, start, x, rng, **kwargs)
