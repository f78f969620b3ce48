"""Random-walk sampling over the overlay.

"Random walks on our p2p overlay help us choose a good set of storage
units" (Section 5.3).  On a (near-)regular connected graph, the endpoint
of a sufficiently long walk is close to uniform over nodes, so repeated
walks yield the ``x`` candidate units the placement rule needs without any
global membership view.
"""

from __future__ import annotations

import random

from repro.besteffs.overlay import Overlay
from repro.errors import OverlayError
from repro.obs import COUNT_BUCKETS, STATE as _OBS

__all__ = ["random_walk", "sample_nodes"]

#: Default walk length; ≥ the mixing time of the default 8-regular overlay
#: at the paper's 2,000-node scale.
DEFAULT_WALK_LENGTH = 16


def _walk(draws, start_ix: int, length: int, getrandbits) -> int:
    """Endpoint index of one walk over :meth:`Overlay.walk_draws` rows:
    bits are drawn exactly as ``rng.choice(neighbors)`` draws them, so the
    endpoint — and the RNG state left behind — are bit-identical to the
    string-space walk."""
    current = start_ix
    if len(draws) > 1:  # else: the isolated node of a single-node overlay
        for _ in range(length):
            k, row = draws[current]
            current = row[getrandbits(k)]
            while current < 0:
                current = row[getrandbits(k)]
    return current


def random_walk(
    overlay: Overlay, start: str, length: int, rng: random.Random
) -> str:
    """Return the endpoint of a ``length``-step simple random walk."""
    if start not in overlay:
        raise OverlayError(f"walk start {start!r} is not an overlay member")
    if length < 0:
        raise OverlayError(f"walk length must be >= 0, got {length}")
    if type(rng) is random.Random:
        index_of, draws = overlay.walk_draws()
        return overlay.node_ids[_walk(draws, index_of[start], length, rng.getrandbits)]
    current = start
    for _ in range(length):
        neighbors = overlay.neighbors(current)
        if not neighbors:
            return current  # isolated single-node overlay
        current = rng.choice(neighbors)
    return current


def sample_nodes(
    overlay: Overlay,
    start: str,
    x: int,
    rng: random.Random,
    *,
    walk_length: int = DEFAULT_WALK_LENGTH,
    max_attempts_factor: int = 8,
) -> list[str]:
    """Collect up to ``x`` *distinct* nodes via independent random walks.

    Walk endpoints may repeat, so the sampler retries until it has ``x``
    distinct units or has spent ``x * max_attempts_factor`` walks — on a
    small overlay fewer than ``x`` distinct nodes may exist at all, in
    which case every member found is returned.

    When ``x`` covers the whole overlay the walks cannot discover
    anything a membership scan would not: the best possible outcome is
    "every node", and on a two-node shard the sampler would burn
    ``x * max_attempts_factor`` sixteen-step walks to get there.  That
    case short-circuits to the canonical member list without touching
    the RNG, so callers that stay below the overlay size (every
    full-cluster path) draw exactly the bits they always did.
    """
    if x < 1:
        raise OverlayError(f"sample size x must be >= 1, got {x}")
    # Resolve the overlay once per sample, not once per walk.
    index_of, draws = overlay.walk_draws()
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
        getrandbits = rng.getrandbits
        while len(found) < x and attempts < limit:
            if fast:
                endpoint = members[_walk(draws, start_ix, walk_length, getrandbits)]
            else:
                endpoint = random_walk(overlay, start, walk_length, rng)
            attempts += 1
            if endpoint not in seen:
                seen.add(endpoint)
                found.append(endpoint)
    if _OBS.enabled:
        registry = _OBS.registry
        registry.counter(
            "overlay_walks_total", "Random walks executed by the sampler."
        ).inc(attempts)
        if attempts:  # none on the whole-overlay shortcut
            registry.histogram(
                "overlay_walk_length",
                "Steps taken per random walk.",
                buckets=COUNT_BUCKETS,
            ).observe(walk_length)
        registry.histogram(
            "overlay_sample_attempts",
            "Walks needed to collect the requested distinct units.",
            buckets=COUNT_BUCKETS,
        ).observe(attempts)
    return found
