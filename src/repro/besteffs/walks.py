"""Random-walk sampling over the overlay.

"Random walks on our p2p overlay help us choose a good set of storage
units" (Section 5.3).  On a (near-)regular connected graph, the endpoint
of a sufficiently long walk is close to uniform over nodes, so repeated
walks yield the ``x`` candidate units the placement rule needs without any
global membership view.  On a plain ``random.Random`` a walk step is one
``getrandbits(k)`` and one lookup in the overlay's linked draw rows
(:func:`_walk`).
"""

from __future__ import annotations

import random
from typing import Generator

from repro.besteffs.overlay import Overlay
from repro.errors import OverlayError
from repro.obs import COUNT_BUCKETS, STATE as _OBS

__all__ = ["random_walk", "sample_nodes", "walk_endpoints"]

#: Default walk length; ≥ the mixing time of the default 8-regular overlay
#: at the paper's 2,000-node scale.
DEFAULT_WALK_LENGTH = 16


def _walk(row: tuple[int, list], length: int, getrandbits) -> int:
    """Endpoint index of one walk from ``row``, over the linked rows of
    :meth:`Overlay.walk_draws`: bits are drawn exactly as
    ``rng.choice(neighbors)`` draws them, so the endpoint — and the RNG
    state left behind — are bit-identical to the string-space walk."""
    k, slots = row
    for _ in range(length):
        while (row := slots[getrandbits(k)]) is None:
            pass  # a draw ``rng.choice`` rejects
        k, slots = row
    return slots[-1]


def random_walk(
    overlay: Overlay, start: str, length: int, rng: random.Random
) -> str:
    """Return the endpoint of a ``length``-step simple random walk."""
    if start not in overlay:
        raise OverlayError(f"walk start {start!r} is not an overlay member")
    if length < 0:
        raise OverlayError(f"walk length must be >= 0, got {length}")
    if type(rng) is random.Random:
        index_of, rows = overlay.walk_draws()
        return overlay.node_ids[_walk(rows[index_of[start]], length, rng.getrandbits)]
    current = start
    for _ in range(length):
        neighbors = overlay.neighbors(current)
        if not neighbors:
            return current  # isolated single-node overlay
        current = rng.choice(neighbors)
    return current


def walk_endpoints(
    overlay: Overlay,
    start: str,
    x: int,
    rng: random.Random,
    *,
    walk_length: int = DEFAULT_WALK_LENGTH,
    max_attempts_factor: int = 8,
) -> Generator[str, None, None]:
    """Yield up to ``x`` *distinct* nodes, one random walk at a time.

    Walk endpoints may repeat, so the sampler walks until it has yielded
    ``x`` distinct units or has spent ``x * max_attempts_factor`` walks —
    on a small overlay fewer than ``x`` distinct nodes may exist at all.
    Each endpoint is yielded when its walk ends, so a caller that stops
    early (placement's direct store) draws no bits for walks it would not
    use: its draws are a prefix of the full sample's.  Arguments are
    checked at the call; the count of walks run is observed when the
    generator finishes or is closed.

    When ``x`` covers the whole overlay the walks cannot discover
    anything a membership scan would not (and on a two-node shard would
    burn ``x * max_attempts_factor`` walks to get there), so that case
    yields the canonical member list without touching the RNG.
    """
    if x < 1:
        raise OverlayError(f"sample size x must be >= 1, got {x}")
    # Resolve the overlay once per sample, not once per walk.
    index_of, rows = overlay.walk_draws()
    start_ix = index_of.get(start)
    if start_ix is None:
        raise OverlayError(f"walk start {start!r} is not an overlay member")
    if x < len(overlay.node_ids) and walk_length < 0:
        raise OverlayError(f"walk length must be >= 0, got {walk_length}")
    limit = x * max_attempts_factor
    return _endpoints(overlay, start, rows[start_ix], x, rng, walk_length, limit)


def _endpoints(overlay, start, start_row, x, rng, walk_length, limit):
    """The walks of :func:`walk_endpoints`, run as they are consumed."""
    members = overlay.node_ids
    attempts = 0
    try:
        if x >= len(members):
            yield from members
            return
        seen: set[str] = set()
        fast = type(rng) is random.Random
        getrandbits = rng.getrandbits
        while len(seen) < x and attempts < limit:
            if fast:
                endpoint = members[_walk(start_row, walk_length, getrandbits)]
            else:
                endpoint = random_walk(overlay, start, walk_length, rng)
            attempts += 1
            if endpoint not in seen:
                seen.add(endpoint)
                yield endpoint
    finally:
        if _OBS.enabled:
            _observe_walks(attempts, walk_length)


def sample_nodes(
    overlay: Overlay, start: str, x: int, rng: random.Random, **options: int
) -> list[str]:
    """All of :func:`walk_endpoints` (same options), as a list."""
    return list(walk_endpoints(overlay, start, x, rng, **options))


def _observe_walks(attempts: int, walk_length: int) -> None:
    """Export one sample's walks (the whole-overlay shortcut walks none)."""
    registry = _OBS.registry
    registry.counter(
        "overlay_walks_total", "Random walks executed by the sampler."
    ).inc(attempts)
    if attempts:
        registry.histogram(
            "overlay_walk_length",
            "Steps taken per random walk.",
            buckets=COUNT_BUCKETS,
        ).observe(walk_length)
    registry.histogram(
        "overlay_sample_attempts",
        "Walks run per sample (up to its decision when stopped early).",
        buckets=COUNT_BUCKETS,
    ).observe(attempts)
