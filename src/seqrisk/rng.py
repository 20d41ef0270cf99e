"""Counter-based random streams with deterministic derivation.

All sampling in the package draws from Philox generators keyed through
``numpy.random.SeedSequence`` spawn keys, so any consumer can be handed an
independent stream identified by ``(seed, key...)`` alone.  A query
(``estimate``, ``paired_estimates``) reads all of its trajectories, in
order, from the one stream ``trajectory_stream(seed)``, keyed ``(0,)``.
Experiment stages use keys of length >= 2 and therefore never collide
with it.  An experiment reads its seed from its spec alone and derives
every stage stream from it with :func:`substream`.
"""

from __future__ import annotations

import numpy as np


def trajectory_stream(seed: int) -> np.random.Generator:
    """The stream a query's trajectories are drawn from, one after another."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for a labeled experiment stage.

    ``key`` must have at least two elements so stage streams and trajectory
    streams partition the spawn-key space.
    """
    if len(key) < 2:
        raise ValueError("stage streams require a key of length >= 2")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )

