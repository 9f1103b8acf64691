"""Seeding helpers shared by all simulation drivers.

Every stochastic entry point takes either a ``numpy.random.Generator`` or an
integer seed.  Replicate farms derive one independent stream per replicate
index with :func:`replicate_rng`, which is a counter-based split: replicate
``i`` of seed ``s`` uses ``SeedSequence(s, spawn_key=(i,))``.  The derivation
depends only on ``(s, i)``, so replicates can run in any order (or be
re-run individually) and still produce identical output.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["as_generator", "replicate_rng", "UNIFORM_BLOCK"]


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce an int seed, ``SeedSequence`` or ``Generator`` to a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for replicate ``index`` of a top-level ``seed``."""
    if index < 0:
        raise ValueError("replicate index must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


#: variates per block drawn by :func:`uniform_draws`
UNIFORM_BLOCK = 8192


def uniform_draws(rng: np.random.Generator):
    """A callable giving the next Uniform(0,1) variate of ``rng`` as a Python float.

    Tight event loops pay a noticeable per-call cost for scalar draws, so
    the variates come in blocks of :data:`UNIFORM_BLOCK`, read in stream
    order; the first block is drawn on the first call.
    """
    blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
    return itertools.chain.from_iterable(blocks).__next__
