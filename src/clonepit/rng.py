"""Seeding helpers shared by all simulation drivers.

Every stochastic entry point takes either a ``numpy.random.Generator`` or an
integer seed.  Replicate farms derive one independent stream per replicate
index with :func:`replicate_rng`, which is a counter-based split: replicate
``i`` of seed ``s`` uses ``SeedSequence(s, spawn_key=(i,))``.  The derivation
depends only on ``(s, i)``, so replicates can run in any order (or be
re-run individually) and still produce identical output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "replicate_rng", "UniformBuffer"]


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


class UniformBuffer:
    """Uniform(0,1) variates drawn in blocks, consumed one at a time.

    Tight event loops pay a noticeable per-call cost for scalar Generator
    draws; drawing blocks of 8192 amortises it while consuming the stream in
    a fixed documented order (block by block, left to right), so runs remain
    reproducible for a given generator state.  The first block is drawn on
    the first :meth:`next`, so a buffer that is never read takes nothing
    from the stream, and values are handed out as Python floats.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = int(block)
        self._buf: list[float] = []
        self._pos = self._block

    def next(self) -> float:
        pos = self._pos
        if pos == self._block:
            self._buf = self._rng.random(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
