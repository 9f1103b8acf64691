"""Continuous-time binary branching processes as independent references.

A population of ``Z`` individuals gains one at rate ``birth * Z`` and loses
one at rate ``death * Z``.  Closed forms for survival and level-crossing
probabilities make this the calibration target for the stochastic engines:
a mutant line in the population model behaves like such a process while
rare, so these formulas predict contender probabilities and sweep times.

:func:`gw_run` is an exact Gillespie (1977) simulation.  The embedded jump
chain is a biased random walk (up with probability ``birth / (birth +
death)``), and the holding time in state ``Z`` is exponential with rate
``(birth + death) * Z``; both are drawn in numpy blocks so a run costs a
handful of array operations rather than one Python iteration per event.
Each block draws ``rng.random(block)`` for the steps and then
``rng.standard_exponential(block)`` for the holds.  The block walker,
:func:`_jump_chain`, takes the up-probability, the holding-rate function and
the absorbing top as parameters; the Moran engine runs its two-type
stretches on it too (there the holding rate is ``c * Z * (N - Z)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pit import ConfigurationError
from .rng import as_generator

__all__ = [
    "GwParams",
    "GwRun",
    "gw_survival_formula",
    "gw_level_probability",
    "gamblers_ruin",
    "gw_run",
]

_BLOCK0 = 64
_BLOCK_MAX = 16384


@dataclass(frozen=True)
class GwParams:
    """Birth rate, death rate and initial size of one branching run."""

    birth: float
    death: float
    initial: int = 1

    def __post_init__(self):
        if self.birth < 0 or self.death < 0:
            raise ConfigurationError(
                f"rates must be nonnegative, got birth={self.birth} death={self.death}"
            )
        if self.birth == 0 and self.death == 0:
            raise ConfigurationError("at least one of birth and death must be positive")
        if not (self.initial >= 1 and float(self.initial).is_integer()):
            raise ConfigurationError(f"initial size must be a positive integer, got {self.initial}")
        # an integral float such as 2.0 is stored as the int it equals
        object.__setattr__(self, "initial", int(self.initial))


@dataclass(frozen=True)
class GwRun:
    """Summary of one simulated path.

    ``escaped`` means the population exceeded the cap and the run stopped
    early; since the extinction probability from the cap is ``(d/b)^cap``,
    an escaped supercritical run is treated as having survived.
    ``level_times`` holds the first-passage time for each requested level
    that was reached.
    """

    params: GwParams
    extinct: bool
    escaped: bool
    extinction_time: float | None
    final_value: int
    max_level: int
    clock: float
    level_times: dict[int, float] = field(default_factory=dict)


def gw_survival_formula(birth: float, death: float, initial: int = 1) -> float:
    """Survival probability ``1 - (death/birth)^initial`` of a supercritical process.

    Requires ``birth > death``; for ``birth <= death`` survival has
    probability zero and callers should handle that case themselves rather
    than read it off a formula with a removable singularity.
    """
    if birth <= death:
        raise ConfigurationError(
            f"survival formula needs birth > death, got {birth} <= {death}"
        )
    if initial < 1:
        raise ConfigurationError(f"initial size must be >= 1, got {initial}")
    return 1.0 - (death / birth) ** initial


def gw_level_probability(birth: float, death: float, t: float, level: int) -> float:
    """Probability ``P(Z_t >= level)`` of a process started from ``Z_0 = 1``.

    Kendall's (1948) law: ``Z_t`` is zero with probability ``p0`` and
    otherwise geometric on ``{1, 2, ...}`` with ratio ``q``, so the tail is
    ``(1 - p0) * q**(level - 1)``.  With ``r = birth - death`` and
    ``e = 1 - exp(-|r| t)``,

        p0 = death * e / (|r| + c * e),   q = birth * e / (|r| + c * e),

    where ``c`` is ``death`` when ``r > 0`` and ``birth`` when ``r < 0``;
    at ``birth == death`` both equal ``birth * t / (1 + birth * t)``.
    ``level = 1`` gives survival to ``t``, and as ``t -> inf`` every level
    tends to :func:`gw_survival_formula`.
    """
    if birth < 0 or death < 0 or (birth == 0 and death == 0):
        raise ConfigurationError(
            f"rates must be nonnegative and not both zero, got birth={birth} death={death}"
        )
    if not (0 <= t < math.inf):
        raise ConfigurationError(f"time must be finite and >= 0, got {t}")
    if level < 1 or int(level) != level:
        raise ConfigurationError(f"level must be a positive integer, got {level}")
    if birth == death:
        p0 = q = birth * t / (1.0 + birth * t)
    else:
        r = abs(birth - death)
        e = -math.expm1(-r * t)
        denom = r + (death if birth > death else birth) * e
        p0 = death * e / denom
        q = birth * e / denom
    return (1.0 - p0) * q ** (int(level) - 1)


def gamblers_ruin(start: int, goal: int, birth: float, death: float) -> float:
    """Level-crossing number for the embedded walk of a binary branching process.

    For ``birth <= death`` returns ``start / goal``, an upper bound on the
    probability of reaching ``goal`` before 0 from ``start``.  For
    ``birth > death`` returns ``(death/birth)**(goal - start)``, the
    probability that a walk currently at ``goal`` ever falls back down to
    ``start``.
    """
    if not (0 < start < goal):
        raise ConfigurationError(f"need 0 < start < goal, got start={start} goal={goal}")
    if int(start) != start or int(goal) != goal:
        raise ConfigurationError("start and goal must be integers")
    if birth <= death:
        return start / goal
    return (death / birth) ** (goal - start)


def gw_run(
    params: GwParams,
    rng,
    *,
    horizon: float = math.inf,
    cap: int = 10_000_000,
    levels: tuple[int, ...] = (),
) -> GwRun:
    """Simulate one exact path until extinction, the cap, or the horizon.

    ``levels`` requests first-passage times; each level must not exceed the
    cap or the run could stop before reaching it.
    """
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if cap <= params.initial:
        raise ConfigurationError(f"cap {cap} must exceed the initial size {params.initial}")
    rng = as_generator(rng)
    b, d = params.birth, params.death
    p_up = b / (b + d)
    rate = b + d
    levels = tuple(sorted(set(int(x) for x in levels)))
    if levels and levels[-1] > cap:
        raise ConfigurationError(f"level {levels[-1]} exceeds the cap {cap}")

    z = params.initial
    t = 0.0
    max_level = z
    level_times: dict[int, float] = {}
    pending = [lv for lv in levels if lv > z]
    for lv in levels:
        if lv <= z:
            level_times[lv] = 0.0

    for path, times in _jump_chain(z, t, rng, p_up, lambda prev: rate * prev, cap, horizon):
        max_level = max(max_level, int(path.max()))
        _record_levels(pending, level_times, path, times)
        z = int(path[-1])
        t = float(times[-1])
    extinct = z == 0
    escaped = z >= cap
    if not (extinct or escaped):
        t = horizon
    t_ext = t if extinct else None

    return GwRun(params, extinct, escaped, t_ext, z, max_level, t, level_times)


def _jump_chain(z, t, rng, p_up, hold_rate, top, t_stop):
    """Exact +-1 jump chain from ``z`` at time ``t``, simulated in numpy blocks.

    Each step goes up with probability ``p_up``; the holding time before a
    step taken from state ``z`` is exponential with rate ``hold_rate(z)``
    (``hold_rate`` maps an int64 array of states to an array of rates).  The
    chain is absorbed at 0 and at ``top`` (any state ``>= top``), and a step
    landing after ``t_stop`` never happens.

    Yields ``(path, times)`` per block: the states after each step and the
    step times, cut at the absorbing step or before the first step past
    ``t_stop``; the last state yielded is the final one.  Blocks grow from
    64 by a factor 4 up to 16384, each drawing ``rng.random(block)`` and then
    ``rng.standard_exponential(block)``, so a seeded stream gives the same
    path whoever the caller is.

    Besides the two draws and the two running sums, a block makes only
    cheap in-place passes.  ``walk`` holds the state before the block and
    then the path, so its first ``block`` entries are the states the holds
    are taken from.  The holds are turned into step times in place, up to
    the absorbing step only.  An absorbing end is looked for only when the
    block is long enough to reach it, and the horizon only when the block's
    last time passes it (times never decrease, so a binary search finds the
    cut).
    """
    block = _BLOCK0
    while True:
        walk = np.empty(block + 1, dtype=np.int64)
        walk[0] = z
        path = walk[1:]
        path[:] = rng.random(block) < p_up
        holds = rng.standard_exponential(block)
        path += path
        path -= 1
        np.add.accumulate(walk, out=walk)

        stop = block
        absorbed = False
        if z <= block or z + block >= top:
            hit = (path == 0) | (path >= top)
            first = int(hit.argmax())
            absorbed = bool(hit[first])
            if absorbed:
                stop = first + 1
        times = holds[:stop]
        # a rate of 0 or inf gives an inf or 0 hold, not a RuntimeWarning
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(times, hold_rate(walk[:stop]), out=times)
        np.add.accumulate(times, out=times)
        times += t

        if times[-1] > t_stop:
            h = int(times.searchsorted(t_stop, "right"))
            if h:
                yield path[:h], times[:h]
            return
        yield path[:stop], times
        if absorbed:
            return
        z = int(path[-1])
        t = float(times[-1])
        block = min(block * 4, _BLOCK_MAX)


def _record_levels(pending, level_times, path, times):
    while pending:
        lv = pending[0]
        idx = np.flatnonzero(path >= lv)
        if idx.size == 0:
            return
        level_times[lv] = float(times[idx[0]])
        pending.pop(0)
