"""Estimators and diagnostics built on top of the trajectory engine.

The long-run behaviour of the interacting-trajectory system is governed by
its regeneration structure: a resident change after which every surviving
trajectory has nonpositive slope leaves the system in the same state as at
time zero (one resident at height 1, nothing rising), so the times between
such changes, paired with the fitness gained across them, are i.i.d.  This
module detects those cycles, estimates the speed of adaptation and its
fluctuation coefficient from them, and provides the classical
Gerrish-Lenski style speed predictions for comparison, together with
fixation classification and the coupling of a finite population to its
limit, compared by the sup distance of their height traces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .inputs import (
    ArrivalBuffer,
    ContenderLaw,
    InputEvent,
    contender_params,
    sample_contender_stream,
)
from .moran import moran_init, moran_run
from .pit import (
    _RENEWAL_ROWS,
    ConfigurationError,
    FitnessRows,
    PitState,
    _write_csv,
)
from .rng import as_generator

__all__ = [
    "MAX_CYCLES",
    "RenewalCycles",
    "SpeedEstimate",
    "FcltDiagnostic",
    "FixationFlags",
    "FixationReport",
    "HighMutationResult",
    "pointmass_speed",
    "detect_renewals",
    "speed_estimate",
    "sample_renewal_cycles",
    "fclt_diagnostic",
    "heuristic_speed",
    "classify_fixation",
    "sup_distance",
    "CouplingResult",
    "coupled_run",
    "infinite_mean_probe",
    "high_mutation_limit",
    "high_mutation_probe",
    "write_cycles_csv",
]


# the most renewal cycles one call may run over all its streams (two float64
# columns of 80 MB each); more are refused before anything is allocated
MAX_CYCLES = 10_000_000

# the most rows one renewal lockstep runs: its memory grows with its rows,
# so streams beyond four of 1024 rows run in further locksteps
_LOCKSTEP_ROWS = 4 * _RENEWAL_ROWS


@dataclass(frozen=True, slots=True, eq=False)
class RenewalCycles:
    """Regeneration cycles as two columns: each one's duration and the fitness gained in it.

    Both are read-only float64 copies of what was given, checked once: one
    dimension each, one length, every value finite, lengths positive and
    rewards nonnegative.  ``len()`` is the number of cycles.
    """

    lengths: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.lengths, dtype=np.float64)
        rewards = np.array(self.rewards, dtype=np.float64)
        if lengths.ndim != 1 or lengths.shape != rewards.shape:
            raise ConfigurationError(
                f"cycle lengths and rewards must be two 1-D arrays of one length, "
                f"got shapes {lengths.shape} and {rewards.shape}"
            )
        bad = ~(np.isfinite(lengths) & (lengths > 0.0))
        if bad.any():
            raise ConfigurationError(
                f"cycle length must be finite and positive, got {lengths[bad][0]}")
        bad = ~(np.isfinite(rewards) & (rewards >= 0.0))
        if bad.any():
            raise ConfigurationError(f"cycle reward must be finite and >= 0, got {rewards[bad][0]}")
        lengths.flags.writeable = rewards.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "rewards", rewards)

    def __len__(self) -> int:
        return self.lengths.size


@dataclass(frozen=True)
class SpeedEstimate:
    """Renewal-reward estimate of the speed of adaptation.

    ``v_hat`` is total reward over total length.  ``sigma2_hat`` estimates
    the diffusive variance coefficient ``E[(reward - v length)^2] /
    E[length]``, and ``stderr`` is the resulting standard error
    ``sqrt(sigma2_hat / total length)`` of ``v_hat``.
    """

    v_hat: float
    stderr: float
    n_cycles: int
    sigma2_hat: float


def pointmass_speed(lam: float, c: float) -> float:
    """Exact long-run speed ``lam c^2 / (1 + c + lam)`` for increments fixed at ``c``."""
    if lam <= 0 or c <= 0:
        raise ConfigurationError(f"need lam > 0 and c > 0, got {lam}, {c}")
    return lam * c * c / (1.0 + c + lam)


def detect_renewals(engine):
    """Extract regeneration times and cycles from a completed run.

    ``engine`` is a :class:`~clonepit.pit.PitState`, or anything else with
    its ``resident_changes`` and ``f0``; those two are read.  A resident
    change counts as a regeneration when every trajectory left at positive
    height has nonpositive slope (up to the engine's slope tolerance); the
    engine stamps that flag on each change.
    Returns ``(times, cycles)``: the regeneration times as a list and the
    :class:`RenewalCycles` between them, the first one starting at time 0
    and fitness ``f0``.  Anything after the last regeneration is an
    incomplete cycle and is left out.
    """
    times: list[float] = []
    fits: list[float] = []
    for t, _, f, _, solitary in engine.resident_changes:
        if solitary:
            times.append(t)
            fits.append(f)
    cycles = RenewalCycles(np.diff(times, prepend=0.0), np.diff(fits, prepend=engine.f0))
    return times, cycles


def speed_estimate(cycles: RenewalCycles) -> SpeedEstimate:
    """Combine i.i.d. :class:`RenewalCycles` into a speed estimate with a CLT error bar."""
    if len(cycles) < 2:
        raise ConfigurationError(f"need at least 2 cycles, got {len(cycles)}")
    lengths, rewards = cycles.lengths, cycles.rewards
    total_len = float(lengths.sum())
    v_hat = float(rewards.sum()) / total_len
    resid = rewards - v_hat * lengths
    sigma2 = float(np.mean(resid * resid) / np.mean(lengths))
    stderr = math.sqrt(sigma2 / total_len)
    return SpeedEstimate(v_hat, stderr, len(cycles), sigma2)


def _require_count(name: str, value, least: int) -> int:
    """``value`` as an int, refused unless it is an integer of at least ``least``."""
    if isinstance(value, bool) or not float(value).is_integer() or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _renewal_streams(rng) -> list:
    """The generators of ``rng``: each of a list of Generators, or the one that ``rng`` seeds."""
    if isinstance(rng, list):
        if not rng or not all(isinstance(g, np.random.Generator) for g in rng):
            raise ConfigurationError(
                "a list of renewal streams must hold one or more numpy Generators, "
                f"got {rng!r}")
        return rng
    return [as_generator(rng)]


def sample_renewal_cycles(law: ContenderLaw, n_cycles: int, rng, *, collect_events=False):
    """Simulate ``n_cycles`` regeneration cycles of the trajectory system on each stream.

    The system regenerates at each qualifying resident change: every
    trajectory left then has nonpositive slope, so it can never become
    resident or shift the fitness again, and the system is back in its
    state at time zero.  The cycles are therefore i.i.d., and the sampler
    runs many at once, one per row of a :meth:`~clonepit.pit.FitnessRows.cycles`
    lockstep: a row starts from one resident on its own clock at zero
    (keeping the time resolution independent of how many cycles have
    elapsed), runs to its first solitary change, records the cycle and
    starts the next, carrying over the arrivals it has read but not used.
    Exactly ``n_cycles`` start per stream and each one runs to its end;
    more than :data:`MAX_CYCLES` over all streams are refused before
    anything is allocated.

    ``rng`` is one stream (a ``Generator``, or a seed for one, such as an
    int) or a non-empty list of Generators, one stream each; any other
    list is refused.  The streams share one lockstep (as many as fit in 4096 rows;
    more run in further locksteps), and each one's cycles are those it
    gives on its own.  They are returned as one
    :class:`RenewalCycles`, stream after stream, each stream's cycles in
    the order they started.

    Each stream's rows read their arrivals from one
    :class:`~clonepit.inputs.ArrivalBuffer` on it, which draws gaps and
    increments in blocks of :data:`~clonepit.inputs.ARRIVAL_BLOCK`, a chunk
    per row at a time in row order (see :meth:`~clonepit.pit.FitnessRows.cycles`).
    With ``collect_events`` it returns ``(cycles, events)``, ``events``
    holding per cycle, in the same order, the ``(time, increment)``
    arrivals that cycle applied, on its own clock, so each cycle can be
    replayed.

    An increment law without a finite mean does not stop the sampler
    (at rate 1, ``Pareto(1, 0.5)`` cycles last about 1.5 on average), but
    their rewards then have an infinite mean, so ``v_hat`` has no finite
    limit; the command line warns about such a law.
    """
    n_cycles = _require_count("n_cycles", n_cycles, 1)
    gens = _renewal_streams(rng)
    if len(gens) * n_cycles > MAX_CYCLES:
        raise ConfigurationError(
            f"n_cycles over all streams must be at most {MAX_CYCLES}, got "
            f"{len(gens)} x {n_cycles}")
    streams = [ArrivalBuffer(law, g) for g in gens]
    per = _LOCKSTEP_ROWS // min(n_cycles, _RENEWAL_ROWS)
    runs = [FitnessRows.cycles(streams[i : i + per], n_cycles, collect=collect_events)
            for i in range(0, len(streams), per)]
    cycles = RenewalCycles(np.concatenate([run[0] for run in runs]),
                           np.concatenate([run[1] for run in runs]))
    if collect_events:
        return cycles, [evs for run in runs for evs in run[2]]
    return cycles


@dataclass(frozen=True)
class FcltDiagnostic:
    """Standardized fitness fluctuations of an ensemble of runs.

    ``samples[i, j]`` is ``(F_i(scale * t_j) - v_bar * scale * t_j) /
    sqrt(sigma2 * scale)``.  If the centering and scaling constants are
    right, the per-time variance should track ``t`` and the correlation
    matrix should look like Brownian motion's ``sqrt(s/t)``.
    """

    times: np.ndarray
    samples: np.ndarray
    variance: np.ndarray
    correlation: np.ndarray
    scale: float
    low_scale: bool


def fclt_diagnostic(paths, scale: float, grid, v_bar: float, sigma2: float) -> FcltDiagnostic:
    """Standardize an ensemble of fitness paths on ``grid`` at time scale ``scale``.

    ``paths`` are callables mapping absolute time to accumulated fitness
    (e.g. :meth:`PitState.resident_fitness_path` outputs); each must extend
    to ``scale * max(grid)``.  Scales below 100 are flagged ``low_scale``
    rather than rejected.
    """
    paths = list(paths)
    if len(paths) < 2:
        raise ConfigurationError(f"need an ensemble of at least 2 paths, got {len(paths)}")
    if sigma2 <= 0 or scale <= 0:
        raise ConfigurationError("scale and sigma2 must be positive")
    times = np.asarray(sorted(grid), dtype=float)
    if times.size == 0 or times[0] < 0:
        raise ConfigurationError("grid must be non-empty with nonnegative times")
    denom = math.sqrt(sigma2 * scale)
    samples = np.empty((len(paths), times.size))
    for i, path in enumerate(paths):
        samples[i] = (np.asarray(path(times * scale)) - v_bar * scale * times) / denom
    variance = samples.var(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        correlation = np.corrcoef(samples, rowvar=False)
    correlation = np.atleast_2d(correlation)
    return FcltDiagnostic(times, samples, variance, correlation, scale, scale < 100)


# -- speed heuristics ----------------------------------------------------------


def heuristic_speed(law: ContenderLaw, *, refined: bool = False) -> float:
    """Speed predicted by retaining contenders that win their local race.

    A contender with increment ``a`` is retained when no strictly larger
    contender arrives during the ``1/a`` time it needs to rise, giving the
    retention probability ``exp(-(rate/a) * tail(a))``.  The refined variant
    additionally discounts interference from earlier contenders that would
    still be rising, multiplying in ``exp(-rate * integral of 1/b over
    increments b >= a)``.  The prediction is ``rate * E[a * pi(a)]`` under
    the contender law, and it is infinite when that law has no finite
    mean: such a law is refused.
    """
    dist = law.base if law.explicit is None else law.explicit
    if not dist.has_finite_mean():
        raise ConfigurationError(
            f"the heuristic speed needs an increment law with a finite mean, got "
            f"{dist.describe()}")
    rate = law.rate

    def pi(a):
        p = math.exp(-(rate / a) * law.tail(a))
        if refined:
            p *= math.exp(-rate * max(0.0, law.expect(lambda b: 1.0 / b, lower=a)))
        return p

    return rate * law.expect(lambda a: a * pi(a))


# -- fixation classification ---------------------------------------------------


@dataclass(frozen=True)
class FixationFlags:
    contender: bool
    resident: bool
    solitary_resident: bool
    ancestral: bool


@dataclass(frozen=True)
class FixationReport:
    """Per-type fixation classification of one completed run.

    ``ancestral`` is horizon-relative: it marks types on the ancestor path
    of some solitary winner observed within the run.  Each regeneration
    freezes the classification of everything born before it, so flags for
    those types are final; later ones can still be promoted by a longer run.
    """

    flags: dict[int, FixationFlags]

    def ids(self, attr: str) -> frozenset[int]:
        return frozenset(i for i, fl in self.flags.items() if getattr(fl, attr))

    @property
    def resident_ids(self) -> frozenset[int]:
        return self.ids("resident")

    @property
    def solitary_ids(self) -> frozenset[int]:
        return self.ids("solitary_resident")

    @property
    def ancestral_ids(self) -> frozenset[int]:
        return self.ids("ancestral")

    def lattice_holds(self) -> bool:
        return self.solitary_ids <= self.ancestral_ids <= self.resident_ids


def classify_fixation(state: PitState) -> FixationReport:
    """Classify every non-root type of a completed run.

    A type is ``resident`` if it won some resident change,
    ``solitary_resident`` if it won a regenerating one, and ``ancestral`` if
    it lies on the ancestor path of some solitary winner, read through each
    type's ``parent``.
    """
    types = state.types
    contender = {tid: traj.slope0 > 0.0 for tid, traj in types.items() if tid != 0}
    changes = [(w, sol) for (_, _, _, w, sol) in state.resident_changes]
    resident = {w for w, _ in changes if w != 0}
    solitary = {w for w, sol in changes if sol and w != 0}
    ancestral: set[int] = set()
    for w in solitary:
        tid = w
        while tid is not None and tid != 0:
            ancestral.add(tid)
            tid = types[tid].parent
    flags = {}
    for tid in sorted(set(contender) | resident | ancestral):
        flags[tid] = FixationFlags(
            contender.get(tid, True),
            tid in resident,
            tid in solitary,
            tid in ancestral,
        )
    return FixationReport(flags)


# -- distances -----------------------------------------------------------------


def sup_distance(heights_a, heights_b, grid) -> float:
    """Largest pointwise gap between two height traces over shared type ids.

    Both arguments map type id to an array of heights sampled on ``grid``;
    ids missing from either side are ignored.
    """
    n = len(grid)
    worst = 0.0
    for tid in set(heights_a) & set(heights_b):
        x = np.asarray(heights_a[tid], dtype=float)
        y = np.asarray(heights_b[tid], dtype=float)
        if x.shape != (n,) or y.shape != (n,):
            raise ConfigurationError(f"trace for type {tid} does not match the grid")
        worst = max(worst, float(np.max(np.abs(x - y))))
    return worst


@dataclass(frozen=True)
class CouplingResult:
    """One finite-population run against its matching trajectory-system replay."""

    n: int
    times: np.ndarray
    distance: float
    flags: dict[int, bool]


def coupled_run(n, schedule, horizon, rng, *, grid_step: float = 0.01) -> CouplingResult:
    """Drive a Moran population and the trajectory system by the same mutations.

    ``schedule`` fixes the mutation times and increments as
    :class:`~clonepit.inputs.InputEvent` records (their contender flags are
    ignored).  The population realizes its own contender indicators; the
    trajectory system is then replayed with those emergent flags, and the
    two height traces are compared on the population's sample grid.  As
    ``n`` grows the log-frequency paths track the trajectory system more
    closely, so the returned distance should shrink.
    """
    events = list(schedule)
    state = moran_init(n, [n], [0.0], schedule=events)
    res = moran_run(state, horizon, rng, grid_step=grid_step)
    flags = {ind.index: bool(ind.flag) for ind in res.indicators}

    replay = [
        InputEvent(ev.index, ev.time, ev.increment, flags.get(ev.index, False))
        for ev in events
    ]
    st = PitState(events=replay)
    st.advance(until=horizon)
    grid = res.trace.times
    pit_heights = {0: st.trajectory_path(0)(grid)}
    for ev in replay:
        if ev.index in st.types:
            pit_heights[ev.index] = st.trajectory_path(ev.index)(grid)
    dist = sup_distance(pit_heights, res.trace.heights, grid)
    return CouplingResult(int(n), grid, dist, flags)


# -- limit-regime probes -------------------------------------------------------


def infinite_mean_probe(lam: float, gamma, horizons, replicates: int, rng):
    """Median of F(t)/t per horizon, for increment laws without a mean.

    Each replicate is one run over the largest horizon, evaluated at all of
    them; with an infinite-mean law the medians should drift upward since
    F(t)/t has no finite limit.  Supplying a finite-mean law is allowed (the
    probe is then pointless) but warned about.
    """
    horizons = sorted(float(h) for h in horizons)
    if not horizons or horizons[0] <= 0:
        raise ConfigurationError("horizons must be positive")
    replicates = _require_count("replicates", replicates, 1)
    if gamma.has_finite_mean():
        warnings.warn(
            "increment law has a finite mean; F(t)/t converges and this probe "
            "will show no growth",
            stacklevel=2,
        )
    rng = as_generator(rng)
    law = contender_params(lam, gamma)
    rows = FitnessRows(
        [sample_contender_stream(law, horizons[-1], rng) for _ in range(replicates)]
    )
    ratios = np.empty((replicates, len(horizons)))
    for j, h in enumerate(horizons):
        rows.advance(until=h)
        ratios[:, j] = rows.fitness / h
    return {h: float(np.median(ratios[:, j])) for j, h in enumerate(horizons)}


def high_mutation_limit(b_sup: float, t: float) -> float:
    """Value ``b (ceil(b t) - 1)`` that F(t) approaches as the rate grows."""
    if b_sup <= 0 or t <= 0:
        raise ConfigurationError("need positive support bound and time")
    return b_sup * (math.ceil(b_sup * t) - 1)


# how close to the high-rate limit a value of F(t) counts as within it
_HIGH_MUTATION_TOLERANCE = 0.25


@dataclass(frozen=True)
class HighMutationResult:
    limit: float
    tolerance: float
    values: dict[float, np.ndarray]
    fraction_within: dict[float, float]
    median_error: dict[float, float]


def high_mutation_probe(gamma, t: float, lambdas, replicates: int, rng) -> HighMutationResult:
    """Empirical F(t) against its high-rate limit for a bounded increment law.

    For each rate the probe runs ``replicates`` independent systems to
    horizon ``t`` and reports the samples, the fraction within 0.25 of
    the limit (its ``tolerance``), and the median absolute error.
    """
    lo, hi = gamma.support()
    if not math.isfinite(hi):
        raise ConfigurationError("the high-rate limit needs a bounded increment law")
    replicates = _require_count("replicates", replicates, 1)
    limit = high_mutation_limit(hi, t)
    rng = as_generator(rng)
    values: dict[float, np.ndarray] = {}
    fraction: dict[float, float] = {}
    med_err: dict[float, float] = {}
    for lam in lambdas:
        law = contender_params(float(lam), gamma)
        rows = FitnessRows([sample_contender_stream(law, t, rng) for _ in range(replicates)])
        rows.advance(until=t)
        vals = rows.fitness
        values[float(lam)] = vals
        err = np.abs(vals - limit)
        fraction[float(lam)] = float(np.mean(err <= _HIGH_MUTATION_TOLERANCE))
        med_err[float(lam)] = float(np.median(err))
    return HighMutationResult(limit, _HIGH_MUTATION_TOLERANCE, values, fraction, med_err)


def write_cycles_csv(cycles: RenewalCycles, path, scenario_hash: str | None = None):
    """Per-cycle CSV: length, reward, each in ``_fmt``'s ``.17g`` text."""
    _write_csv(
        path,
        "length,reward",
        map("%.17g,%.17g".__mod__, zip(cycles.lengths.tolist(), cycles.rewards.tolist())),
        scenario_hash,
    )
