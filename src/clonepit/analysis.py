"""Estimators and diagnostics built on top of the trajectory engine.

The long-run behaviour of the interacting-trajectory system is governed by
its regeneration structure: a resident change after which every surviving
trajectory has nonpositive slope leaves the system in the same state as at
time zero (one resident at height 1, nothing rising), so the times between
such changes, paired with the fitness gained across them, are i.i.d.  This
module detects those cycles, estimates the speed of adaptation and its
fluctuation coefficient from them, and provides the classical
Gerrish-Lenski style speed predictions for comparison, together with
fixation classification and distance diagnostics used to compare a finite
population against its limit.
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
    TIME_EPS,
    ConfigurationError,
    FitnessSkeleton,
    PitState,
    StepPath,
    _fmt,
    _write_csv,
)
from .rng import as_generator

__all__ = [
    "RenewalRecord",
    "SpeedEstimate",
    "FcltDiagnostic",
    "FixationFlags",
    "FixationReport",
    "MispredictionFixture",
    "HighMutationResult",
    "pointmass_speed",
    "detect_renewals",
    "speed_estimate",
    "sample_renewal_cycles",
    "fclt_diagnostic",
    "heuristic_speed",
    "glh_speed",
    "rglh_speed",
    "rgl_retention",
    "rglh_misprediction_fixture",
    "classify_fixation",
    "sup_distance",
    "CouplingResult",
    "coupled_run",
    "graph_distance",
    "infinite_mean_probe",
    "high_mutation_limit",
    "high_mutation_probe",
    "write_cycles_csv",
]


@dataclass(frozen=True)
class RenewalRecord:
    """One regeneration cycle: its duration and the fitness gained in it."""

    length: float
    reward: float

    def __post_init__(self):
        if not self.length > 0:
            raise ConfigurationError(f"cycle length must be positive, got {self.length}")
        if self.reward < 0:
            raise ConfigurationError(f"cycle reward must be >= 0, got {self.reward}")


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
    """Extract regeneration times and cycle records from a completed run.

    ``engine`` is a :class:`~clonepit.pit.PitState` or a
    :class:`~clonepit.pit.FitnessSkeleton`; its ``resident_changes`` and
    ``f0`` are read.  A resident change counts as a regeneration when every
    trajectory left at positive height has nonpositive slope (up to the
    engine's slope tolerance); the engine stamps that flag on each change.
    Returns ``(times, records)``; anything after the last regeneration is an
    incomplete cycle and produces no record.
    """
    times: list[float] = []
    records: list[RenewalRecord] = []
    prev_t, prev_f = 0.0, engine.f0
    for t, _, f, _, solitary in engine.resident_changes:
        if solitary:
            times.append(t)
            records.append(RenewalRecord(t - prev_t, f - prev_f))
            prev_t, prev_f = t, f
    return times, records


def speed_estimate(records) -> SpeedEstimate:
    """Combine i.i.d. cycle records into a speed estimate with a CLT error bar."""
    records = list(records)
    if len(records) < 2:
        raise ConfigurationError(f"need at least 2 cycles, got {len(records)}")
    lengths = np.array([r.length for r in records])
    rewards = np.array([r.reward for r in records])
    total_len = float(lengths.sum())
    v_hat = float(rewards.sum()) / total_len
    resid = rewards - v_hat * lengths
    sigma2 = float(np.mean(resid * resid) / np.mean(lengths))
    stderr = math.sqrt(sigma2 / total_len)
    return SpeedEstimate(v_hat, stderr, len(records), sigma2)


def sample_renewal_cycles(law: ContenderLaw, n_cycles: int, rng, *, collect_events=False):
    """Simulate ``n_cycles`` regeneration cycles of the trajectory system.

    The system regenerates at each qualifying resident change, so instead of
    one long run the sampler restarts from a fresh single-resident state per
    cycle while the arrival stream continues uninterrupted (an arrival drawn
    beyond a cycle's end is carried into the next cycle).  Each cycle runs
    on its own clock starting at zero, keeping the time resolution
    independent of how many cycles have elapsed.  Trajectories surviving a
    regeneration with nonpositive slope can never become resident or shift
    the fitness again, so dropping them leaves every record identical to a
    single uninterrupted run over the same stream; with ``collect_events``
    that stream is also returned as absolute ``(time, slope)`` pairs so the
    equivalence can be replayed.

    Every cycle reads its arrivals from one :class:`~clonepit.inputs.ArrivalBuffer`,
    which draws gaps and increments in blocks of
    :data:`~clonepit.inputs.ARRIVAL_BLOCK`; ``collect_events`` returns only
    the arrivals the cycles consumed, not the rest of the last block.  The
    first cycle sums its gaps as :func:`~clonepit.inputs.sample_contender_stream`
    does, so on the same generator state its arrivals are the first ones of
    that stream.

    Cycle lengths must have finite mean (finite mean of the contender
    increment law) or this will effectively not terminate.
    """
    if n_cycles < 1:
        raise ConfigurationError(f"need n_cycles >= 1, got {n_cycles}")
    arrivals = ArrivalBuffer(law, rng)
    records: list[RenewalRecord] = []
    all_events: list[tuple[float, float]] = []
    carried: tuple[float, float] | None = None
    elapsed = 0.0
    while len(records) < n_cycles:

        def stream(first=carried):
            t = 0.0
            if first is not None:
                t = first[0]
                yield first
            while True:
                gap, a = arrivals.next()
                t += gap
                if collect_events:
                    all_events.append((elapsed + t, a))
                yield (t, a)

        st = FitnessSkeleton(events=stream())
        st.advance(stop_after_solitary=True)
        records.append(RenewalRecord(st.clock, st.fitness))
        pend = st.pending_immigration
        if pend is None:
            carried = None
        else:
            # pend can sit within the stamp tolerance *before* the stopping
            # change; nudge it so the next cycle sees a positive time.
            gap = pend[0] - st.clock
            carried = (gap if gap > 0.0 else TIME_EPS, pend[1])
        elapsed += st.clock
    if collect_events:
        return records, all_events
    return records


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
    the contender law.
    """
    rate = law.rate

    def pi(a):
        p = math.exp(-(rate / a) * law.tail(a))
        if refined:
            p *= math.exp(-rate * law.inverse_tail(a))
        return p

    return rate * law.expect(lambda a: a * pi(a))


def glh_speed(lam: float, gamma) -> float:
    return heuristic_speed(contender_params(lam, gamma))


def rglh_speed(lam: float, gamma) -> float:
    return heuristic_speed(contender_params(lam, gamma), refined=True)


def rgl_retention(events) -> set[int]:
    """Indices kept by the deterministic refined retention rule.

    Event ``i`` is discarded when an earlier event ``j`` with increment
    ``A_j >= A_i`` is still rising at ``T_i`` (``T_j < T_i < T_j + 1/A_j``),
    or when a strictly fitter event arrives during ``(T_i, T_i + 1/A_i)``.
    ``events`` are :class:`~clonepit.inputs.InputEvent` records; the
    returned indices are their ``index`` fields.
    """
    evs = [(e.index, e.time, e.increment) for e in events]
    retained = set()
    for i, ti, ai in evs:
        for j, tj, aj in evs:
            if j == i:
                continue
            if tj < ti < tj + 1.0 / aj and aj >= ai:
                break
            if ti < tj < ti + 1.0 / ai and aj > ai:
                break
        else:
            retained.add(i)
    return retained


@dataclass(frozen=True)
class MispredictionFixture:
    """A three-contender configuration on which the refined rule is wrong."""

    events: tuple[InputEvent, ...]
    final_fitness: float
    retained: frozenset[int]


def rglh_misprediction_fixture() -> MispredictionFixture:
    """Deterministic example where the retention rule keeps exactly the loser.

    Increments ``a=1 < b=1.5`` then ``c=0.8``: the first contender wins the
    first residency, kinking the second below the third's slope, so the
    realized final fitness is ``a + c = 1.8`` and ``b`` never enters it.
    The retention rule instead sees the second contender shadowing both
    neighbours and keeps only it.  The numbers were found by a grid search
    replayed through the trajectory engine and are frozen here; tests verify
    both claims against the engine and the rule.
    """
    events = (
        InputEvent(1, 1.0, 1.0, True),
        InputEvent(2, 1.8, 1.5, True),
        InputEvent(3, 2.35, 0.8, True),
    )
    return MispredictionFixture(events, 1.8, frozenset({2}))


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


def _completed_graph(path: StepPath, t_end: float) -> np.ndarray:
    """Segments (x1,y1,x2,y2) of the step graph with jumps filled in."""
    times = path.times
    vals = path.values
    segs = []
    for i in range(times.size):
        t0 = float(times[i])
        if t0 > t_end:
            break
        v = float(vals[i])
        t1 = float(times[i + 1]) if i + 1 < times.size else t_end
        right = min(t1, t_end)
        segs.append((t0, v, right, v))
        if i + 1 < times.size and t1 <= t_end:
            segs.append((t1, v, t1, float(vals[i + 1])))
    return np.asarray(segs, dtype=float)


def _sample_graph(segs: np.ndarray, step: float) -> np.ndarray:
    pts = []
    for x1, y1, x2, y2 in segs:
        span = math.hypot(x2 - x1, y2 - y1)
        k = max(1, int(math.ceil(span / step)))
        f = np.linspace(0.0, 1.0, k + 1)
        pts.append(np.column_stack((x1 + f * (x2 - x1), y1 + f * (y2 - y1))))
    return np.concatenate(pts)


def _points_to_segments(points: np.ndarray, segs: np.ndarray) -> float:
    """max over points of (exact) min distance to the segment set."""
    ax, ay = segs[:, 0], segs[:, 1]
    dx, dy = segs[:, 2] - ax, segs[:, 3] - ay
    norm2 = dx * dx + dy * dy
    norm2[norm2 == 0.0] = 1.0
    worst = 0.0
    for px, py in points:
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / norm2, 0.0, 1.0)
        gx = ax + t * dx - px
        gy = ay + t * dy - py
        worst = max(worst, float(np.min(gx * gx + gy * gy)))
    return math.sqrt(worst)


def graph_distance(step_a: StepPath, step_b: StepPath, *, resolution: int = 2000) -> float:
    """Hausdorff distance between the completed graphs of two step functions.

    Vertical jump segments are part of each graph, so a pure shift of one
    jump time by ``d`` gives a distance of about ``d`` instead of the jump
    height.  One side of the Hausdorff maximum is taken over sampled points
    (about ``resolution`` per graph) against the other graph's exact
    segments, so the result carries a sampling error of order total graph
    length / resolution.
    """
    t_end = max(float(step_a.times[-1]), float(step_b.times[-1]))
    t_end = max(t_end, float(step_a.times[0]), float(step_b.times[0]))
    ga = _completed_graph(step_a, t_end)
    gb = _completed_graph(step_b, t_end)
    extent = 0.0
    for g in (ga, gb):
        extent += float(
            np.sum(np.hypot(g[:, 2] - g[:, 0], g[:, 3] - g[:, 1]))
        )
    step = max(extent / (2 * resolution), 1e-12)
    pa = _sample_graph(ga, step)
    pb = _sample_graph(gb, step)
    return max(_points_to_segments(pa, gb), _points_to_segments(pb, ga))


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
    if gamma.has_finite_mean():
        warnings.warn(
            "increment law has a finite mean; F(t)/t converges and this probe "
            "will show no growth",
            stacklevel=2,
        )
    rng = as_generator(rng)
    law = contender_params(lam, gamma)
    ratios = np.empty((replicates, len(horizons)))
    for r in range(replicates):
        st = FitnessSkeleton(events=sample_contender_stream(law, horizons[-1], rng))
        for j, h in enumerate(horizons):
            st.advance(until=h)
            ratios[r, j] = st.fitness / h
    return {h: float(np.median(ratios[:, j])) for j, h in enumerate(horizons)}


def high_mutation_limit(b_sup: float, t: float) -> float:
    """Value ``b (ceil(b t) - 1)`` that F(t) approaches as the rate grows."""
    if b_sup <= 0 or t <= 0:
        raise ConfigurationError("need positive support bound and time")
    return b_sup * (math.ceil(b_sup * t) - 1)


@dataclass(frozen=True)
class HighMutationResult:
    limit: float
    tolerance: float
    values: dict[float, np.ndarray]
    fraction_within: dict[float, float]
    median_error: dict[float, float]


def high_mutation_probe(
    gamma, t: float, lambdas, replicates: int, rng, *, tolerance: float = 0.25
) -> HighMutationResult:
    """Empirical F(t) against its high-rate limit for a bounded increment law.

    For each rate the probe runs ``replicates`` independent systems to
    horizon ``t`` and reports the samples, the fraction within ``tolerance``
    of the limit, and the median absolute error.
    """
    lo, hi = gamma.support()
    if not math.isfinite(hi):
        raise ConfigurationError("the high-rate limit needs a bounded increment law")
    limit = high_mutation_limit(hi, t)
    rng = as_generator(rng)
    values: dict[float, np.ndarray] = {}
    fraction: dict[float, float] = {}
    med_err: dict[float, float] = {}
    for lam in lambdas:
        law = contender_params(float(lam), gamma)
        vals = np.empty(replicates)
        for r in range(replicates):
            st = FitnessSkeleton(events=sample_contender_stream(law, t, rng))
            st.advance(until=t)
            vals[r] = st.fitness
        values[float(lam)] = vals
        err = np.abs(vals - limit)
        fraction[float(lam)] = float(np.mean(err <= tolerance))
        med_err[float(lam)] = float(np.median(err))
    return HighMutationResult(limit, tolerance, values, fraction, med_err)


def write_cycles_csv(records, path, scenario_hash: str | None = None):
    """Per-cycle CSV: length, reward."""
    _write_csv(
        path,
        "length,reward",
        (f"{_fmt(r.length)},{_fmt(r.reward)}" for r in records),
        scenario_hash,
    )
