"""Finite-population Moran model whose large-``N`` limit is the trajectory system.

``N`` individuals carry types with fixed fitness values.  On the generation
clock, an ordered pair resamples (``j`` replaces an individual of ``l``) at
rate ``x_j * x_l * (1 + (m_j - m_l)^+) / N``, and each mutation of a
schedule of times and increments hits a uniformly chosen individual, who
founds a new type with its parent's fitness plus the increment.  All
public clocks here are *rescaled*: one unit of engine time is ``log N``
generations, so pair resampling runs at
``x_j * x_l * (1 + (m_j - m_l)^+) * log(N) / N``, and a mutation rate of
``lam / log(N)`` per generation is a schedule of rate ``lam``.

On the rescaled clock the log-frequency of type ``i`` is

    H_i(t) = log(1 + X_i(t)) / log(N),

which converges to the piecewise-linear trajectories of
:mod:`clonepit.pit`.  A mutant born at time ``T`` is classified a contender
when its raw count, read at time ``T + 1/sqrt(log N)``, is at least
``log N``; these emergent indicator values couple a Moran run to the
limiting trajectory system driven by the same mutation times and
increments.  While rare, a mutant with increment ``a`` over a resident
population is a birth-death line with rates ``1 + a`` and 1 per
generation, read ``sqrt(log N)`` generations after birth, so at finite
``N`` its flag has probability

    gw_level_probability(1 + a, 1, sqrt(log N), ceil(log N))

(about 0.421 for ``a = 1`` at ``N = 1e5``), which tends to the contender
probability ``survival_prob(a) = a / (1 + a)`` only as ``N -> inf``.

While exactly two types are alive and no mutation is due, the jump chain
of the count ``z`` of the fitter type is a +-1 walk: up with the constant
probability ``(1 + s) / (2 + s)`` for the fitness gap ``s``, after an
exponential holding time of rate ``(2 + s) * z * (N - z) * log(N) / N``.
:func:`moran_run` simulates such a stretch exactly (Gillespie 1977) with
the numpy block walker that also drives :func:`clonepit.branching.gw_run`,
until absorption, the horizon or the next mutation; indicator checks and
trace grid points inside it read the count off the block with
``searchsorted``.  Mutations come only from a schedule: the mutation
clock is independent of resampling, so a free rate ``lam`` is its marked
Poisson stream on ``[0, horizon)`` drawn before the run (the ``moran-run``
command draws it with :func:`~clonepit.inputs.sample_contender_stream`),
and each parent is chosen at its mutation.

With three or more live types the loop is plain Python over scalar
floats, one event at a time: it maintains the aggregates
``T_a = sum_b x_b * (1 + (m_a - m_b)^+)`` in O(k) for k live types and
consumes uniforms from a block buffer.  Aggregates are rebuilt from
scratch periodically, and whenever a type dies or a two-type stretch ends,
so float drift cannot accumulate over tens of millions of events.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .branching import _jump_chain
from .inputs import InputEvent
from .pit import ConfigurationError, _fmt, _write_csv
from .rng import as_generator, uniform_draws

__all__ = [
    "MoranState",
    "ContenderIndicator",
    "LogFrequencyTrace",
    "MoranResult",
    "MAX_GRID_SAMPLES",
    "MAX_POPULATION",
    "moran_init",
    "moran_run",
    "write_trace_csv",
]

_REBUILD_EVERY = 8192

# the most points a sample grid may have (80 MB of float64); a larger grid
# is refused before anything is allocated
MAX_GRID_SAMPLES = 10_000_000

# the largest population size: counts are floats, and above 2**53 a +-1 step
# can round away
MAX_POPULATION = 2**53


@dataclass(frozen=True)
class ContenderIndicator:
    """Emergent contender classification of one mutant type."""

    index: int
    born: float
    eval_time: float
    count: int
    flag: bool


class MoranState:
    """Counts, fitness values and mutation schedule of one Moran population.

    Built by :func:`moran_init`.  Every mutation comes from ``schedule``, a
    list of :class:`~clonepit.inputs.InputEvent` records with fixed times
    and increments, of which the first ``sched_pos`` have been applied; a
    schedule makes runs comparable to a trajectory-system replay driven by
    the same input.
    """

    def __init__(self, n, counts, fitness, schedule):
        self.n = int(n)
        self.log_n = math.log(self.n)
        self.ids: list[int] = list(range(len(counts)))
        self.counts: list[float] = [float(c) for c in counts]
        self.fitness: list[float] = [float(m) for m in fitness]
        self.schedule = schedule
        self.sched_pos = 0
        self.clock = 0.0
        self.events = 0
        self.sum_xm = sum(c * m for c, m in zip(self.counts, self.fitness))
        self.type_fitness: dict[int, float] = {
            i: m for i, m in zip(self.ids, self.fitness)
        }
        self.type_birth: dict[int, float] = {i: 0.0 for i in self.ids}
        self._aggr: list[float] = []
        self._rebuild()

    # -- aggregates -----------------------------------------------------------

    def _rebuild(self):
        """Recompute T_a = sum_b x_b * (1 + (m_a - m_b)^+) for live types."""
        x, m = self.counts, self.fitness
        k = len(x)
        aggr = [0.0] * k
        for a in range(k):
            ma = m[a]
            s = 0.0
            for b in range(k):
                d = ma - m[b]
                s += x[b] * (1.0 + d) if d > 0.0 else x[b]
            aggr[a] = s
        self._aggr = aggr

    def live_types(self) -> dict[int, int]:
        return {i: int(c) for i, c in zip(self.ids, self.counts)}


def moran_init(n, counts, fitness, *, schedule=()) -> MoranState:
    """Validate and build a Moran population.

    Parameters
    ----------
    n:
        Population size, at least 2 and at most :data:`MAX_POPULATION`.
    counts, fitness:
        Per-type initial counts (positive, summing to ``n``) and fitness
        values.  Types get ids 0, 1, ... in listed order.
    schedule:
        Mutation schedule, an iterable of
        :class:`~clonepit.inputs.InputEvent` (contender flags are ignored;
        indicator values are emergent here).  Times must strictly increase;
        event indices become type ids, so they must strictly increase too
        and start past the initial ids.
    """
    if n < 2:
        raise ConfigurationError(f"population size must be >= 2, got {n}")
    if n > MAX_POPULATION:
        raise ConfigurationError(f"population size must be at most 2**53, got {n}")
    counts = list(counts)
    fitness = list(fitness)
    if not counts or len(counts) != len(fitness):
        raise ConfigurationError("counts and fitness must be non-empty and match")
    if any(c <= 0 or c != int(c) for c in counts):
        raise ConfigurationError(f"initial counts must be positive integers, got {counts}")
    if sum(counts) != n:
        raise ConfigurationError(
            f"initial counts must sum to the population size {n}, got {sum(counts)}"
        )
    schedule = list(schedule)
    prev_time, prev_index = -math.inf, len(counts) - 1
    for ev in schedule:
        if not isinstance(ev, InputEvent):
            raise ConfigurationError(f"schedule entries must be InputEvents, got {ev!r}")
        if ev.time <= prev_time:
            raise ConfigurationError("schedule times must be strictly increasing")
        if ev.index <= prev_index:
            raise ConfigurationError(
                f"schedule index {ev.index} must exceed {prev_index}: indices strictly "
                "increase past the initial type ids"
            )
        prev_time, prev_index = ev.time, ev.index
    return MoranState(n, counts, fitness, schedule)


@dataclass
class LogFrequencyTrace:
    """Sampled log-frequencies on the rescaled clock.

    ``times`` is the sample grid (uniform grid points plus mutation and
    indicator-evaluation times).  ``heights[tid]`` gives
    ``log(1 + X_tid) / log N`` at each sample; types absent at a time have
    height 0.  ``mean_fitness`` is sampled alongside.
    """

    times: np.ndarray
    heights: dict[int, np.ndarray]
    mean_fitness: np.ndarray
    counts: dict[int, np.ndarray]

    @staticmethod
    def _build(n, pieces, all_ids):
        log_n = math.log(n)
        times = np.concatenate([np.asarray(p[0], dtype=float) for p in pieces] or [[]])
        fbar = np.empty(times.size)
        counts = {tid: np.zeros(times.size) for tid in all_ids}
        lo = 0
        for ts, ids, xs, fb in pieces:
            hi = lo + len(ts)
            fbar[lo:hi] = fb
            for tid, c in zip(ids, xs):
                counts[tid][lo:hi] = c
            lo = hi
        heights = {
            tid: np.log1p(arr) / log_n for tid, arr in counts.items()
        }
        return LogFrequencyTrace(times, heights, fbar, counts)


@dataclass
class MoranResult:
    """Outcome of one :func:`moran_run`."""

    state: MoranState
    trace: LogFrequencyTrace
    indicators: list[ContenderIndicator]
    n_events: int


def moran_run(
    state: MoranState,
    horizon: float,
    rng,
    *,
    grid_step: float = 0.01,
    initial_indicators: bool = False,
    trace: bool = True,
) -> MoranResult:
    """Run the population to the rescaled ``horizon``.

    Every mutant born during the run gets a contender check;
    ``initial_indicators`` also checks every initial type except the
    largest one (useful for single-mutant survival experiments).  A check
    draws nothing, so it moves no other result.
    The check comes ``1/sqrt(log N)`` after birth; a type is flagged when
    its count at the check time (not its running maximum) is at least
    ``log N``.  The trace
    samples a grid of finite positive ``grid_step`` plus the mutation and
    check times; a grid of more than :data:`MAX_GRID_SAMPLES` points is
    refused.

    The state is consumed: run each fresh state exactly once.
    """
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if not 0.0 < grid_step < math.inf:
        raise ConfigurationError(f"grid_step must be finite and positive, got {grid_step}")
    # the grid below has ceil(horizon / grid_step + 1/2) points
    if trace and math.isfinite(horizon) and horizon / grid_step + 0.5 > MAX_GRID_SAMPLES:
        raise ConfigurationError(
            f"grid_step {grid_step} gives more than {MAX_GRID_SAMPLES} trace samples "
            f"up to horizon {horizon}"
        )
    rng = as_generator(rng)
    n = state.n
    log_n = state.log_n
    c_resc = log_n / n
    t_off = 1.0 / math.sqrt(log_n)

    ids = state.ids
    x = state.counts
    m = state.fitness
    aggr = state._aggr
    sched = state.schedule
    nextu = uniform_draws(rng)
    log = math.log

    pending: list[tuple[float, int]] = []
    done_inds: list[ContenderIndicator] = []
    if initial_indicators and len(ids) > 1:
        major = max(range(len(ids)), key=lambda i: x[i])
        for i, tid in enumerate(ids):
            if i != major:
                heapq.heappush(pending, (t_off, tid))

    # trace pieces (times, ids, counts per id, mean fitness); a piece spans
    # one or more samples, its counts and mean fitness are scalars when the
    # state is constant over it and arrays otherwise
    pieces = []
    all_ids = set(ids)
    if trace and math.isfinite(horizon):
        grid = np.arange(0.0, horizon + 0.5 * grid_step, grid_step)
        grid[-1] = min(grid[-1], horizon)
    else:
        grid = np.empty(0)
    gp = 0
    glen = grid.size
    next_due = 0.0  # earliest checkpoint (indicator or grid point) not yet settled

    # A walk is (a, z0, path, times) from the two-type block walker: type
    # index a held z0 individuals before times[0] and path[j] after the step
    # at times[j]; the other type holds the rest.  A checkpoint at time tc
    # sees the state before a step at exactly tc.

    def snapshot(ts, walk):
        if walk is None:
            pieces.append((ts, tuple(ids), tuple(x), state.sum_xm / n))
            return
        a, z0, path, times = walk
        j = np.searchsorted(times, ts, "left")
        za = np.where(j == 0, z0, path[j - 1]).astype(float)
        cols = [n - za, n - za]
        cols[a] = za
        pieces.append((ts, tuple(ids), cols, (za * m[a] + (n - za) * m[1 - a]) / n))

    def count_now(tid, tc, walk):
        try:
            i = ids.index(tid)
        except ValueError:
            return 0.0
        if walk is None:
            return x[i]
        a, z0, path, times = walk
        j = int(np.searchsorted(times, tc, "left"))
        za = z0 if j == 0 else int(path[j - 1])
        return float(za if i == a else n - za)

    def settle(t, walk=None):
        """Evaluate everything scheduled up to time t; an indicator goes first
        at a tie with a grid point.  Without a walk the current state holds."""
        nonlocal gp, next_due
        while True:
            t_ind = pending[0][0] if pending else math.inf
            if t_ind <= t:
                g_end = int(np.searchsorted(grid, t_ind, "left"))
            else:
                g_end = int(np.searchsorted(grid, t, "right"))
            if g_end > gp:
                snapshot(grid[gp:g_end], walk)
                gp = g_end
            if t_ind > t:
                break
            due, tid = heapq.heappop(pending)
            cnt = count_now(tid, due, walk)
            done_inds.append(
                ContenderIndicator(tid, state.type_birth[tid], due, int(cnt), cnt >= log_n)
            )
            if trace:
                snapshot([due], walk)
        next_due = min(pending[0][0] if pending else math.inf,
                       grid[gp] if gp < glen else math.inf)

    def mutate(t, idx, inc):
        """Settle up to t, then let a uniform individual found type idx."""
        nonlocal aggr, next_due
        if t >= next_due:
            settle(t)
        state.clock = t
        _apply_mutation(state, idx, inc, nextu, pending, t_off)
        all_ids.add(idx)
        aggr = state._aggr
        if pending:
            next_due = min(next_due, pending[0][0])
        state.events += 1
        if trace:
            snapshot([t], None)

    rebuild_in = _REBUILD_EVERY
    while True:
        k = len(ids)
        t_mut = math.inf
        if state.sched_pos < len(sched):
            t_mut = sched[state.sched_pos].time

        if k == 2:
            # -- two-type stretch: the fitter type a replaces the other at
            #    rate z (N - z) (1 + s) c and loses to it at z (N - z) c, a
            #    +-1 walk run in blocks until absorption, the horizon or the
            #    next mutation
            t_stop = min(horizon, t_mut)
            a = 0 if m[0] >= m[1] else 1
            s = m[a] - m[1 - a]
            rate = (2.0 + s) * c_resc
            z = int(x[a])
            steps = 0
            for path, times in _jump_chain(
                z, state.clock, rng, (1.0 + s) / (2.0 + s),
                lambda prev: rate * prev * (n - prev), n, t_stop,
            ):
                t_last = float(times[-1])
                if t_last >= next_due:
                    settle(t_last, (a, z, path, times))
                z = int(path[-1])
                steps += path.size
            x[a] = float(z)
            x[1 - a] = float(n - z)
            state.sum_xm = x[0] * m[0] + x[1] * m[1]
            state.events += steps
            absorbed = z == 0 or z == n
            if absorbed:
                state.clock = t_last
                gone = a if z == 0 else 1 - a
                ids.pop(gone)
                x.pop(gone)
                m.pop(gone)
            state._rebuild()
            aggr = state._aggr
            rebuild_in = _REBUILD_EVERY
            if absorbed:
                continue
            if t_stop == t_mut:
                ev = sched[state.sched_pos]
                state.sched_pos += 1
                mutate(t_mut, ev.index, ev.increment)
            else:
                break
            continue

        # -- one event at a time (three or more live types, or a monomorphic
        #    population waiting for a mutation)
        total = 0.0
        for a in range(k):
            total += x[a] * (aggr[a] - x[a])
        total *= c_resc

        if total > 0.0:
            t_new = state.clock - log(1.0 - nextu()) / total
        else:
            t_new = math.inf

        if t_mut < t_new:
            # the scheduled mutation preempts; the exponential draw is
            # discarded, which is exact by memorylessness
            if t_mut > horizon:
                break
            ev = sched[state.sched_pos]
            state.sched_pos += 1
            mutate(t_mut, ev.index, ev.increment)
            continue

        if t_new > horizon or math.isinf(t_new):
            break
        if t_new >= next_due:
            settle(t_new)
        state.clock = t_new

        # -- resampling: pick reproducer a with weight x_a (T_a - x_a), then
        #    victim b != a with weight x_b (1 + (m_a - m_b)^+)
        u = nextu() * total / c_resc
        acc = 0.0
        a = k - 1
        for i in range(k):
            acc += x[i] * (aggr[i] - x[i])
            if u < acc:
                a = i
                break
        ma = m[a]
        tgt = nextu() * (aggr[a] - x[a])
        acc = 0.0
        b = -1
        for i in range(k):
            if i == a:
                continue
            d = ma - m[i]
            acc += x[i] * (1.0 + d) if d > 0.0 else x[i]
            b = i
            if tgt < acc:
                break

        x[a] += 1.0
        x[b] -= 1.0
        state.sum_xm += ma - m[b]
        mb = m[b]
        for i in range(k):
            da = m[i] - ma
            db = m[i] - mb
            aggr[i] += (1.0 + da if da > 0.0 else 1.0) - (1.0 + db if db > 0.0 else 1.0)
        if x[b] == 0.0:
            ids.pop(b)
            x.pop(b)
            m.pop(b)
            state._rebuild()
            aggr = state._aggr
        state.events += 1
        rebuild_in -= 1
        if rebuild_in == 0:
            rebuild_in = _REBUILD_EVERY
            state._rebuild()
            aggr = state._aggr

    # drain checkpoints up to the horizon with the final state
    if math.isfinite(horizon):
        settle(horizon)
        state.clock = horizon

    return MoranResult(
        state,
        LogFrequencyTrace._build(n, pieces, sorted(all_ids)) if trace else None,
        done_inds,
        state.events,
    )


def _apply_mutation(state, idx, inc, nextu, pending, t_off):
    """A uniformly chosen individual founds type ``idx`` with fitness +``inc``."""
    ids, x, m = state.ids, state.counts, state.fitness
    k = len(ids)
    u = nextu() * state.n
    acc = 0.0
    p = k - 1
    for i in range(k):
        acc += x[i]
        if u < acc:
            p = i
            break
    fit = m[p] + inc
    x[p] -= 1.0
    if x[p] == 0.0:
        ids.pop(p)
        x.pop(p)
        m.pop(p)
    ids.append(idx)
    x.append(1.0)
    m.append(fit)
    state.type_fitness[idx] = fit
    state.type_birth[idx] = state.clock
    state.sum_xm += inc
    state._rebuild()
    heapq.heappush(pending, (state.clock + t_off, idx))


#: the most sample times whose texts write_trace_csv keeps for the next trace
_TIME_TEXTS_CACHED = 2**16


def _format_times(times: np.ndarray) -> list[str]:
    return [_fmt(t) for t in times.tolist()]


@functools.lru_cache(maxsize=1)
def _time_texts(times: bytes) -> list[str]:
    """The ``_fmt`` texts of the float64 sample times whose bytes are ``times``.

    One entry: traces on one grid without mutations (a command's
    replicates, or the next command on the same grid) have the same times,
    and only the first one formats them.
    """
    return _format_times(np.frombuffer(times))


def write_trace_csv(result: MoranResult, path, scenario_hash: str | None = None):
    """Trace CSV: time, type_id, count, H, mean_fitness (one row per live type).

    Every cell is the text ``_fmt`` gives for its number, so the bytes are
    those of formatting each row on its own.  The rows come in runs: a run
    starts wherever a count or the bits of the mean fitness change, its
    row tails are formatted once and joined onto the texts of its sample
    times.  The time texts of the last trace written on at most
    ``_TIME_TEXTS_CACHED`` samples are kept, keyed on the bits of its
    times, so a trace on the same times formats none of them.
    """
    tr = result.trace
    if tr is None:
        raise ConfigurationError("the run kept no trace: it was run with trace=False")
    size = tr.times.size
    # a longer grid is formatted afresh: keeping its texts and their key
    # would hold some 47 bytes a sample until the next trace
    if size <= _TIME_TEXTS_CACHED:
        texts = _time_texts(tr.times.tobytes())
    else:
        texts = _format_times(tr.times)
    order = sorted(tr.counts)
    new = np.ones(size, dtype=bool)
    fbits = tr.mean_fitness.view(np.int64)
    new[1:] = fbits[1:] != fbits[:-1]
    for tid in order:
        c = tr.counts[tid]
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    # each type's count and height at the start of every run
    cols = [(tid, tr.counts[tid][starts].tolist(), tr.heights[tid][starts].tolist())
            for tid in order]
    chunks: list[str] = []
    bounds = starts.tolist() + [size]
    for j, fb in enumerate(tr.mean_fitness[starts].tolist()):
        fb_text = _fmt(fb)
        tails = [f",{tid},{int(counts[j])},{_fmt(heights[j])},{fb_text}"
                 for tid, counts, heights in cols if counts[j] > 0.0]
        run = texts[bounds[j]:bounds[j + 1]]
        if len(tails) == 1:  # the whole run in one join
            chunks.append((tails[0] + "\n").join(run) + tails[0])
        else:
            chunks += [t + tail for t in run for tail in tails]
    _write_csv(path, "time,type_id,count,H,mean_fitness", chunks, scenario_hash)
