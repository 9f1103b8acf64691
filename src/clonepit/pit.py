"""Event-driven engine for piecewise-linear interacting fitness trajectories.

Each type ``i`` carries a trajectory ``H_i`` with values in [0, 1] (its
log-frequency on the macroscopic scale) that is piecewise linear in time.
Between events every trajectory moves at its current slope.  Three kinds of
event punctuate the motion:

* **immigration**: a new trajectory appears at height 0; contenders start
  with slope equal to their fitness increment, non-contenders stay at 0
  forever (latent),
* **extinction**: a trajectory hits 0 from above and is absorbed,
* **resident change**: one or more trajectories hit 1 from below.  With
  ``v*`` the largest slope among the hitters just before the hit, every
  trajectory with positive height has its slope reduced by ``v*`` (the
  kink), the hitter attaining ``v*`` becomes the new resident (ending at
  slope 0 and height 1), and the resident fitness jumps by ``v*``.

The admissible states of a single trajectory are ``{0} x [0, inf)`` union
``(0,1) x R`` union ``{1} x (-inf, 0]``; at every time exactly one
trajectory sits at ``(height, slope) = (1, 0)``: the current resident.

Exact bookkeeping identities are maintained and checked on the fly (see
:meth:`PitState.check_invariants`): the resident fitness equals the starting
fitness plus the sum of all ``v*`` jumps, each type's fitness equals its
parent's plus its increment, and every living trajectory's slope equals its
initial slope minus the fitness gained by the resident since its birth.
The check tolerance is absolute plus a small part relative to the fitness.

:class:`PitState` runs one system and always keeps the full record: types
with their parents, event log and paths.  Runs that need only the resident
changes of many independent systems (renewal cycles, fitness paths) use
:class:`FitnessRows`, which advances one system per row of numpy arrays in
lockstep, follows only the trajectories that can still become resident and
yields the same changes.

Event times are compared with an absolute tolerance of 1e-12; hits within
that window of each other are processed as one simultaneous group
(extinctions first, then the resident change, then any immigration carrying
the same timestamp).  Heights are clamped to [0, 1] after every update, and
hitters are pinned to exactly 0 or 1 at their hit time.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .inputs import ConfigurationError, InputEvent

__all__ = [
    "TIME_EPS",
    "SLOPE_EPS",
    "CHECK_TOL",
    "ConfigurationError",
    "InvariantViolation",
    "StartEntry",
    "Trajectory",
    "PitEvent",
    "StepPath",
    "PiecewisePath",
    "PitState",
    "FitnessRows",
    "write_event_csv",
    "write_trajectories_jsonl",
]

#: absolute tolerance for treating two event times as simultaneous
TIME_EPS = 1e-12
#: slope tolerance used when testing whether a resident change is solitary
SLOPE_EPS = 1e-12
#: tolerance for the exact bookkeeping identities
CHECK_TOL = 1e-9
#: relative part of that tolerance, for fitness values so large that one
#: ulp of them exceeds ``CHECK_TOL`` (heavy-tailed increments)
CHECK_RTOL = 1e-12


def _check_tol(magnitude: float) -> float:
    return CHECK_TOL + CHECK_RTOL * abs(magnitude)


class InvariantViolation(RuntimeError):
    """An exact bookkeeping identity failed beyond tolerance."""


@dataclass(frozen=True)
class StartEntry:
    """Initial trajectory: height in [0, 1] and slope.

    Admissible pairs follow the state space: slope >= 0 at height 0,
    anything in (0, 1), slope <= 0 at height 1.
    """

    height: float
    slope: float

    def __post_init__(self):
        h, v = self.height, self.slope
        if not 0.0 <= h <= 1.0:
            raise ConfigurationError(f"start height must lie in [0,1], got {h}")
        if not math.isfinite(v):
            raise ConfigurationError(f"start slope must be finite, got {v}")
        if h == 0.0 and v < 0.0:
            raise ConfigurationError(f"start at height 0 needs slope >= 0, got {v}")
        if h == 1.0 and v > 0.0:
            raise ConfigurationError(f"start at height 1 needs slope <= 0, got {v}")


@dataclass(slots=True)
class Trajectory:
    """Bookkeeping record of one type."""

    id: int
    #: resident at the type's birth; None for the start entries
    parent: int | None
    birth: float
    slope0: float
    increment: float
    fitness: float
    status: str = "active"  # active | resident | latent | extinct
    #: (time, height, slope) breakpoints of the height path
    segments: list = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class PitEvent:
    """One logged event.

    ``value`` holds the initial slope for immigrations, ``v*`` for resident
    changes, and 0 for extinctions.  ``resident_id``/``fitness`` are the
    resident and its fitness just after the event.  ``solitary`` is set on
    resident changes: True when every positive-height trajectory has
    non-positive slope after the kink (a renewal point).
    """

    time: float
    kind: str
    trajectory_id: int
    value: float
    resident_id: int
    fitness: float
    solitary: bool | None = None


class StepPath:
    """Right-continuous step function given by jump times and values."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.size != self.values.size or self.times.size == 0:
            raise ValueError("step path needs matching, non-empty times and values")

    def __call__(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = self.values[idx]
        return float(out) if np.isscalar(t) else out


class PiecewisePath:
    """Piecewise-linear trajectory given by (time, height, slope) breakpoints."""

    def __init__(self, breakpoints):
        arr = np.asarray(breakpoints, dtype=float).reshape(-1, 3)
        self.t = arr[:, 0]
        self.h = arr[:, 1]
        self.v = arr[:, 2]

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.t, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.t) - 1)
        out = self.h[idx] + self.v[idx] * (ts - self.t[idx])
        out = np.clip(out, 0.0, 1.0)
        out = np.where(ts < self.t[0], self.h[0], out)
        return float(out) if np.isscalar(t) else out


#: PitState's per-slot rows, grown by _add_slot and compacted by _drop_slot
_SLOT_ROWS = ("_h", "_v", "_c0", "_fb", "_tg")


class PitState:
    """Mutable state of the trajectory system.

    Parameters
    ----------
    start:
        Iterable of :class:`StartEntry` records.
        Must contain exactly one ``(1, 0)`` entry, the initial resident.
        Defaults to that single entry.  The ``(1, 0)`` entry gets id 0;
        the others get ids -1, -2, ... in listed order.
    events:
        Iterable of :class:`~clonepit.inputs.InputEvent` immigrations,
        strictly increasing in time and index.  May be a lazy generator; it
        is consumed as the clock advances.
    f0:
        Fitness of the initial resident.

    The state keeps per-type records with their parents and path
    breakpoints, the event log and the resident changes, and checks the exact
    bookkeeping identities at every resident change.  Runs that need only
    the resident changes use :class:`FitnessRows` instead.

    The feed holds one drawn, not yet applied arrival; it refuses a record
    that is not an InputEvent, and times or indices that do not increase.
    """

    def __init__(self, start=None, events=(), f0: float = 0.0):
        self.f0 = float(f0)
        self.clock = 0.0
        self.fitness = self.f0
        #: compact (time, v_star, fitness_after, resident_id, solitary) tuples
        self.resident_changes: list[tuple] = []
        self._events = iter(events)
        self._pending = None
        self._last_time = -1.0
        self._last_index = 0
        if start is None:
            start = (StartEntry(1.0, 0.0),)
        entries = list(start)
        for e in entries:
            if not isinstance(e, StartEntry):
                raise ConfigurationError(f"start entries must be StartEntry records, got {e!r}")
        pairs = [(e.height, e.slope) for e in entries]
        if len(set(pairs)) != len(pairs):
            raise ConfigurationError("start entries must be pairwise distinct")
        residents = [e for e in entries if e.height == 1.0 and e.slope == 0.0]
        if len(residents) != 1:
            raise ConfigurationError(
                f"start must contain exactly one (1, 0) entry, found {len(residents)}"
            )

        # One row per active slot: height, slope, initial slope, resident
        # fitness at birth, and the height the slope is heading for (1 rising,
        # 0 falling, 2 flat: never reached, so the hit offset is inf).
        # _buf is scratch for the hit offsets (_offs views the last scan)
        # and then the height step.
        cap = max(8, len(entries) + 4)
        for name in _SLOT_ROWS:
            setattr(self, name, np.zeros(cap))
        self._buf = np.zeros(cap)
        self._offs = self._buf[:0]
        self._n = 0
        self._slot_ids: list[int] = []
        self._slot_of: dict[int, int] = {}

        self.resident_id = 0
        self.vstar_sum = 0.0
        #: upper bound for the total fitness gain: positive start slopes plus
        #: contender increments (each type turns resident at most once, and
        #: contributes at most its initial slope when it does)
        self.fitness_gain_bound = 0.0
        self.log: list[PitEvent] = []
        self.types: dict[int, Trajectory] = {}

        next_start_id = -1
        for e in entries:
            h, v = float(e.height), float(e.slope)
            if h == 1.0 and v == 0.0:
                tid = 0
            else:
                tid = next_start_id
                next_start_id -= 1
            self._add_type(tid, None, 0.0, h, v, v, self.f0 + v)
            if v > 0.0:
                self.fitness_gain_bound += v
            if h > 0.0 or v > 0.0:
                self._add_slot(tid, h, v)
            else:
                self.types[tid].status = "latent"
        self.types[0].status = "resident"
        self._pull_event()

    # -- construction helpers --------------------------------------------

    def _add_type(self, tid, parent, birth, height0, slope, increment, fitness):
        # ids never repeat: starts take 0, -1, -2, ... and the feed's
        # indices are at least 1 and strictly increasing
        self.types[tid] = Trajectory(
            tid, parent, birth, slope, increment, fitness, segments=[(birth, height0, slope)]
        )

    def _add_slot(self, tid, h, v):
        n = self._n
        if n == self._h.size:
            for name in _SLOT_ROWS:
                arr = getattr(self, name)
                grown = np.zeros(2 * arr.size)
                grown[:n] = arr
                setattr(self, name, grown)
            self._buf = np.zeros(2 * n)
        # a flat slope of -0.0 would make the flat offset (2 - h)/v read -inf
        v = v + 0.0
        self._h[n] = h
        self._v[n] = v
        self._c0[n] = v
        self._fb[n] = self.fitness
        self._tg[n] = 1.0 if v > 0.0 else 0.0 if v < 0.0 else 2.0
        self._slot_ids.append(tid)
        self._slot_of[tid] = n
        self._n = n + 1

    def _drop_slot(self, slot):
        last = self._n - 1
        dropped = self._slot_ids[slot]
        del self._slot_of[dropped]
        if slot != last:
            for name in _SLOT_ROWS:
                arr = getattr(self, name)
                arr[slot] = arr[last]
            moved = self._slot_ids[last]
            self._slot_ids[slot] = moved
            self._slot_of[moved] = slot
        self._slot_ids.pop()
        self._n = last

    # -- event scanning ----------------------------------------------------

    def _hit_offsets(self):
        """Relative time to each active slot's next boundary hit (inf if none).

        ``(target - h) / v`` in the scratch row: ``(1 - h) / v`` when rising,
        ``-h / v`` when falling (``h / -v`` to the bit in IEEE arithmetic, but
        for the sign of a zero offset at h = 0), and ``(2 - h) / 0 = inf``
        when flat.  Callers silence the division by zero.
        """
        n = self._n
        out = self._buf[:n]
        np.subtract(self._tg[:n], self._h[:n], out=out)
        return np.divide(out, self._v[:n], out=out)

    def _next_offset(self):
        if not self._n:
            return math.inf
        self._offs = offs = self._hit_offsets()
        return float(offs[int(offs.argmin())])

    def _hit_group(self, cut):
        return np.nonzero(self._offs <= cut)[0]

    # -- event application ---------------------------------------------------

    def _apply_extinction(self, tid):
        slot = self._slot_of[tid]
        self._h[slot] = 0.0
        traj = self.types[tid]
        traj.status = "extinct"
        traj.segments.append((self.clock, 0.0, 0.0))
        self._drop_slot(slot)
        self.log.append(
            PitEvent(self.clock, "extinction", tid, 0.0, self.resident_id, self.fitness)
        )

    def _apply_hits(self, slots):
        """Apply the hits of ``slots`` at the clock: extinctions, then the resident change.

        The rising hitters are pinned to height 1; the one with maximal
        pre-hit slope (ties to the smaller id) becomes the resident, and
        every positive-height trajectory is kinked.
        """
        ids, vs = self._slot_ids, self._v
        dying = [ids[s] for s in slots if vs[s] < 0.0]
        rising = [ids[s] for s in slots if vs[s] > 0.0]
        for tid in dying:
            self._apply_extinction(tid)
        if not rising:
            return
        hitters = sorted(rising)
        pinned = [self._slot_of[tid] for tid in hitters]
        for s in pinned:
            self._h[s] = 1.0
        pre = np.asarray([vs[s] for s in pinned])
        v_star = float(pre.max())
        if not v_star > 0.0:
            raise InvariantViolation(
                f"resident change at t={self.clock} with non-positive slope {v_star}"
            )
        # argmax picks the first maximum; hitters are sorted by id.
        winner = hitters[int(np.argmax(pre))]

        n = self._n
        h, v = self._h[:n], self._v[:n]
        kinked = h > 0.0
        v[kinked] -= v_star
        wslot = self._slot_of[winner]
        self._h[wslot] = 1.0
        self._v[wslot] = 0.0
        tg = self._tg[:n]
        tg.fill(2.0)
        tg[v > 0.0] = 1.0
        tg[v < 0.0] = 0.0

        old_resident = self.resident_id
        self.resident_id = winner
        self.fitness += v_star
        self.vstar_sum += v_star

        solitary = bool(np.all(v[kinked] <= SLOPE_EPS))
        self.resident_changes.append(
            (self.clock, v_star, self.fitness, winner, solitary)
        )

        self.types[old_resident].status = "active"
        self.types[winner].status = "resident"
        for slot in np.nonzero(kinked)[0]:
            self.types[self._slot_ids[slot]].segments.append(
                (self.clock, float(h[slot]), float(v[slot]))
            )

        self._check_after_change(winner)
        self.log.append(
            PitEvent(
                self.clock, "resident_change", winner, v_star, winner, self.fitness, solitary
            )
        )

    def _immigrate(self):
        t, slope, inc, tid = self._pending
        parent = self.resident_id
        self._add_type(tid, parent, t, 0.0, slope, inc, self.fitness + inc)
        if slope > 0.0:
            self._add_slot(tid, 0.0, slope)
            self.fitness_gain_bound += inc
        else:
            self.types[tid].status = "latent"
        self._pull_event()
        self.log.append(PitEvent(t, "immigration", tid, slope, parent, self.fitness))

    def _check_after_change(self, winner):
        tol = _check_tol(self.fitness)
        drift = abs(self.fitness - self.f0 - self.vstar_sum)
        if not drift <= tol:
            raise InvariantViolation(
                f"fitness != f0 + sum of v* at t={self.clock} (drift {drift:.3e})"
            )
        mism = abs(self.fitness - self.types[winner].fitness)
        if not mism <= tol:
            raise InvariantViolation(
                f"resident fitness {self.fitness} != type fitness "
                f"{self.types[winner].fitness} for {winner} at t={self.clock}"
            )
        n = self._n
        implied = self._c0[:n] - (self.fitness - self._fb[:n])
        err = float(np.max(np.abs(self._v[:n] - implied))) if n else 0.0
        if not err <= tol:
            raise InvariantViolation(
                f"slope-coupling identity violated at t={self.clock} (max err {err:.3e})"
            )
        self._check_top(tol, f" after change at t={self.clock}")

    def _check_top(self, tol, when=""):
        """The resident sits at (1, 0), and any other trajectory there is tied with it.

        Hitters with equal slopes reach the top together: the smaller id
        wins, and the others end at (1, 0) with the resident's fitness.
        """
        n = self._n
        top = np.nonzero((self._h[:n] == 1.0) & (self._v[:n] == 0.0))[0]
        ids = [self._slot_ids[s] for s in top]
        if self.resident_id not in ids or any(
            not abs(self.types[tid].fitness - self.fitness) <= tol for tid in ids
        ):
            raise InvariantViolation(
                f"trajectories {ids} at (1, 0){when}; only the resident "
                f"{self.resident_id} and types tied with it may sit there"
            )

    def _move(self, dt):
        """Move every slot by ``v * dt`` and clamp to [0, 1]; overwrites the scratch row."""
        n = self._n
        if dt > 0.0 and n:
            h, step = self._h[:n], self._buf[:n]
            np.multiply(self._v[:n], dt, out=step)
            np.add(h, step, out=h)
            np.maximum(h, 0.0, out=h)
            np.minimum(h, 1.0, out=h)

    def advance(self, until: float = math.inf):
        """Process all events up to ``until``; the clock ends at ``until``.

        Each step races the next boundary hit against the next arrival,
        groups hits by offset within ``TIME_EPS`` and applies the stamp as
        extinctions, then the resident change, then the arrival; a stamp
        at exactly ``until`` is applied.  With the default ``until`` the run
        goes on until the arrivals are spent and nothing moves any more,
        and the clock stays at its last stamp.  Every applied event is
        appended to :attr:`log`.
        """
        until = float(until)
        if not until >= self.clock:
            raise ConfigurationError(
                f"advance(until={until}) needs until >= the clock {self.clock} (and not NaN)"
            )
        # only flat slots divide by zero, and inf is their intended offset
        with np.errstate(divide="ignore"):
            while True:
                off_min = self._next_offset()
                t_hit = self.clock + off_min
                t_imm = self._pending[0] if self._pending is not None else math.inf
                t_next = min(t_hit, t_imm)
                if t_next > until or t_next == math.inf:
                    if until < math.inf:
                        self._move(until - self.clock)
                        self.clock = until
                    return
                # Group by offset, not by t_next - clock: at large clocks the
                # absolute difference rounds below the true offset and can
                # even collapse to zero, which would select nothing and stall.
                group = None
                if t_hit <= t_next + TIME_EPS:
                    group = self._hit_group(off_min + TIME_EPS)
                take_imm = t_imm <= t_next + TIME_EPS

                self._move(t_next - self.clock)
                self.clock = t_next
                if group is not None:
                    self._apply_hits(group)
                if take_imm:
                    self._immigrate()

    def _pull_event(self):
        """Draw the next arrival as (time, slope, increment, id) into ``_pending``.

        Times and increments become Python floats and indices Python ints,
        whatever number types the record holds, so the state keeps no numpy
        scalars.
        """
        ev = next(self._events, None)
        if ev is None:
            self._pending = None
            return
        if not isinstance(ev, InputEvent):
            raise ConfigurationError(f"immigrations must be InputEvent records, got {ev!r}")
        t, inc, idx = float(ev.time), float(ev.increment), operator.index(ev.index)
        if not t > self._last_time:
            raise ConfigurationError(
                f"immigration times must be strictly increasing, got {t} after {self._last_time}"
            )
        if not idx > self._last_index:
            raise ConfigurationError(f"immigration index {idx} reused or out of order")
        self._last_time, self._last_index = t, idx
        self._pending = (t, inc if ev.contender else 0.0, inc, idx)

    @property
    def pending_immigration(self):
        """Next drawn but not yet applied arrival as (time, slope, increment, id).

        ``None`` once the event stream is exhausted.
        """
        return self._pending

    def resident_fitness_path(self) -> StepPath:
        """Resident fitness as a right-continuous step function from time 0."""
        return _fitness_path(self.f0, self.resident_changes)

    # -- derived views -------------------------------------------------------

    def trajectory_path(self, tid: int) -> PiecewisePath:
        """Piecewise-linear height path of type ``tid``."""
        return PiecewisePath(self.types[tid].segments)

    def check_invariants(self):
        """Run all closing checks; raises :class:`InvariantViolation` on failure."""
        n = self._n
        if n:
            h = self._h[:n]
            if not (h.min() >= 0.0 and h.max() <= 1.0):
                raise InvariantViolation("height outside [0, 1]")
        tol = _check_tol(self.fitness)
        self._check_top(tol)
        drift = abs(self.fitness - self.f0 - self.vstar_sum)
        if not drift <= tol:
            raise InvariantViolation(f"fitness != f0 + sum of v* (drift {drift:.3e})")
        bound = self.fitness_gain_bound
        if not self.fitness - self.f0 <= bound + tol:
            raise InvariantViolation(
                f"fitness gain {self.fitness - self.f0} exceeds increment bound {bound}"
            )
        for tid, traj in self.types.items():
            if traj.parent is not None:
                expect = self.types[traj.parent].fitness + traj.increment
                if not abs(traj.fitness - expect) <= _check_tol(expect):
                    raise InvariantViolation(
                        f"type {tid} fitness {traj.fitness} != parent + increment {expect}"
                    )

    # -- convenience -----------------------------------------------------------

    @property
    def active_ids(self) -> list[int]:
        return list(self._slot_ids)

    def height(self, tid: int) -> float:
        slot = self._slot_of.get(tid)
        if slot is None:
            traj = self.types.get(tid)
            if traj is not None and traj.status in ("latent", "extinct"):
                return 0.0
            raise KeyError(tid)
        return float(self._h[slot])

    def slope(self, tid: int) -> float:
        slot = self._slot_of.get(tid)
        if slot is None:
            traj = self.types.get(tid)
            if traj is not None and traj.status in ("latent", "extinct"):
                return 0.0
            raise KeyError(tid)
        return float(self._v[slot])


def _fitness_path(f0: float, changes) -> StepPath:
    """Resident fitness from ``f0`` through ``changes`` as a right-continuous step function."""
    return StepPath([0.0] + [rc[0] for rc in changes], [f0] + [rc[2] for rc in changes])


_FLOAT_MAX = sys.float_info.max
#: FitnessRows keeps arrival indices as int64, below this bound
_INDEX_BOUND = 2**63
#: rows the renewal mode runs at once, per stream
_RENEWAL_ROWS = 1024
#: widest last axis that _reduce_last folds one column at a time
_COLUMN_FOLD_MAX = 16


def _reduce_last(ufunc, x):
    """``ufunc.reduce(x, axis=-1)`` for ``np.minimum`` or ``np.maximum``.

    numpy reduces a short last axis one row at a time, at some 13 ns a row
    whatever the width; up to ``_COLUMN_FOLD_MAX`` columns, folding them in
    one by one is several times faster.  The result is the same but for
    the sign of a zero that ties with the other zero, which no caller
    tells apart.
    """
    width = x.shape[-1]
    if not 2 <= width <= _COLUMN_FOLD_MAX:
        return ufunc.reduce(x, axis=-1)
    out = ufunc(x[..., 0], x[..., 1])
    for j in range(2, width):
        ufunc(out, x[..., j], out=out)
    return out


class FitnessRows:
    """Resident changes of independent trajectory systems, one per row, in lockstep.

    Each row is a system started from one resident at fitness 0 and keeps
    only the trajectories that can still move the resident fitness.  Each
    slope is the type's fitness minus the resident fitness, and the
    resident fitness never falls, so:

    * a non-resident trajectory whose slope is <= 0 never rises again;
    * a trajectory at least as high and at least as fit as another reaches
      the top no later than it, and leaves it with slope <= 0 when it does;
    * so an arrival, which starts at height 0, is kept only if its fitness
      is strictly above that of every kept trajectory.

    The kept trajectories of a row are all rising and sit in arrival order,
    which is also the order of increasing slope, in the columns of padded
    ``rows x columns`` arrays (a free cell has height -inf and slope 0, so
    it never hits and is never kept).  One numpy step advances every
    moving row by one stamp: the hit offsets, the race between the next
    hit and the next arrival, the move, the hits within ``TIME_EPS`` of the
    first, the crown (the steepest hitter, ties to the earlier arrival),
    the kink, the domination prune as a reverse cumulative maximum (the
    cells it frees are closed up only when a row runs out of columns) and
    the join test of the arrival.  So a row's changes are those of
    :class:`PitState` on the same arrivals, with the same winners and
    solitary flags, and times and fitness agree with it up to rounding
    (the extinctions a row never sees are no steps here).

    ``FitnessRows(streams)`` takes one :class:`~clonepit.inputs.InputEvent`
    stream per row; :meth:`advance` moves all rows to a common ``until``.
    :meth:`cycles` is the renewal mode: it runs the rows of one or more
    arrival streams together, and a row that makes a solitary change
    records the cycle and starts its stream's next one on its own clock.
    """

    #: per-row state, permuted together when rows leave the moving prefix
    _ROW_STATE = ("_rows", "_clock", "_fit", "_n", "_ptr", "_H", "_V", "_ID", "_T", "_S", "_I")

    def __init__(self, streams):
        streams = [list(evs) for evs in streams]
        if not streams:
            raise ConfigurationError("FitnessRows needs at least one stream")
        for r, evs in enumerate(streams):
            if not all(isinstance(ev, InputEvent) for ev in evs):
                raise ConfigurationError("FitnessRows streams must hold InputEvent records")
            # the index column is int64; PitState takes any integer
            if any(ev.index >= _INDEX_BOUND for ev in evs):
                raise ConfigurationError(
                    f"stream {r}: immigration indices must lie below 2**63 = {_INDEX_BOUND}"
                    " for FitnessRows")
        width = max(map(len, streams)) + 1
        T = np.full((len(streams), width), math.inf)
        S = np.zeros_like(T)
        I = np.zeros(T.shape, dtype=np.int64)
        for r, evs in enumerate(streams):
            m = len(evs)
            if not m:
                continue
            T[r, :m], S[r, :m] = np.array(
                [(ev.time, ev.increment if ev.contender else 0.0) for ev in evs]
            ).T
            # the indices straight to int64: a float64 column rounds them above 2**53
            I[r, :m] = [ev.index for ev in evs]
            t, idx = T[r, :m], I[r, :m]
            if not (np.all(t[1:] > t[:-1]) and np.all(idx[1:] > idx[:-1]) and idx[0] >= 1):
                raise ConfigurationError(
                    f"stream {r}: immigration times and indices must be strictly increasing"
                    " and indices at least 1"
                )
        self._setup(T, S, I, [len(streams)])
        self._log: list | None = []
        #: resident_changes as last built, with the log length it was built from
        self._changes = (0, [[] for _ in streams])

    def _setup(self, T, S, I, groups):
        """Empty rows on the arrival columns ``T``, ``S``, ``I``, in ``groups`` of consecutive rows.

        A group is all rows in stream mode, one arrival stream's rows in
        renewal mode.  Parking keeps the order of the rows that stay, so
        each group stays one block of the moving prefix, between
        consecutive entries of ``_bounds``.
        """
        n_rows = T.shape[0]
        self._rows = np.arange(n_rows)
        self._clock = np.zeros(n_rows)
        self._fit = np.zeros(n_rows)
        #: per row, the column the next joining arrival takes
        self._n = np.zeros(n_rows, dtype=np.int64)
        #: per row, the column of its next arrival in _T, _S and _I
        self._ptr = np.zeros(n_rows, dtype=np.int64)
        self._at = np.arange(n_rows)
        self._H = np.full((n_rows, 2), -math.inf)
        self._V = np.zeros((n_rows, 2))
        self._ID = np.zeros((n_rows, 2), dtype=np.int64)
        self._T, self._S, self._I = T, S, I
        self._bounds = [0, *itertools.accumulate(groups)]

    # -- stream mode ---------------------------------------------------------

    def advance(self, until: float = math.inf):
        """Process every row's events up to ``until``; each clock ends at ``until``.

        With ``until`` infinite each row runs out its stream, and its clock
        stays at its last event.
        """
        until = float(until)
        if not until >= self._clock.max():
            raise ConfigurationError(
                f"advance(until={until}) needs until >= the clock {self._clock.max()} (and not NaN)"
            )
        moving = self._rows.size
        self._bounds = [0, moving]
        with np.errstate(invalid="ignore"):
            while moving:
                stop, _ = self._step(moving, until)
                if np.count_nonzero(stop):
                    moving = self._park(moving, stop)

    def _by_row(self, values):
        out = np.empty_like(values)
        out[self._rows] = values
        return out

    @property
    def clock(self) -> np.ndarray:
        """Each row's clock, in row order."""
        return self._by_row(self._clock)

    @property
    def fitness(self) -> np.ndarray:
        """Each row's resident fitness, in row order."""
        return self._by_row(self._fit)

    @property
    def resident_changes(self) -> list[list[tuple]]:
        """Per row, compact (time, v_star, fitness_after, resident_id, solitary) tuples."""
        if self._changes[0] != len(self._log):
            out = [[] for _ in range(self._rows.size)]
            if self._log:
                hit, *cols = (np.concatenate(c) for c in zip(*self._log))
                rows, *cols = (c[hit].tolist() for c in cols)
                for r, change in zip(rows, zip(*cols)):
                    out[r].append(change)
            self._changes = (len(self._log), out)
        return self._changes[1]

    def resident_fitness_path(self, row: int) -> StepPath:
        """Resident fitness of ``row`` as a right-continuous step function from time 0."""
        return _fitness_path(0.0, self.resident_changes[row])

    # -- renewal mode --------------------------------------------------------

    @classmethod
    def cycles(cls, streams, n_cycles: int, *, collect: bool = False):
        """Run exactly ``n_cycles`` regeneration cycles on each of ``streams``, in one lockstep.

        ``streams`` is a list of :class:`~clonepit.inputs.ArrivalBuffer`, all
        on one contender law.  Each stream runs its own ``min(n_cycles,
        1024)`` rows, which start its cycles 0, 1, ...; a row that makes a
        solitary change records its cycle (after an arrival carrying the
        same stamp), and while fewer than ``n_cycles`` of its stream have
        started it starts the stream's next one, rows of a stream finishing
        at one step taking numbers in row order; otherwise it retires.
        Every started cycle runs to its solitary change, so long cycles are
        not cut short.  A new cycle starts with one resident on a clock at
        zero and keeps the arrivals its row has read but not applied,
        shifted to that clock (one that would fall at or before zero is
        moved to ``TIME_EPS``).

        Each row reads its stream in chunks of a fixed size, a power of two
        between 2 and 64 set by the contender rate, and sums the gaps of its
        chunk onto its last arrival time.  A row reads a chunk when it has
        passed the one before; a stream's rows reading at one step read in
        row order, and at the start every row reads one chunk.  A stream's
        refills go to its own rows alone, so its cycles are bit for bit
        those it gives when it runs alone, whatever runs beside it.

        Returns ``(lengths, rewards, events)``, stream after stream and in
        cycle order within a stream, ``events`` being ``None`` or, with
        ``collect``, per cycle the ``(time, increment)`` pairs it applied,
        on its own clock.
        """
        streams = list(streams)
        if not streams:
            raise ConfigurationError("FitnessRows.cycles needs at least one arrival stream")
        law = streams[0].law
        if any(buf.law != law for buf in streams):
            raise ConfigurationError("the arrival streams of one lockstep must share one law")
        chunk = 1 << min(6, max(1, math.ceil(math.log2(0.25 * law.rate + 1.0))))
        n_rows = min(n_cycles, _RENEWAL_ROWS)
        T = np.zeros((len(streams) * n_rows, 2 * chunk))
        self = cls.__new__(cls)
        self._setup(T, np.zeros_like(T), np.zeros(T.shape, dtype=np.int64),
                    [n_rows] * len(streams))
        self._log = None
        self._ptr[:] = 2 * chunk
        # here _rows holds the cycle each row runs, stream s numbering its
        # cycles from s * n_cycles
        self._rows = (np.arange(len(streams))[:, None] * n_cycles + np.arange(n_rows)).ravel()
        started = [n_rows] * len(streams)
        lengths, rewards = np.empty(len(streams) * n_cycles), np.empty(len(streams) * n_cycles)
        applied = {c: [] for c in self._rows.tolist()} if collect else None
        moving = self._rows.size
        with np.errstate(invalid="ignore"):
            while moving:
                self._refill(moving, streams, chunk)
                before = self._ptr[:moving].copy() if collect else None
                _, done = self._step(moving, math.inf)
                if collect:
                    for w in np.flatnonzero(self._ptr[:moving] > before):
                        b, a = before[w], self._ptr[w]
                        applied[self._rows[w]].extend(
                            zip(self._T[w, b:a].tolist(), self._S[w, b:a].tolist()))
                finished = [] if done is None else self._group_counts(done)
                if not any(finished):
                    continue
                done = done.nonzero()[0]
                cyc = self._rows[done]
                lengths[cyc] = self._clock[done]
                rewards[cyc] = self._fit[done]
                # per stream, its finishing rows start its next cycles in
                # row order while it has cycles left, and the rest retire
                fresh, leave = [], None
                a = 0
                for s, d in enumerate(finished):
                    f = min(d, n_cycles - started[s])
                    if f:
                        first = s * n_cycles + started[s]
                        self._rows[done[a : a + f]] = np.arange(first, first + f)
                        if collect:
                            applied.update((c, []) for c in range(first, first + f))
                        started[s] += f
                        fresh.append(done[a : a + f])
                    if f < d:
                        if leave is None:
                            leave = np.zeros(moving, dtype=bool)
                        leave[done[a + f : a + d]] = True
                    a += d
                if fresh:
                    self._restart(fresh[0] if len(fresh) == 1 else np.concatenate(fresh))
                if leave is not None:
                    moving = self._park(moving, leave)
        events = [applied[c] for c in range(lengths.size)] if collect else None
        return lengths, rewards, events

    def _refill(self, moving, streams, chunk):
        """Give every moving row that has passed into its second chunk a fresh one behind it.

        The rows of each stream read from it in row order.
        """
        over = self._ptr[:moving] > chunk
        need = np.flatnonzero(over)
        if need.size:
            parts = [buf.take(m * chunk)
                     for buf, m in zip(streams, self._group_counts(over)) if m]
            gaps, incs = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            T, S = self._T[need], self._S[need]
            T[:, :chunk], S[:, :chunk] = T[:, chunk:], S[:, chunk:]
            T[:, chunk:] = np.add.accumulate(
                np.concatenate((T[:, chunk - 1 : chunk], gaps.reshape(-1, chunk)), axis=1), axis=1
            )[:, 1:]
            S[:, chunk:] = incs.reshape(-1, chunk)
            self._T[need], self._S[need] = T, S
            self._ptr[need] -= chunk

    def _restart(self, rows):
        """Start a new cycle on ``rows``: one resident at fitness 0, clock 0."""
        T = self._T[rows] - self._clock[rows, None]
        self._T[rows] = np.where(T > 0.0, T, TIME_EPS)
        self._clock[rows] = 0.0
        self._fit[rows] = 0.0
        self._n[rows] = 0
        self._H[rows] = -math.inf
        self._V[rows] = 0.0

    # -- the lockstep ----------------------------------------------------------

    def _park(self, moving, leave):
        """Move the rows flagged in ``leave`` behind the moving prefix; returns its new size.

        The rows that stay keep their order, so each group stays one block.
        """
        gone = self._group_counts(leave)
        order = np.argsort(leave, kind="stable")
        for name in self._ROW_STATE:
            arr = getattr(self, name)
            arr[:moving] = arr[:moving][order]
        self._bounds = [b - g for b, g in zip(self._bounds, itertools.accumulate([0, *gone]))]
        return self._bounds[-1]

    def _step(self, moving, until):
        """Advance each row of the moving prefix by one stamp.

        Returns the rows' stop flags (their next stamp lies past ``until``;
        they now sit at ``until``) and the flags of the rows that made a
        solitary resident change, or None when no row made a change.
        """
        at = self._at[:moving]
        H, V = self._H[:moving], self._V[:moving]
        clock, fit, n, ptr = (self._clock[:moving], self._fit[:moving],
                              self._n[:moving], self._ptr[:moving])

        off = np.subtract(1.0, H)
        np.divide(off, V, out=off)
        off_min = _reduce_last(np.minimum, off)
        t_hit = clock + off_min
        t_imm = self._T[at, ptr]
        t_next = np.minimum(t_hit, t_imm)
        # past until, or nothing left to happen
        stop = t_next > min(until, _FLOAT_MAX)
        t_to = np.where(stop, until if until < math.inf else clock, t_next)
        H += V * (t_to - clock)[:, None]
        np.minimum(H, 1.0, out=H)
        clock[:] = t_to
        # what falls within TIME_EPS of the stamp; nothing for a stopped row
        cut = np.where(stop, -math.inf, t_next + TIME_EPS)
        hit = t_hit <= cut
        take = t_imm <= cut

        done = None
        if np.count_nonzero(hit):
            # The steepest hitter wins (ties to the earlier arrival) and every
            # trajectory above height 0 is kinked by its slope.  A trajectory
            # that stops rising leaves, and so does one no higher than a
            # fitter one left: scanning from the fittest, a trajectory stays
            # only if it is higher than every one that stayed before it.
            # The cells left are freed in place; _make_room closes the gaps.
            group = (off <= (off_min + TIME_EPS)[:, None]) & hit[:, None]
            H[group] = 1.0
            win = np.where(group, V, -math.inf).argmax(axis=1)
            v_star = V[at, win] * hit
            fit += v_star
            up = H > 0.0
            V -= up * v_star[:, None]
            # a kept trajectory at height 0 keeps its positive slope
            alive = V > 0.0
            done = hit & (_reduce_last(np.maximum, V * up) <= SLOPE_EPS)
            # the highest of the fitter ones alive, by a reverse running max
            top = np.where(alive, H, -math.inf)
            above = np.empty_like(top)
            above[:, -1] = -math.inf
            np.maximum.accumulate(top[:, :0:-1], axis=1, out=above[:, -2::-1])
            free = hit[:, None] & ~(alive & (H > above))
            H[free] = -math.inf
            V[free] = 0.0
            if self._log is not None:
                self._log.append((hit, self._rows[:moving].copy(), t_to, v_star, fit.copy(),
                                  self._ID[:moving][at, win], done))

        if np.count_nonzero(take):
            # an arrival joins when it is steeper than every kept trajectory
            # of its row (free cells have slope 0)
            s = self._S[at, ptr]
            joins = take & (s > _reduce_last(np.maximum, V))
            ptr += take
            rows = joins.nonzero()[0]
            if rows.size:
                if n.max() == H.shape[1]:
                    self._make_room(moving)
                col = n[rows]
                self._H[rows, col] = 0.0
                self._V[rows, col] = s[rows]
                self._ID[rows, col] = self._I[rows, ptr[rows] - 1]
                n[rows] = col + 1
        return stop, done

    def _group_counts(self, flags) -> list[int]:
        """Per group, the number of its moving rows set in ``flags``."""
        b = self._bounds
        return [int(np.count_nonzero(flags[b[g] : b[g + 1]])) for g in range(len(b) - 1)]

    def _make_room(self, moving):
        """Move the kept cells of the moving rows left, in order; widen if they fill half.

        The cells of all rows are kept, and their order, so the columns stay
        in arrival order; a free cell has height -inf and slope 0.
        """
        width = self._H.shape[1]
        kept = self._H[:moving] > -math.inf
        dest = np.cumsum(kept, axis=1) - 1
        r, c = np.nonzero(kept)
        d = dest[r, c]
        self._n[:moving] = dest[:, -1] + 1
        grow = 2 if 2 * self._n[:moving].max() > width else 1
        for name, fill in (("_H", -math.inf), ("_V", 0.0), ("_ID", 0)):
            old = getattr(self, name)
            new = np.full((old.shape[0], grow * width), fill, dtype=old.dtype)
            new[moving:, :width] = old[moving:]
            new[r, d] = old[r, c]
            setattr(self, name, new)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path, header: str, rows, scenario_hash: str | None = None):
    """Write a ``# scenario=`` line (when a hash is given), ``header`` and the joined ``rows``."""
    lines = [f"# scenario={scenario_hash}"] if scenario_hash else []
    lines.append(header)
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_event_csv(events, path, scenario_hash: str | None = None):
    """Write an event log as CSV: time, kind, trajectory_id, v_star_or_slope, resident_id, fitness.

    Each float cell is ``_fmt``'s ``.17g`` text, through one row template.
    """
    _write_csv(
        path,
        "time,kind,trajectory_id,v_star_or_slope,resident_id,fitness",
        (
            "%.17g,%s,%d,%.17g,%d,%.17g"
            % (ev.time, ev.kind, ev.trajectory_id, ev.value, ev.resident_id, ev.fitness)
            for ev in events
        ),
        scenario_hash,
    )


def write_trajectories_jsonl(state: PitState, path, scenario_hash: str | None = None):
    """Write per-type records as JSON lines: id, parent, birth, fitness, status, segments.

    Each line is the text ``json.dumps`` gives for the record, built
    directly: the record's numbers are Python ints and floats, whose ``repr``
    is the JSON spelling except for non-finite floats, respelled at the end.
    """
    types = state.types
    body = "".join(
        f'{{"id": {t.id!r}, "parent": {"null" if t.parent is None else repr(t.parent)}, '
        f'"birth": {t.birth!r}, "fitness": {t.fitness!r}, "status": "{t.status}", '
        f'"segments": [{", ".join(["[%r, %r, %r]" % seg for seg in t.segments])}]}}\n'
        for t in map(types.__getitem__, sorted(types))
    )
    # No key, status or finite float repr contains "inf" or "nan".
    if "inf" in body or "nan" in body:
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    head = json.dumps({"scenario": scenario_hash}) + "\n" if scenario_hash else ""
    with open(path, "w") as fh:
        fh.write(head + body)
