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

:class:`PitState` always keeps the full record: types with their parents,
event log and paths.  Runs that need only the resident changes (renewal
cycles, fitness paths) use :class:`FitnessSkeleton`, which follows only the
trajectories that can still become resident and yields the same changes.

Event times are compared with an absolute tolerance of 1e-12; hits within
that window of each other are processed as one simultaneous group
(extinctions first, then the resident change, then any immigration carrying
the same timestamp).  Heights are clamped to [0, 1] after every update, and
hitters are pinned to exactly 0 or 1 at their hit time.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .inputs import InputEvent

__all__ = [
    "ConfigurationError",
    "InvariantViolation",
    "StartEntry",
    "Trajectory",
    "PitEvent",
    "StepPath",
    "PiecewisePath",
    "PitState",
    "FitnessSkeleton",
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


class ConfigurationError(ValueError):
    """Invalid start configuration, immigration sequence or parameters."""


class InvariantViolation(RuntimeError):
    """An exact bookkeeping identity failed beyond tolerance."""


def _forward_until(until, clock) -> float:
    """``until`` as a float; ``advance`` runs forward, so not NaN nor below the clock."""
    until = float(until)
    if not until >= clock:
        raise ConfigurationError(
            f"advance(until={until}) needs until >= the clock {clock} (and not NaN)"
        )
    return until


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
    death: float | None = None
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

    def jumps(self):
        return list(zip(self.times.tolist(), self.values.tolist()))


class PiecewisePath:
    """Piecewise-linear trajectory given by (time, height, slope) breakpoints."""

    def __init__(self, breakpoints, end_time: float):
        arr = np.asarray(breakpoints, dtype=float).reshape(-1, 3)
        self.t = arr[:, 0]
        self.h = arr[:, 1]
        self.v = arr[:, 2]
        self.end_time = end_time

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


class _ArrivalFeed:
    """Arrival stream and resident-change record shared by both engines.

    Holds one drawn but not yet applied arrival, checks that arrival times
    strictly increase, and numbers arrivals without an index from 1 up.
    """

    def _open_feed(self, events):
        self._events = iter(events)
        self._pending = None
        self._last_time = -math.inf
        self._auto_id = 1
        self._pull_event()

    # Bare (time, slope) pairs stay beside InputEvent because the renewal
    # sampler feeds one pair per arrival.  An InputEvent per arrival there
    # gave bit-identical cycles but ran about 10% slower (median 9.2 against
    # 8.4 ms per 500 pointmass(1) cycles at rate 1, ten alternating runs;
    # Python 3.11, numpy 2.4, 2-core Xeon).
    def _pull_event(self):
        """Draw the next arrival as (time, slope, increment, id) into ``_pending``.

        Times and increments become Python floats and indices Python ints,
        whatever number types the record holds, so the engines keep no numpy
        scalars.
        """
        try:
            ev = next(self._events)
        except StopIteration:
            self._pending = None
            return
        if isinstance(ev, InputEvent):
            t, inc, idx = float(ev.time), float(ev.increment), operator.index(ev.index)
            slope = inc if ev.contender else 0.0
        else:
            t, slope = ev
            t, slope, idx = float(t), float(slope), None
            inc = slope
        if t <= self._last_time:
            raise ConfigurationError(
                f"immigration times must be strictly increasing, got {t} after {self._last_time}"
            )
        self._last_time = t
        if idx is None:
            idx = self._auto_id
        elif idx < self._auto_id:
            raise ConfigurationError(f"immigration index {idx} reused or out of order")
        self._pending = (t, slope, inc, idx)

    @property
    def pending_immigration(self):
        """Next drawn but not yet applied arrival as (time, slope, increment, id).

        ``None`` once the event stream is exhausted.  Drivers that stop a run
        mid-stream (say at a regeneration) need this to hand the event to a
        successor state instead of losing it.
        """
        return self._pending

    def resident_fitness_path(self) -> StepPath:
        """Resident fitness as a right-continuous step function from time 0."""
        times = [0.0] + [rc[0] for rc in self.resident_changes]
        values = [self.f0] + [rc[2] for rc in self.resident_changes]
        return StepPath(times, values)


class PitState(_ArrivalFeed):
    """Mutable state of the trajectory system.

    Parameters
    ----------
    start:
        Iterable of :class:`StartEntry` (or ``(height, slope)`` pairs).
        Must contain exactly one ``(1, 0)`` entry, the initial resident.
        Defaults to that single entry.  The ``(1, 0)`` entry gets id 0;
        the others get ids -1, -2, ... in listed order.
    events:
        Iterable of immigrations (:class:`~clonepit.inputs.InputEvent` or
        ``(time, slope)``), strictly increasing in time.  May be a lazy
        generator; it is consumed as the clock advances.
    f0:
        Fitness of the initial resident.

    The state keeps per-type records with their parents and path
    breakpoints, the event log and the resident changes, and checks the exact
    bookkeeping identities at every resident change.  Runs that need only
    the resident changes use :class:`FitnessSkeleton` instead.
    """

    def __init__(self, start=None, events=(), f0: float = 0.0):
        self.f0 = float(f0)

        if start is None:
            start = (StartEntry(1.0, 0.0),)
        entries = [e if isinstance(e, StartEntry) else StartEntry(*e) for e in start]
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
        # _buf is scratch for the hit offsets and then the height step.
        cap = max(8, len(entries) + 4)
        for name in _SLOT_ROWS:
            setattr(self, name, np.zeros(cap))
        self._buf = np.zeros(cap)
        self._n = 0
        self._slot_ids: list[int] = []
        self._slot_of: dict[int, int] = {}

        self.clock = 0.0
        self.fitness = self.f0
        self.resident_id = 0
        self.vstar_sum = 0.0
        #: upper bound for the total fitness gain: positive start slopes plus
        #: contender increments (each type turns resident at most once, and
        #: contributes at most its initial slope when it does)
        self.fitness_gain_bound = 0.0
        self.log: list[PitEvent] = []
        #: compact (time, v_star, fitness_after, resident_id, solitary) tuples
        self.resident_changes: list[tuple] = []
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

        self._open_feed(events)

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

    # -- event application ---------------------------------------------------

    def _apply_extinction(self, tid):
        slot = self._slot_of[tid]
        self._h[slot] = 0.0
        traj = self.types[tid]
        traj.status = "extinct"
        traj.death = self.clock
        traj.segments.append((self.clock, 0.0, 0.0))
        self._drop_slot(slot)
        self.log.append(
            PitEvent(self.clock, "extinction", tid, 0.0, self.resident_id, self.fitness)
        )

    def apply_resident_change(self, hitter_ids) -> PitEvent:
        """Kink every positive-height trajectory and crown the new resident.

        ``hitter_ids`` are the trajectories that reached height 1 at the
        current clock (already pinned to height exactly 1).  The winner is
        the hitter with maximal pre-hit slope, ties broken by smaller id.
        """
        hitters = sorted(hitter_ids)
        slots = [self._slot_of[tid] for tid in hitters]
        pre = np.asarray([self._v[s] for s in slots])
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

        ev = PitEvent(
            self.clock, "resident_change", winner, v_star, winner, self.fitness, solitary
        )
        self.log.append(ev)
        return ev

    def _apply_immigration(self):
        t, slope, inc, tid = self._pending
        parent = self.resident_id
        self._add_type(tid, parent, t, 0.0, slope, inc, self.fitness + inc)
        if slope > 0.0:
            self._add_slot(tid, 0.0, slope)
            self.fitness_gain_bound += inc
        else:
            self.types[tid].status = "latent"
        self._auto_id = tid + 1
        self._pull_event()
        self.log.append(PitEvent(t, "immigration", tid, slope, parent, self.fitness))

    def _check_after_change(self, winner):
        tol = _check_tol(self.fitness)
        drift = abs(self.fitness - self.f0 - self.vstar_sum)
        if drift > tol:
            raise InvariantViolation(
                f"fitness != f0 + sum of v* at t={self.clock} (drift {drift:.3e})"
            )
        mism = abs(self.fitness - self.types[winner].fitness)
        if mism > tol:
            raise InvariantViolation(
                f"resident fitness {self.fitness} != type fitness "
                f"{self.types[winner].fitness} for {winner} at t={self.clock}"
            )
        n = self._n
        implied = self._c0[:n] - (self.fitness - self._fb[:n])
        err = float(np.max(np.abs(self._v[:n] - implied))) if n else 0.0
        if err > tol:
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
            abs(self.types[tid].fitness - self.fitness) > tol for tid in ids
        ):
            raise InvariantViolation(
                f"trajectories {ids} at (1, 0){when}; only the resident "
                f"{self.resident_id} and types tied with it may sit there"
            )

    def _advance_heights(self, dt):
        """Move every slot by ``v * dt`` and clamp to [0, 1]; overwrites the scratch row."""
        n = self._n
        if dt > 0.0 and n:
            h, step = self._h[:n], self._buf[:n]
            np.multiply(self._v[:n], dt, out=step)
            np.add(h, step, out=h)
            np.maximum(h, 0.0, out=h)
            np.minimum(h, 1.0, out=h)

    def advance(self, until: float = math.inf, *, stop_after_solitary: bool = False):
        """Process all events up to ``until``; the clock ends at ``until``.

        With ``stop_after_solitary`` the run returns right after the first
        solitary resident change instead (the clock then sits at that
        change).  Every applied event is appended to :attr:`log`.
        """
        until = _forward_until(until, self.clock)
        with np.errstate(divide="ignore"):
            while True:
                if self._n:
                    offs = self._hit_offsets()
                    slot_min = int(offs.argmin())
                    off_min = float(offs[slot_min])
                else:
                    off_min = math.inf
                t_hit = self.clock + off_min
                t_imm = self._pending[0] if self._pending is not None else math.inf
                t_next = min(t_hit, t_imm)
                if t_next > until or t_next == math.inf:
                    if until < math.inf:
                        self._advance_heights(until - self.clock)
                        self.clock = until
                    return

                if t_hit <= t_next + TIME_EPS:
                    # Group by offset, not by t_next - clock: at large clocks
                    # the absolute difference rounds below the true offset and
                    # can even collapse to zero, which would select nothing
                    # and stall.
                    sel = np.nonzero(offs <= off_min + TIME_EPS)[0]
                    dying = [self._slot_ids[s] for s in sel if self._v[s] < 0.0]
                    rising = [self._slot_ids[s] for s in sel if self._v[s] > 0.0]
                else:
                    dying, rising = [], []
                take_imm = t_imm <= t_next + TIME_EPS

                self._advance_heights(t_next - self.clock)
                self.clock = t_next

                for tid in dying:
                    self._apply_extinction(tid)
                saw_solitary = False
                if rising:
                    for tid in rising:
                        self._h[self._slot_of[tid]] = 1.0
                    saw_solitary = bool(self.apply_resident_change(rising).solitary)
                if take_imm:
                    self._apply_immigration()
                if stop_after_solitary and saw_solitary:
                    return

    # -- derived views -------------------------------------------------------

    def trajectory_path(self, tid: int) -> PiecewisePath:
        """Piecewise-linear height path of type ``tid``."""
        return PiecewisePath(self.types[tid].segments, self.clock)

    def check_invariants(self):
        """Run all closing checks; raises :class:`InvariantViolation` on failure."""
        n = self._n
        if n:
            h = self._h[:n]
            if h.min() < 0.0 or h.max() > 1.0:
                raise InvariantViolation("height outside [0, 1]")
        tol = _check_tol(self.fitness)
        self._check_top(tol)
        drift = abs(self.fitness - self.f0 - self.vstar_sum)
        if drift > tol:
            raise InvariantViolation(f"fitness != f0 + sum of v* (drift {drift:.3e})")
        bound = self.fitness_gain_bound
        if self.fitness - self.f0 > bound + tol:
            raise InvariantViolation(
                f"fitness gain {self.fitness - self.f0} exceeds increment bound {bound}"
            )
        for tid, traj in self.types.items():
            if traj.parent is not None:
                expect = self.types[traj.parent].fitness + traj.increment
                if abs(traj.fitness - expect) > _check_tol(expect):
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


class FitnessSkeleton(_ArrivalFeed):
    """Resident changes of the trajectory system started from one resident.

    Produces the ``resident_changes`` of a :class:`PitState` run on the same
    arrivals, with the same winners and solitary flags, but keeps only the
    trajectories that can still move the resident fitness.  Each slope is
    the type's fitness minus the resident fitness, and the resident fitness
    never falls, so:

    * a non-resident trajectory whose slope is <= 0 never rises again;
    * a trajectory at least as high and at least as fit as another reaches
      the top no later than it, and leaves it with slope <= 0 when it does;
    * so an arrival, which starts at height 0, is kept only if its fitness
      is strictly above that of every kept trajectory.

    The kept trajectories are all rising and are held in arrival order,
    which is also the order of increasing slope.  The event rules are those
    of :meth:`PitState.advance`, and heights move in the same steps, except
    that the extinctions the skeleton never sees are not steps here; times
    and fitness therefore agree with :class:`PitState` up to rounding.
    """

    def __init__(self, events=()):
        self.f0 = 0.0
        self.clock = 0.0
        self.fitness = self.f0
        #: compact (time, v_star, fitness_after, resident_id, solitary) tuples
        self.resident_changes: list[tuple] = []
        self._ids: list[int] = []
        self._h: list[float] = []
        self._v: list[float] = []
        self._open_feed(events)

    def advance(self, until: float = math.inf, *, stop_after_solitary: bool = False):
        """Process all events up to ``until``; the clock ends at ``until``.

        With ``stop_after_solitary`` the run returns right after the first
        solitary resident change instead (and after an arrival carrying the
        same timestamp), with the clock at that change.
        """
        until = _forward_until(until, self.clock)
        hs, vs = self._h, self._v
        while True:
            offs = [(1.0 - h) / v for h, v in zip(hs, vs)]
            off_min = min(offs, default=math.inf)
            t_hit = self.clock + off_min
            t_imm = self._pending[0] if self._pending is not None else math.inf
            t_next = min(t_hit, t_imm)
            if t_next > until or t_next == math.inf:
                if until < math.inf:
                    self._move(until - self.clock)
                    self.clock = until
                return
            hitters = None
            if t_hit <= t_next + TIME_EPS:
                # grouped by offset, as in PitState.advance
                cut = off_min + TIME_EPS
                hitters = [k for k, off in enumerate(offs) if off <= cut]
            take_imm = t_imm <= t_next + TIME_EPS

            self._move(t_next - self.clock)
            self.clock = t_next
            solitary = hitters is not None and self._resident_change(hitters)
            if take_imm:
                self._immigrate()
            if stop_after_solitary and solitary:
                return

    def _move(self, dt):
        if dt > 0.0:
            hs, vs = self._h, self._v
            for k, v in enumerate(vs):
                h = hs[k] + v * dt
                hs[k] = h if h < 1.0 else 1.0

    def _resident_change(self, hitters) -> bool:
        """Crown the steepest hitter (smaller id on ties), kink and prune the rest.

        ``hitters`` are positions in the kept lists.  Returns the solitary flag.
        """
        ids, hs, vs = self._ids, self._h, self._v
        win = min(hitters, key=lambda k: (-vs[k], ids[k]))
        v_star = vs[win]
        winner = ids[win]
        for k in hitters:
            hs[k] = 1.0
        self.fitness += v_star

        # Kink every kept trajectory above height 0; the hitters and any
        # other that stops rising drop out.  Scanning from the fittest, a
        # trajectory no higher than a fitter kept one drops out as well.
        solitary = True
        top = -1.0
        kept = []
        for k in range(len(ids) - 1, -1, -1):
            h, v = hs[k], vs[k]
            if h > 0.0:
                v -= v_star
                if v <= 0.0:
                    continue
                if v > SLOPE_EPS:
                    solitary = False
            if h > top:
                top = h
                kept.append((ids[k], h, v))
        kept.reverse()
        ids[:] = [e[0] for e in kept]
        hs[:] = [e[1] for e in kept]
        vs[:] = [e[2] for e in kept]

        self.resident_changes.append((self.clock, v_star, self.fitness, winner, solitary))
        return solitary

    def _immigrate(self):
        _, slope, _, tid = self._pending
        vs = self._v
        # slopes increase along the kept list, so the last one is the largest
        if slope > 0.0 and (not vs or slope > vs[-1]):
            self._ids.append(tid)
            self._h.append(0.0)
            vs.append(slope)
        self._auto_id = tid + 1
        self._pull_event()


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
    """Write an event log as CSV: time, kind, trajectory_id, v_star_or_slope, resident_id, fitness."""
    _write_csv(
        path,
        "time,kind,trajectory_id,v_star_or_slope,resident_id,fitness",
        (
            f"{_fmt(ev.time)},{ev.kind},{ev.trajectory_id},"
            f"{_fmt(ev.value)},{ev.resident_id},{_fmt(ev.fitness)}"
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
