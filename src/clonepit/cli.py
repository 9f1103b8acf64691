"""Scenario-driven command line front end.

Every run is described by a scenario: a command plus a flat key = value
configuration.  Scenarios come from a config file (``--config``), from the
command line flags that override it, or both.  The file format is plain
text, one ``key = value`` pair per line, ``#`` starts a comment.  Repeatable
keys build lists in file order:

    command   = pit-replay
    seed      = 42
    f0        = 0.0
    start     = 0.1, 1.5        # height, slope (extra non-resident starts)
    event     = 1.2, 0.2, 1     # time, increment, contender flag (0 or 1)
    event     = 1.4, 1.0, 0

Scalar keys: ``lambda`` (arrival rate), ``gamma`` (increment distribution
descriptor, e.g. ``uniform(1,2)``), ``n`` (population size), ``horizon``
(end time, never negative; for ``speed`` the number of renewal cycles, for
``pit-replay`` and ``gw`` 0 means none), ``replicates``, ``seed``,
``grid_step``, ``out`` (output directory), ``f0``, ``counts`` and
``fitness`` (comma lists for the initial Moran population), ``birth``,
``death``, ``initial``, ``cap`` (branching), ``scale`` (fclt time scale).
``COMMANDS`` lists the keys each command takes beyond the common ones
(``seed`` and ``out``); a key the command does not read is refused when
the file or a flag gives it, whatever its value.

Artifacts land in ``out`` (default: ``$CLONEPIT_OUT`` or the working
directory): per-replicate CSV / JSON-lines files plus one ``summary.json``
echoing the scenario, its hash, the seed, a build tag and the wall time.
Every file starts with or embeds the scenario hash, so a mismatched rerun
can be detected from the artifacts alone.  Replicate r always draws from
the stream derived as ``replicate_rng(seed, r)``; reruns with the same
scenario and seed are byte-identical on the CSV side.

Exit status 0 means every requested analysis completed and all internal
invariant checks passed; configuration problems exit 2, engine or I/O
failures exit 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    MAX_CYCLES,
    RenewalCycles,
    coupled_run,
    detect_renewals,
    fclt_diagnostic,
    heuristic_speed,
    pointmass_speed,
    sample_renewal_cycles,
    speed_estimate,
    write_cycles_csv,
)
from .branching import GwParams, gw_run, gw_survival_formula
from .inputs import (
    ContenderLaw,
    InputEvent,
    PointMass,
    contender_params,
    parse_distribution,
    sample_contender_stream,
)
from .moran import MAX_GRID_SAMPLES, MAX_POPULATION, moran_init, moran_run, write_trace_csv
from .pit import (
    ConfigurationError,
    FitnessRows,
    InvariantViolation,
    PitState,
    StartEntry,
    _fmt,
    _write_csv,
    write_event_csv,
    write_trajectories_jsonl,
)
from .rng import replicate_rng

@dataclass(frozen=True)
class Scenario:
    """One fully specified run; (scenario, seed) determines every output bit."""

    command: str
    lam: float = 0.0
    gamma: str = ""
    n: int = 0
    horizon: float = 0.0
    replicates: int = 1
    seed: int = 0
    grid_step: float = 0.01
    out: str = ""
    f0: float = 0.0
    birth: float = 0.0
    death: float = 0.0
    initial: int = 1
    cap: int = 10_000_000
    scale: float = 100.0
    counts: tuple = ()
    fitness: tuple = ()
    starts: tuple = ()
    events: tuple = ()

    def gamma_dist(self):
        return parse_distribution(self.gamma)

    def canonical(self) -> str:
        """Stable text form; the scenario hash is taken of this.

        It lists every scalar key, also those the command does not read,
        which ``parse_scenario`` refuses; without their lines it parses back
        to the same scenario.  The output directory is deliberately left
        out: it moves the files around without changing a single computed
        byte, so it is not part of the scenario's identity.
        """
        lines = [f"command = {self.command}"]
        for key, (attr, _) in _SCALARS.items():
            if key == "out":
                continue
            val = getattr(self, attr)
            lines.append(f"{key} = {val!r}" if isinstance(val, str) else f"{key} = {val}")
        if self.counts:
            lines.append("counts = " + ", ".join(str(c) for c in self.counts))
        if self.fitness:
            lines.append("fitness = " + ", ".join(repr(m) for m in self.fitness))
        for h, s in self.starts:
            lines.append(f"start = {h!r}, {s!r}")
        for t, a, b in self.events:
            lines.append(f"event = {t!r}, {a!r}, {b}")
        return "\n".join(lines) + "\n"


def scenario_hash(scn: Scenario) -> str:
    return hashlib.sha256(scn.canonical().encode()).hexdigest()[:16]


# -- configuration parsing ---------------------------------------------------

_SCALARS = {
    "lambda": ("lam", float),
    "gamma": ("gamma", str),
    "n": ("n", int),
    "horizon": ("horizon", float),
    "replicates": ("replicates", int),
    "seed": ("seed", int),
    "grid_step": ("grid_step", float),
    "out": ("out", str),
    "f0": ("f0", float),
    "birth": ("birth", float),
    "death": ("death", float),
    "initial": ("initial", int),
    "cap": ("cap", int),
    "scale": ("scale", float),
}

# repeatable keys and the Scenario field each one fills
_LISTS = {"counts": "counts", "fitness": "fitness", "start": "starts", "event": "events"}

# keys every command accepts: what it is, its seed and where its files go
_COMMON = {"command", "seed", "out"}


def _unquote(text: str) -> str:
    t = text.strip()
    if len(t) >= 2 and t[0] == t[-1] and t[0] in "'\"":
        return t[1:-1]
    return t


def _cast(key: str, conv, raw: str):
    try:
        return conv(_unquote(raw)) if conv is str else conv(raw)
    except ValueError:
        raise ConfigurationError(f"bad value for '{key}': {raw.strip()!r}") from None


def _parse_pairs(text: str):
    for raw_line in text.splitlines():
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        yield key.strip(), raw.strip()


def parse_scenario(text: str, overrides: dict | None = None) -> Scenario:
    """Build a validated scenario from config text plus flag overrides."""
    overrides = overrides or {}
    values: dict = {}
    rows: dict = {key: [] for key in _LISTS}
    # the keys the text or a flag gives: a command refuses each one it does not read
    given = {key for key, (attr, _) in _SCALARS.items() if overrides.get(attr) is not None}
    for key, raw in _parse_pairs(text):
        given.add(key)
        if key in _SCALARS:
            attr, conv = _SCALARS[key]
            values[attr] = _cast(key, conv, raw)
        elif key == "command":
            values["command"] = _unquote(raw)
        elif key in _LISTS:
            rows[key].append(raw)
        else:
            raise ConfigurationError(f"unknown key '{key}'")
    for attr, val in overrides.items():
        if val is not None:
            values[attr] = val

    command = values.pop("command", "")
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}, expected one of {', '.join(COMMANDS)}")

    for key, conv in (("counts", int), ("fitness", float)):
        values[key] = tuple(_cast(key, conv, p) for r in rows[key] for p in r.split(","))
    starts = []
    for r in rows["start"]:
        parts = r.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"bad value for 'start': {r!r} (need height, slope)")
        starts.append(tuple(_cast("start", float, p) for p in parts))
    values["starts"] = tuple(starts)
    events = []
    for r in rows["event"]:
        parts = [p.strip() for p in r.split(",")]
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"bad value for 'event': {r!r} (need time, increment[, flag])"
            )
        flag = 1
        if len(parts) == 3:
            if parts[2] not in ("0", "1"):
                raise ConfigurationError(f"bad value for 'event': flag must be 0 or 1, got {parts[2]!r}")
            flag = int(parts[2])
        t, a = (_cast("event", float, p) for p in parts[:2])
        events.append((t, a, flag))
    values["events"] = tuple(events)

    scn = Scenario(command=command, **values)
    _validate(scn, given)
    return scn


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigurationError(f"constraint violated for '{key}': {message}")


def _require_built(key: str, build, *args, **kwargs):
    """Call the engine's own checks in ``build`` now, naming ``key`` in what they refuse."""
    try:
        build(*args, **kwargs)
    except ConfigurationError as exc:
        _require(False, key, str(exc))


def _grid_count(step: float) -> int:
    """``k`` when ``step`` is ``1/k`` for a positive integer ``k`` (within rounding), else 0."""
    k = round(1.0 / step)
    return k if k >= 1 and math.isclose(k * step, 1.0, rel_tol=1e-9) else 0


def _validate(scn: Scenario, given: set):
    # the values first: a malformed value is named whichever command it is given to
    floats = {key: [getattr(scn, attr)] for key, (attr, conv) in _SCALARS.items() if conv is float}
    floats["fitness"] = scn.fitness
    floats["start"] = [x for row in scn.starts for x in row]
    floats["event"] = [x for t, a, _ in scn.events for x in (t, a)]
    for key, values in floats.items():
        _require(all(map(math.isfinite, values)), key, "must be finite")
    _require(scn.replicates >= 1, "replicates", "must be at least 1")
    _require(scn.seed >= 0, "seed", "must be nonnegative")
    _require(scn.horizon >= 0, "horizon", "must be nonnegative")
    _require(scn.grid_step > 0, "grid_step", "must be positive")
    _require(all(t >= 0 for t, _, _ in scn.events), "event", "event times must be >= 0")
    _require(all(a > 0 for _, a, _ in scn.events), "event", "increments must be positive")
    if scn.gamma:
        try:
            parse_distribution(scn.gamma)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for 'gamma': {exc}") from None
    command = COMMANDS[scn.command]
    stray = given - _COMMON - set(command.keys)
    if stray:
        raise ConfigurationError(
            f"key '{sorted(stray)[0]}' does not apply to command {scn.command!r}"
        )
    command.check(scn)


def _check_rate(scn: Scenario):
    """The arrival rate and increment law of the commands that sample arrivals."""
    _require(scn.lam > 0, "lambda", "must be positive")
    _require(bool(scn.gamma), "gamma", "an increment distribution is required")


def _check_population(scn: Scenario):
    """The population size, horizon and trace grid of a Moran run."""
    _require(scn.n >= 2, "n", "population size must be at least 2")
    _require(scn.n <= MAX_POPULATION, "n",
             f"population size must be at most {MAX_POPULATION} (2**53)")
    _require(scn.horizon > 0, "horizon", "must be positive")
    # moran_run's trace grid has ceil(horizon / grid_step + 1/2) points
    _require(scn.horizon / scn.grid_step + 0.5 <= MAX_GRID_SAMPLES, "grid_step",
             f"gives more than {MAX_GRID_SAMPLES} trace samples up to the horizon")


# -- artifact plumbing --------------------------------------------------------


@functools.cache
def _build_tag() -> str:
    try:
        from importlib.metadata import version

        tag = "v" + version("clonepit")
    except Exception:
        tag = "v0"
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=2.0,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            tag += "+g" + proc.stdout.strip()
    except Exception:
        pass
    return tag


def _out_dir(scn: Scenario) -> str:
    out = scn.out or os.environ.get("CLONEPIT_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(scn: Scenario, shash: str, results: dict, started: float) -> str:
    path = os.path.join(_out_dir(scn), "summary.json")
    doc = {
        "command": scn.command,
        "scenario": scn.canonical(),
        "scenario_hash": shash,
        "seed": scn.seed,
        "build": _build_tag(),
        "wall_time_s": round(time.time() - started, 3),
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


def _replay_events(scn: Scenario, first: int):
    """The scenario's event rows as InputEvents indexed from ``first`` up."""
    return [
        InputEvent(first + i, t, a, bool(b)) for i, (t, a, b) in enumerate(scn.events)
    ]


# -- commands ------------------------------------------------------------------


def _check_pit_run(scn: Scenario):
    _check_rate(scn)
    _require(scn.horizon > 0, "horizon", "must be positive")


def _cmd_pit_run(scn: Scenario, shash: str, out: str) -> dict:
    law = contender_params(scn.lam, scn.gamma_dist())
    reps = []
    for r in range(scn.replicates):
        rng = replicate_rng(scn.seed, r)
        events = sample_contender_stream(law, scn.horizon, rng)
        st = PitState(events=events, f0=scn.f0)
        st.advance(until=scn.horizon)
        st.check_invariants()
        write_event_csv(st.log, os.path.join(out, f"events_r{r:03d}.csv"), shash)
        write_trajectories_jsonl(
            st, os.path.join(out, f"trajectories_r{r:03d}.jsonl"), shash
        )
        _, cycles = detect_renewals(st)
        rep = {
            "replicate": r,
            "final_fitness": st.fitness,
            "n_events": len(st.log),
            "n_resident_changes": len(st.resident_changes),
            "n_cycles": len(cycles),
        }
        if len(cycles) >= 2:
            est = speed_estimate(cycles)
            rep["v_hat"] = est.v_hat
            rep["stderr"] = est.stderr
        reps.append(rep)
    return {"contender_rate": law.rate, "replicates": reps}


def _replay_start(scn: Scenario):
    """The resident at (1, 0), then the scenario's start rows."""
    return [StartEntry(1.0, 0.0)] + [StartEntry(h, v) for h, v in scn.starts]


def _check_pit_replay(scn: Scenario):
    _require(bool(scn.events), "event", "a replay needs at least one event row")
    # the engine meets each event only as its clock reaches it
    _require(all(a[0] < b[0] for a, b in zip(scn.events, scn.events[1:])), "event",
             "event times must be strictly increasing")
    _require_built("start", lambda: PitState(start=_replay_start(scn)))


def _cmd_pit_replay(scn: Scenario, shash: str, out: str) -> dict:
    horizon = scn.horizon if scn.horizon > 0 else math.inf
    st = PitState(start=_replay_start(scn), events=_replay_events(scn, 1), f0=scn.f0)
    st.advance(until=horizon)
    st.check_invariants()
    write_event_csv(st.log, os.path.join(out, "events.csv"), shash)
    write_trajectories_jsonl(st, os.path.join(out, "trajectories.jsonl"), shash)
    return {
        "final_fitness": st.fitness,
        "clock": st.clock,
        "resident_changes": [
            {"time": t, "v_star": v, "fitness": f, "winner": w, "solitary": sol}
            for (t, v, f, w, sol) in st.resident_changes
        ],
    }


def _moran_start(scn: Scenario):
    """Counts and fitness of a ``moran-run``: one type of ``n`` at 0 by default."""
    counts = list(scn.counts) if scn.counts else [scn.n]
    fitness = list(scn.fitness) if scn.fitness else [0.0] * len(counts)
    return counts, fitness


def _moran_schedule(scn: Scenario, first: int, rng):
    """One replicate's mutation schedule, its ids from ``first`` (past the initial types) up.

    A free rate draws its marked Poisson stream on ``[0, horizon)`` from
    the replicate's generator, before the run; otherwise the event rows
    are the schedule.
    """
    if scn.lam > 0:
        stream = sample_contender_stream(
            ContenderLaw(scn.lam, scn.gamma_dist()), scn.horizon, rng)
        return [InputEvent(i, ev.time, ev.increment, True) for i, ev in enumerate(stream, first)]
    return _replay_events(scn, first)


def _check_moran_run(scn: Scenario):
    _check_population(scn)
    _require(scn.lam >= 0, "lambda", "must be nonnegative")
    if scn.lam > 0:
        _require(not scn.events, "event", "a schedule excludes a free mutation rate")
        _require(bool(scn.gamma), "gamma", "a free mutation rate needs a distribution")
    counts, fitness = _moran_start(scn)
    _require_built("counts", moran_init, scn.n, counts, fitness)
    _require_built("event", moran_init, scn.n, counts, fitness,
                   schedule=_replay_events(scn, len(counts)))


def _cmd_moran_run(scn: Scenario, shash: str, out: str) -> dict:
    counts, fitness = _moran_start(scn)
    reps = []
    for r in range(scn.replicates):
        rng = replicate_rng(scn.seed, r)
        state = moran_init(scn.n, counts, fitness,
                           schedule=_moran_schedule(scn, len(counts), rng))
        res = moran_run(state, scn.horizon, rng, grid_step=scn.grid_step)
        write_trace_csv(res, os.path.join(out, f"trace_r{r:03d}.csv"), shash)
        reps.append({
            "replicate": r,
            "n_events": res.n_events,
            "live_types": sorted(res.state.live_types()),
            "mean_fitness": float(res.trace.mean_fitness[-1]),
            "indicators": [[i.index, bool(i.flag)] for i in res.indicators],
        })
    return {"n": scn.n, "replicates": reps}


def _check_couple(scn: Scenario):
    _check_population(scn)
    _require(bool(scn.events), "event", "a coupling needs the shared mutation schedule")
    _require_built("event", moran_init, scn.n, [scn.n], [0.0], schedule=_replay_events(scn, 1))


def _cmd_couple(scn: Scenario, shash: str, out: str) -> dict:
    schedule = _replay_events(scn, 1)
    dists = []
    for r in range(scn.replicates):
        res = coupled_run(scn.n, schedule, scn.horizon, replicate_rng(scn.seed, r),
                          grid_step=scn.grid_step)
        dists.append(res.distance)
    _write_csv(os.path.join(out, "couple.csv"), "replicate,distance",
               (f"{r},{_fmt(d)}" for r, d in enumerate(dists)), shash)
    return {
        "n": scn.n,
        "distances": dists,
        "median_distance": float(np.median(dists)),
    }


def _finite_mean(dist) -> bool:
    """``dist.has_finite_mean()``, with a warning on stderr when it is false.

    The speed of adaptation is infinite exactly when the increment law has
    an infinite mean, so the finite ``v_hat`` of a run then estimates
    nothing; the run still completes and exits 0.
    """
    if dist.has_finite_mean():
        return True
    print(f"warning: increment law {dist.describe()} has an infinite mean; the speed "
          "of adaptation is infinite and v_hat has no finite limit", file=sys.stderr)
    return False


def _check_speed(scn: Scenario):
    _check_rate(scn)
    _require(scn.horizon >= 2 and scn.horizon == int(scn.horizon), "horizon",
             "must be an integer cycle count of at least 2")
    # the replicates share one lockstep, so the bound is on all their cycles
    _require(scn.replicates * scn.horizon <= MAX_CYCLES, "horizon",
             f"must be at most {MAX_CYCLES} cycles over all replicates (replicates x horizon)")


def _cmd_speed(scn: Scenario, shash: str, out: str) -> dict:
    dist = scn.gamma_dist()
    finite_mean = _finite_mean(dist)
    law = contender_params(scn.lam, dist)
    n = int(scn.horizon)
    # one lockstep for all replicates; each one's cycles are those of its own run
    pooled = sample_renewal_cycles(
        law, n, [replicate_rng(scn.seed, r) for r in range(scn.replicates)])
    reps = []
    for r in range(scn.replicates):
        cycles = RenewalCycles(pooled.lengths[r * n : (r + 1) * n],
                               pooled.rewards[r * n : (r + 1) * n])
        write_cycles_csv(cycles, os.path.join(out, f"cycles_r{r:03d}.csv"), shash)
        est = speed_estimate(cycles)
        reps.append({"replicate": r, "v_hat": est.v_hat, "stderr": est.stderr,
                     "sigma2_hat": est.sigma2_hat})
    est = speed_estimate(pooled)
    results = {
        "n_cycles": len(pooled),
        "v_hat": est.v_hat,
        "stderr": est.stderr,
        "sigma2_hat": est.sigma2_hat,
        "replicates": reps,
        "finite_mean": finite_mean,
    }
    if isinstance(dist, PointMass):
        results["closed_form"] = pointmass_speed(scn.lam, dist.c)
    return results


def _cmd_heuristics(scn: Scenario, shash: str, out: str) -> dict:
    dist = scn.gamma_dist()
    finite_mean = _finite_mean(dist)
    law = contender_params(scn.lam, dist)
    # all three are infinite with the increment mean, which JSON cannot
    # hold (and heuristic_speed refuses such a law)
    return {
        "contender_rate": law.rate,
        "mean_increment": law.law.mean() if finite_mean else None,
        "v_gl": heuristic_speed(law) if finite_mean else None,
        "v_rgl": heuristic_speed(law, refined=True) if finite_mean else None,
        "finite_mean": finite_mean,
    }


def _check_gw(scn: Scenario):
    _require(scn.birth >= 0 and scn.death >= 0, "birth", "rates must be nonnegative")
    _require(scn.birth + scn.death > 0, "birth", "birth and death cannot both be zero")
    _require(scn.initial >= 1, "initial", "must be a positive integer")
    _require(scn.cap > scn.initial, "cap", "must exceed the initial size")


def _cmd_gw(scn: Scenario, shash: str, out: str) -> dict:
    params = GwParams(scn.birth, scn.death, scn.initial)
    horizon = scn.horizon if scn.horizon > 0 else math.inf
    rows = []
    n_extinct = n_escaped = 0
    for r in range(scn.replicates):
        run = gw_run(params, replicate_rng(scn.seed, r), horizon=horizon, cap=scn.cap)
        n_extinct += run.extinct
        n_escaped += run.escaped
        ext_t = "" if run.extinction_time is None else _fmt(run.extinction_time)
        rows.append(
            f"{r},{int(run.extinct)},{int(run.escaped)},{ext_t},"
            f"{run.final_value},{run.max_level}"
        )
    _write_csv(os.path.join(out, "runs.csv"),
               "replicate,extinct,escaped,extinction_time,final_value,max_level", rows, shash)
    results = {
        "replicates": scn.replicates,
        "n_extinct": n_extinct,
        "n_escaped": n_escaped,
        "survival_freq": 1.0 - n_extinct / scn.replicates,
    }
    if params.birth > params.death:
        results["survival_formula"] = gw_survival_formula(
            params.birth, params.death, params.initial
        )
    return results


def _check_fclt(scn: Scenario):
    _check_rate(scn)
    _require(scn.scale > 0, "scale", "must be positive")
    _require(scn.replicates >= 2, "replicates", "an ensemble needs at least 2 paths")
    _require(1.0 / scn.grid_step <= MAX_GRID_SAMPLES, "grid_step",
             f"gives more than {MAX_GRID_SAMPLES} grid points")
    _require(_grid_count(scn.grid_step) >= 1, "grid_step",
             "must be 1/k for a positive integer k (the grid is k/k, 2/k, ..., 1)")


def _cmd_fclt(scn: Scenario, shash: str, out: str) -> dict:
    dist = scn.gamma_dist()
    finite_mean = _finite_mean(dist)
    law = contender_params(scn.lam, dist)
    calib = sample_renewal_cycles(law, 20_000, replicate_rng(scn.seed, scn.replicates))
    est = speed_estimate(calib)
    v_bar = pointmass_speed(scn.lam, dist.c) if isinstance(dist, PointMass) else est.v_hat
    sigma2 = est.sigma2_hat

    rows = FitnessRows([sample_contender_stream(law, scn.scale, replicate_rng(scn.seed, r))
                        for r in range(scn.replicates)])
    rows.advance(until=scn.scale)
    paths = [rows.resident_fitness_path(r) for r in range(scn.replicates)]
    k = _grid_count(scn.grid_step)
    grid = np.arange(1, k + 1) / k
    diag = fclt_diagnostic(paths, scn.scale, grid, v_bar, sigma2)
    _write_csv(os.path.join(out, "fclt.csv"), "t,variance",
               (f"{_fmt(t)},{_fmt(var)}" for t, var in zip(diag.times, diag.variance)), shash)
    return {
        "v_bar": v_bar,
        "sigma2": sigma2,
        "scale": scn.scale,
        "low_scale": diag.low_scale,
        "variance_at_1": float(diag.variance[-1]),
        "finite_mean": finite_mean,
    }


@dataclass(frozen=True)
class _Command:
    """What one command takes beyond ``_COMMON``, how it is checked and run."""

    keys: tuple[str, ...]
    check: Callable[[Scenario], None]
    run: Callable[[Scenario, str, str], dict]


# the one list of commands, in the order the usage and errors name them
COMMANDS = {
    "pit-run": _Command(("replicates", "horizon", "lambda", "gamma", "f0"),
                        _check_pit_run, _cmd_pit_run),
    "pit-replay": _Command(("horizon", "f0", "start", "event"),
                           _check_pit_replay, _cmd_pit_replay),
    "moran-run": _Command(("replicates", "horizon", "grid_step", "n", "lambda", "gamma",
                           "counts", "fitness", "event"), _check_moran_run, _cmd_moran_run),
    "couple": _Command(("replicates", "horizon", "grid_step", "n", "event"),
                       _check_couple, _cmd_couple),
    "speed": _Command(("replicates", "horizon", "lambda", "gamma"), _check_speed, _cmd_speed),
    "heuristics": _Command(("lambda", "gamma"), _check_rate, _cmd_heuristics),
    "gw": _Command(("replicates", "horizon", "birth", "death", "initial", "cap"),
                   _check_gw, _cmd_gw),
    "fclt": _Command(("replicates", "grid_step", "lambda", "gamma", "scale"),
                     _check_fclt, _cmd_fclt),
}


def run(scn: Scenario) -> str:
    """Execute a validated scenario; returns the summary path."""
    started = time.time()
    shash = scenario_hash(scn)
    out = _out_dir(scn)
    results = COMMANDS[scn.command].run(scn, shash, out)
    return _write_summary(scn, shash, results, started)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built at the first ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="clonepit",
        description="Clonal interference simulations: trajectory system, "
        "Moran prelimit, renewal speed estimates.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="scenario file (key = value lines)")
    parser.add_argument("--seed", type=int, help="top-level seed (default: 0)")
    parser.add_argument("--replicates", type=int, help="replicate count (default: 1)")
    parser.add_argument("--horizon", type=float,
                        help="end time; cycle count for the speed command")
    parser.add_argument("--out", help="output directory (default: $CLONEPIT_OUT or .)")
    parser.add_argument("--grid-step", type=float, dest="grid_step",
                        help="sampling step for traces and grids (default: 0.01)")
    return parser


def main(argv=None) -> int:
    overrides = vars(_parser().parse_args(argv))
    config = overrides.pop("config")
    text = ""
    if config:
        try:
            with open(config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    try:
        summary = run(parse_scenario(text, overrides))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, OSError) as exc:
        print(f"error [{overrides['command']}]: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
