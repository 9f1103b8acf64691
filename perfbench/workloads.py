"""Workload definitions: scenario generation and output checks.

Each workload is one `clonepit` command on a fixed scenario shape.  The
workload seed only picks the scenario seeds, so every run of a workload does
the same kind of work on fresh random draws.  This module imports
`clonepit` only inside a check, so the parent process can generate scenarios
without paying the package import.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

#: acceptance band for aggregate checks, in standard errors
BAND_SE = 5.0

SPEED_CYCLES = 500
MORAN_N = 10_000
GW_CAP = 100_000


class CheckFailed(Exception):
    """An artifact or an aggregate disagrees with what the scenario implies."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    body: str
    replicates: int
    why: str
    mirrors: str

    def scenario(self, seed: int) -> str:
        return (
            f"command = {self.command}\n{self.body}"
            f"replicates = {self.replicates}\nseed = {seed}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "speed-pointmass", "speed",
            f"lambda = 1\ngamma = pointmass(1)\nhorizon = {SPEED_CYCLES}\n", 4,
            "renewal sampler: a fresh small PitState per cycle and one scalar "
            "ContenderLaw.sample per arrival",
            "criteria 03/04",
        ),
        Workload(
            "pit-dense", "pit-run",
            "lambda = 1000\ngamma = uniform(1,2)\nhorizon = 1\n", 8,
            "full-record engine with hundreds of active trajectories, one "
            "vectorized stream draw and MB-scale artifacts",
            "criteria 10 and 12",
        ),
        Workload(
            "moran-fixation", "moran-run",
            f"n = {MORAN_N}\ncounts = {MORAN_N - 1}, 1\nfitness = 0, 1\nhorizon = 40\n", 4,
            "per-event Moran loop with exactly two live types plus the trace CSV",
            "criterion 07a",
        ),
        Workload(
            "gw-escape", "gw",
            f"birth = 2\ndeath = 1\ninitial = 1\ncap = {GW_CAP}\n", 50,
            "numpy block walk of gw_run; about half the runs climb to the cap",
            "criterion 06",
        ),
    )
}


# -- artifact reading ----------------------------------------------------------


def _csv_rows(path: str, shash: str, header: str) -> list[list[str]]:
    """Data rows of a clonepit CSV after checking its hash line and header."""
    if not os.path.isfile(path):
        raise CheckFailed(f"missing artifact {os.path.basename(path)}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[0] != f"# scenario={shash}" or lines[1] != header:
        raise CheckFailed(f"{os.path.basename(path)}: bad hash line or header")
    return [line.split(",") for line in lines[2:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- per-command checks ---------------------------------------------------------
#
# Each check reads the artifacts of one finished command, raises CheckFailed
# on any inconsistency and returns the command's contribution to the
# workload aggregate.


def _check_speed(out, summary, shash, reps):
    res = summary["results"]
    horizon = SPEED_CYCLES
    _require(res["n_cycles"] == reps * horizon, "n_cycles != replicates * horizon")
    _require(_close(res["closed_form"], 1.0 / 3.0), "closed form is not 1/3")
    acc = [0, 0.0, 0.0, 0.0, 0.0, 0.0]  # n, L, R, L^2, R^2, LR
    for r in range(reps):
        rows = _csv_rows(os.path.join(out, f"cycles_r{r:03d}.csv"), shash, "length,reward")
        _require(len(rows) == horizon, f"cycles_r{r:03d}.csv has {len(rows)} rows")
        for length, reward in rows:
            ln, rw = float(length), float(reward)
            _require(ln > 0.0 and rw >= 0.0, "cycle with non-positive length")
            acc[0] += 1
            acc[1] += ln
            acc[2] += rw
            acc[3] += ln * ln
            acc[4] += rw * rw
            acc[5] += ln * rw
    return acc


def _final_speed(parts):
    n, sl, sr, sll, srr, slr = (sum(col) for col in zip(*parts))
    v = sr / sl
    sigma2 = (srr - 2.0 * v * slr + v * v * sll) / n / (sl / n)
    se = math.sqrt(sigma2 / sl)
    _require(abs(v - 1.0 / 3.0) <= BAND_SE * se,
             f"pooled v_hat {v:.5f} is not 1/3 within {BAND_SE} s.e. ({se:.5f})")
    return {"v_hat": v, "stderr": se, "cycles": n}


def _check_pit(out, summary, shash, reps):
    res = summary["results"]["replicates"]
    _require(len(res) == reps, "wrong replicate count in summary")
    from clonepit.analysis import high_mutation_limit

    limit = high_mutation_limit(2.0, 1.0)  # gamma = uniform(1, 2), horizon = 1
    worst = 0.0
    for r, rep in enumerate(res):
        rows = _csv_rows(os.path.join(out, f"events_r{r:03d}.csv"), shash,
                         "time,kind,trajectory_id,v_star_or_slope,resident_id,fitness")
        _require(len(rows) == rep["n_events"], f"events_r{r:03d}.csv row count")
        kinds = [row[1] for row in rows]
        _require(kinds.count("resident_change") == rep["n_resident_changes"],
                 "resident change count")
        _require(float(rows[-1][5]) == rep["final_fitness"], "final fitness != last event")
        with open(os.path.join(out, f"trajectories_r{r:03d}.jsonl")) as fh:
            lines = fh.read().splitlines()
        _require(json.loads(lines[0]) == {"scenario": shash}, "jsonl hash line")
        _require(len(lines) - 2 == kinds.count("immigration"), "trajectory count")
        _require(rep["final_fitness"] <= limit + 1e-9,
                 f"final fitness {rep['final_fitness']} above the high-rate bound {limit}")
        worst = max(worst, rep["final_fitness"])
    return worst


def _final_pit(parts):
    return {"max_final_fitness": max(parts)}


def _check_moran_fix(out, summary, shash, reps):
    res = summary["results"]["replicates"]
    _require(len(res) == reps, "wrong replicate count in summary")
    fixed = 0
    for r, rep in enumerate(res):
        rows = _csv_rows(os.path.join(out, f"trace_r{r:03d}.csv"), shash,
                         "time,type_id,count,H,mean_fitness")
        last = rows[-1][0]
        final = {row[1]: int(row[2]) for row in rows if row[0] == last}
        _require(sum(final.values()) == MORAN_N, "final counts do not sum to n")
        live = sorted(int(t) for t in final)
        _require(live == rep["live_types"], "trace and summary disagree on live types")
        _require(rep["n_events"] > 0, "no events")
        fixed += live == [1]
    return [fixed, reps]


def _final_moran_fix(parts):
    fixed = sum(p[0] for p in parts)
    total = sum(p[1] for p in parts)
    freq = fixed / total
    se = math.sqrt(0.25 / total)
    _require(abs(freq - 0.5) <= BAND_SE * se,
             f"fixation fraction {freq:.4f} is not 1/2 within {BAND_SE} s.e. ({se:.4f})")
    return {"fixation_fraction": freq, "replicates": total}


def _check_gw(out, summary, shash, reps):
    res = summary["results"]
    rows = _csv_rows(os.path.join(out, "runs.csv"), shash,
                     "replicate,extinct,escaped,extinction_time,final_value,max_level")
    _require(len(rows) == reps == res["replicates"], "runs.csv row count")
    extinct = sum(int(r[1]) for r in rows)
    escaped = sum(int(r[2]) for r in rows)
    _require(extinct == res["n_extinct"] and escaped == res["n_escaped"], "run counts")
    _require(extinct + escaped == reps, "a run neither died nor escaped")
    _require(all(int(r[5]) >= GW_CAP for r in rows if r[2] == "1"), "escape below cap")
    _require(_close(res["survival_formula"], 0.5), "survival formula is not 1/2")
    return [reps - extinct, reps]


def _final_gw(parts):
    surv = sum(p[0] for p in parts)
    total = sum(p[1] for p in parts)
    freq = surv / total
    se = math.sqrt(0.25 / total)
    _require(abs(freq - 0.5) <= BAND_SE * se,
             f"survival frequency {freq:.4f} is not 1/2 within {BAND_SE} s.e. ({se:.4f})")
    return {"survival_freq": freq, "replicates": total}


CHECKS = {
    "speed-pointmass": (_check_speed, _final_speed),
    "pit-dense": (_check_pit, _final_pit),
    "moran-fixation": (_check_moran_fix, _final_moran_fix),
    "gw-escape": (_check_gw, _final_gw),
}


def check_command(workload: Workload, out: str, shash: str):
    """Check one command's output directory; returns its aggregate part."""
    path = os.path.join(out, "summary.json")
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"summary.json unreadable: {exc}") from None
    _require(summary.get("scenario_hash") == shash, "scenario_hash mismatch")
    _require(summary.get("command") == workload.command, "command mismatch")
    return CHECKS[workload.name][0](out, summary, shash, workload.replicates)


def check_aggregate(workload: Workload, parts: list) -> dict:
    """Check the pooled result of every command of a run against its reference."""
    _require(bool(parts), "no command passed its checks")
    return CHECKS[workload.name][1](parts)
