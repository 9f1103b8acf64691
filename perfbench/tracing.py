"""Span tracing of clonepit's public functions, installed from outside the package.

`Tracer.install` replaces each function named in `TARGETS` by a wrapper in
every clonepit namespace that bound it (a module-level function imported by
name into three modules is wrapped in all three), and each method on its
class.  A wrapper records one span per call: name, start, end, parent span
and command id, in flat arrays kept in memory until `write_spans`.  A few
wrappers also read counts off the arguments and results at the layer
boundary.  A target that no longer exists is listed in `missing` and the
metrics that depend on it are left out, so the benchmark keeps running when a
later change deletes or renames a function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
import weakref
from array import array

# (layer, module, attribute path).  "write" spans are reported as cli.write_s.
TARGETS = (
    ("cli", "clonepit.cli", "main"),
    ("cli", "clonepit.cli", "run"),
    ("cli", "clonepit.cli", "parse_scenario"),
    ("write", "clonepit.pit", "write_event_csv"),
    ("write", "clonepit.pit", "write_trajectories_jsonl"),
    ("write", "clonepit.moran", "write_trace_csv"),
    ("write", "clonepit.analysis", "write_cycles_csv"),
    ("analysis", "clonepit.analysis", "sample_renewal_cycles"),
    ("analysis", "clonepit.analysis", "speed_estimate"),
    ("analysis", "clonepit.analysis", "detect_renewals"),
    ("pit", "clonepit.pit", "PitState.__init__"),
    ("pit", "clonepit.pit", "PitState.advance"),
    ("pit", "clonepit.pit", "PitState.check_invariants"),
    ("inputs", "clonepit.inputs", "sample_contender_stream"),
    ("inputs", "clonepit.inputs", "ContenderLaw.sample"),
    # expands to the `sample` of every subclass that defines one
    ("inputs", "clonepit.inputs", "IncrementDistribution.sample"),
    ("moran", "clonepit.moran", "moran_init"),
    ("moran", "clonepit.moran", "moran_run"),
    ("branching", "clonepit.branching", "gw_run"),
)

LAYERS = ("cli", "write", "analysis", "pit", "inputs", "moran", "branching")

# Calls counted once per outermost call of their group, so the vectorized
# draw inside sample_contender_stream is not counted a second time.
_GROUPS = {
    "sample_contender_stream": "values",
    "ContenderLaw.sample": "values",
    "IncrementDistribution.sample": "proposals",
}

# unit and direction of every per-layer metric; see README.md for what moves them
METRICS = {
    "inputs.calls": ("count", "lower"),
    "inputs.values": ("count", "higher"),
    "inputs.self_s": ("s", "lower"),
    "inputs.values_per_s": ("1/s", "higher"),
    "inputs.proposals": ("count", "lower"),
    "inputs.accept_ratio": ("ratio", "higher"),
    "pit.states": ("count", "lower"),
    "pit.advance_calls": ("count", "lower"),
    "pit.arrivals": ("count", "higher"),
    "pit.resident_changes": ("count", "higher"),
    "pit.self_s": ("s", "lower"),
    "pit.arrivals_per_s": ("1/s", "higher"),
    "pit.active_end": ("count", "lower"),
    "pit.check_s": ("s", "lower"),
    "analysis.cycles": ("count", "higher"),
    "analysis.cycles_per_s": ("1/s", "higher"),
    "analysis.self_s": ("s", "lower"),
    "analysis.estimate_s": ("s", "lower"),
    "moran.runs": ("count", "higher"),
    "moran.events": ("count", "higher"),
    "moran.trace_samples": ("count", "higher"),
    "moran.live_types_end": ("count", "lower"),
    "moran.self_s": ("s", "lower"),
    "moran.events_per_s": ("1/s", "higher"),
    "branching.runs": ("count", "higher"),
    "branching.escaped_frac": ("fraction", "higher"),
    "branching.level_sum": ("count", "higher"),
    "branching.self_s": ("s", "lower"),
    "branching.levels_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.files": ("count", "lower"),
    "cli.bytes": ("bytes", "lower"),
    "cli.write_MBps": ("MiB/s", "higher"),
    "trace.commands": ("count", "higher"),
    "trace.cmd_s": ("s", "lower"),
    "trace.untraced_cmd_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# targets each metric reads; a metric whose target is missing is not reported
_NEEDS = {
    "inputs": ("sample_contender_stream", "ContenderLaw.sample"),
    "inputs.proposals": ("IncrementDistribution.sample",),
    "inputs.accept_ratio": ("IncrementDistribution.sample",),
    "pit": ("PitState.__init__", "PitState.advance"),
    "pit.check_s": ("PitState.check_invariants",),
    "analysis.cycles": ("sample_renewal_cycles",),
    "analysis.cycles_per_s": ("sample_renewal_cycles",),
    "analysis.estimate_s": ("speed_estimate", "detect_renewals"),
    "moran": ("moran_run",),
    "branching": ("gw_run",),
    "cli.parse_s": ("parse_scenario",),
    "cli.write_s": ("write_event_csv", "write_trajectories_jsonl", "write_trace_csv",
                    "write_cycles_csv"),
    "cli.write_MBps": ("write_event_csv", "write_trajectories_jsonl", "write_trace_csv",
                       "write_cycles_csv"),
    "trace": ("main",),
    "cli": ("main",),
}


def self_times(names, starts, ends, parents):
    """Self time of every span: its duration minus the time its children cover.

    Spans come from one thread, so children lie inside their parent and do
    not overlap each other; a parent index of -1 marks a root span.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for s, e, p in zip(starts, ends, parents):
        if p >= 0:
            out[p] -= e - s
    return out


def _size(result) -> int:
    shape = getattr(result, "shape", None)
    if shape is not None:
        return int(result.size) if shape else 1
    return len(result) if isinstance(result, (list, tuple)) else 1


class _PitCount:
    __slots__ = ("pulled", "applied", "changes")

    def __init__(self):
        self.pulled = 0
        self.applied = 0
        self.changes = 0


class Tracer:
    """Records spans and boundary counts for the clonepit calls of a run."""

    def __init__(self):
        self.span_names: list[tuple[str, str]] = []  # (layer, target) per name id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.current_command = -1
        self.counts: dict[str, float] = dict.fromkeys(
            ("values_calls", "values", "proposals", "pit_states", "advance_calls",
             "arrivals", "resident_changes", "active_sum", "cycles", "moran_runs",
             "moran_events", "trace_samples", "live_end_sum",
             "gw_runs", "gw_escaped", "level_sum", "write_bytes"), 0)
        self.missing: list[str] = []
        self._stack = [-1]
        self._open = {"values": 0, "proposals": 0}
        self._pit: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "sample_contender_stream": self._count_values,
            "ContenderLaw.sample": self._count_values,
            "IncrementDistribution.sample": self._count_proposals,
            "PitState.advance": self._after_advance,
            "sample_renewal_cycles": self._after_renewal_cycles,
            "moran_run": self._after_moran_run,
            "gw_run": self._after_gw_run,
            "write_event_csv": self._after_write,
            "write_trajectories_jsonl": self._after_write,
            "write_trace_csv": self._after_write,
            "write_cycles_csv": self._after_write,
        }

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "clonepit"]
        for layer, modname, path in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, attr = path.rpartition(".")
            if not owner:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(path)
                    continue
                wrapper = self._wrap(fn, layer, path)
                for m in modules:
                    if getattr(m, attr, None) is fn:
                        self._set(m, attr, wrapper)
                continue
            cls = getattr(mod, owner, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(path)
                continue
            if path == "IncrementDistribution.sample":
                for sub in _subclasses(cls):
                    if "sample" in vars(sub):
                        self._set(sub, attr, self._wrap(vars(sub)[attr], layer, path,
                                                        label=f"{sub.__name__}.sample"))
                continue
            fn = vars(cls)[attr]
            if path == "PitState.__init__":
                fn = self._counting_init(fn)
            self._set(cls, attr, self._wrap(fn, layer, path))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _set(self, holder, attr, wrapper):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _counting_init(self, init):
        """PitState.__init__ that counts states and the arrivals pulled from their events."""
        registry = self._pit
        counts = self.counts

        def counted_init(state, *args, **kwargs):
            box = _PitCount()

            def counting(events):
                for ev in events:
                    box.pulled += 1
                    yield ev

            if len(args) >= 2:
                args = (args[0], counting(args[1])) + args[2:]
            else:
                kwargs["events"] = counting(kwargs.get("events", ()))
            init(state, *args, **kwargs)
            box.applied = box.pulled - (state.pending_immigration is not None)
            box.changes = len(state.resident_changes)
            registry[state] = box
            counts["pit_states"] += 1

        return counted_init

    def _wrap(self, fn, layer, target, label=None):
        after = self._hooks.get(target)
        group = _GROUPS.get(target)
        nid = len(self.span_names)
        self.span_names.append((layer, label or target))
        name, start, end, parent, command = (
            self.name, self.start, self.end, self.parent, self.command)
        stack = self._stack
        open_ = self._open
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            end.append(0.0)
            stack.append(idx)
            if group is not None:
                open_[group] += 1
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
                if group is not None:
                    open_[group] -= 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- boundary counts ------------------------------------------------------

    def _count_values(self, result, args, kwargs):
        if self._open["values"] == 0:
            self.counts["values_calls"] += 1
            self.counts["values"] += _size(result)

    def _count_proposals(self, result, args, kwargs):
        if self._open["proposals"] == 0:
            self.counts["proposals"] += _size(result)

    def _after_advance(self, result, args, kwargs):
        state = args[0]
        c = self.counts
        c["advance_calls"] += 1
        c["active_sum"] += len(state.active_ids)
        box = self._pit.get(state)
        if box is None:
            return
        applied = box.pulled - (state.pending_immigration is not None)
        c["arrivals"] += applied - box.applied
        box.applied = applied
        changes = len(state.resident_changes)
        c["resident_changes"] += changes - box.changes
        box.changes = changes

    def _after_renewal_cycles(self, result, args, kwargs):
        records = result[0] if isinstance(result, tuple) else result
        self.counts["cycles"] += len(records)

    def _after_moran_run(self, result, args, kwargs):
        c = self.counts
        c["moran_runs"] += 1
        c["moran_events"] += result.n_events
        c["live_end_sum"] += len(result.state.ids)
        if result.trace is not None:
            c["trace_samples"] += len(result.trace.times)

    def _after_gw_run(self, result, args, kwargs):
        c = self.counts
        c["gw_runs"] += 1
        c["gw_escaped"] += bool(result.escaped)
        c["level_sum"] += result.max_level

    def _after_write(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["write_bytes"] += os.path.getsize(path)

    # -- results --------------------------------------------------------------

    def span_rows(self):
        """(layer, target, start, end, parent, command, self) per recorded span."""
        selfs = self_times(self.name, self.start, self.end, self.parent)
        for i, nid in enumerate(self.name):
            layer, target = self.span_names[nid]
            yield (layer, target, self.start[i], self.end[i], self.parent[i],
                   self.command[i], selfs[i])

    def write_spans(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write("span,layer,target,start,end,parent,command,self_s\n")
            for i, (layer, target, s, e, p, c, own) in enumerate(self.span_rows()):
                fh.write(f"{i},{layer},{target},{s:.9f},{e:.9f},{p},{c},{own:.9f}\n")

    def metrics(self, files: int, nbytes: int, traced_s: float, untraced_s: float,
                commands: int) -> dict:
        """Per-layer metrics of the traced commands, minus those whose target is missing."""
        own = dict.fromkeys(LAYERS, 0.0)
        incl: dict[str, float] = {}
        for layer, target, s, e, _, _, self_s in self.span_rows():
            own[layer] += self_s
            incl[target] = incl.get(target, 0.0) + (e - s)
        c = self.counts

        def rate(num, den):
            return num / den if den > 0 else 0.0

        values = {
            "inputs.calls": c["values_calls"],
            "inputs.values": c["values"],
            "inputs.self_s": own["inputs"],
            "inputs.values_per_s": rate(c["values"], own["inputs"]),
            "inputs.proposals": c["proposals"],
            "inputs.accept_ratio": rate(c["values"], c["proposals"]),
            "pit.states": c["pit_states"],
            "pit.advance_calls": c["advance_calls"],
            "pit.arrivals": c["arrivals"],
            "pit.resident_changes": c["resident_changes"],
            "pit.self_s": own["pit"],
            "pit.arrivals_per_s": rate(c["arrivals"], own["pit"]),
            "pit.active_end": rate(c["active_sum"], c["advance_calls"]),
            "pit.check_s": incl.get("PitState.check_invariants", 0.0),
            "analysis.cycles": c["cycles"],
            "analysis.cycles_per_s": rate(c["cycles"], incl.get("sample_renewal_cycles", 0.0)),
            "analysis.self_s": own["analysis"],
            "analysis.estimate_s": incl.get("speed_estimate", 0.0)
            + incl.get("detect_renewals", 0.0),
            "moran.runs": c["moran_runs"],
            "moran.events": c["moran_events"],
            "moran.trace_samples": c["trace_samples"],
            "moran.live_types_end": rate(c["live_end_sum"], c["moran_runs"]),
            "moran.self_s": own["moran"],
            "moran.events_per_s": rate(c["moran_events"], own["moran"]),
            "branching.runs": c["gw_runs"],
            "branching.escaped_frac": rate(c["gw_escaped"], c["gw_runs"]),
            "branching.level_sum": c["level_sum"],
            "branching.self_s": own["branching"],
            "branching.levels_per_s": rate(c["level_sum"], own["branching"]),
            "cli.self_s": own["cli"],
            "cli.parse_s": incl.get("parse_scenario", 0.0),
            "cli.write_s": own["write"],
            "cli.files": files,
            "cli.bytes": nbytes,
            "cli.write_MBps": rate(c["write_bytes"], own["write"]) / 2**20,
            "trace.commands": commands,
            "trace.cmd_s": traced_s,
            "trace.untraced_cmd_s": untraced_s,
            "trace.self_sum_s": sum(own.values()),
            "trace.overhead_frac": rate(traced_s, untraced_s) - 1.0,
        }
        out = {}
        for key, val in values.items():
            needs = _NEEDS.get(key) or _NEEDS.get(key.split(".")[0], ())
            if any(n in self.missing for n in needs):
                continue
            out[key] = {"value": float(val), "unit": METRICS[key][0]}
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
