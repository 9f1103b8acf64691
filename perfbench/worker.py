"""One workload in one process: a closed loop of clonepit CLI commands.

Started by run.py, one process per run, so that peak memory belongs to the
workload.  One client issues one command at a time through
`clonepit.cli.main`, checks its artifacts, deletes them and issues the next,
until the time budget is spent.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --results DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

from workloads import WORKLOADS, CheckFailed, check_aggregate, check_command

#: an untraced run always completes this many timed commands, so the tail rule has data
MIN_COMMANDS = 20
#: a traced run needs only a few commands for its per-layer counts
MIN_TRACED_COMMANDS = 5
#: seconds after the worker starts when it stops issuing commands, even
#: below the minimum, so a slow program still ends within the run limit
DEADLINE_S = 140.0
#: samples the tail percentile keeps beyond it
TAIL_BEYOND = 10


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)`` using nearest rank, or
    ``None`` when there are no more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def command_seeds(workload: str, seed: int):
    """Endless scenario seeds of a run; the same (workload, seed) repeats them."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(48)


@dataclass
class CommandResult:
    seed: int
    seconds: float
    error: str | None
    part: object
    files: int
    nbytes: int


class Runner:
    """Issues one workload's commands through the CLI entry point and checks them."""

    def __init__(self, cli, workload, work_dir: str):
        self.cli = cli
        self.workload = workload
        self.work = work_dir
        # bound now, so a tracer installed later never sees the benchmark's own calls
        self._parse = cli.parse_scenario
        self._hash = cli.scenario_hash
        self._sink = open(os.devnull, "w")
        self._count = 0

    def close(self):
        self._sink.close()

    def run(self, seed: int, text: str | None = None) -> CommandResult:
        wl = self.workload
        text = wl.scenario(seed) if text is None else text
        self._count += 1
        out = os.path.join(self.work, f"cmd{self._count:05d}")
        cfg = out + ".cfg"
        with open(cfg, "w") as fh:
            fh.write(text)
        try:
            shash = self._hash(self._parse(text, {"command": wl.command, "out": out}))
        except ValueError:
            shash = None
        err = io.StringIO()
        rc = error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main([wl.command, "--config", cfg, "--out", out])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a raising command is a failed command
                error = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        part = None
        if error is None and rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                part = check_command(wl, out, shash)
            except CheckFailed as exc:
                error = f"check: {exc}"
        files = nbytes = 0
        if os.path.isdir(out):
            for entry in os.scandir(out):
                files += 1
                nbytes += entry.stat().st_size
            shutil.rmtree(out)
        os.remove(cfg)
        return CommandResult(seed, seconds, error, part, files, nbytes)


def closed_loop(runner: Runner, seeds, budget_s: float, min_commands: int,
                deadline: float) -> list[CommandResult]:
    """Issue commands back to back until ``budget_s`` has passed and enough have run.

    Nothing new starts after the ``deadline`` (a ``perf_counter`` value).
    """
    done: list[CommandResult] = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now >= deadline or (now - start >= budget_s and len(done) >= min_commands):
            return done
        done.append(runner.run(next(seeds)))


def end_to_end(results: list[CommandResult]) -> tuple[dict, dict]:
    times = [r.seconds for r in results]
    tail = tail_percentile(times)
    if tail is None:
        raise SystemExit(f"error: only {len(times)} commands completed; the tail needs more")
    value, pct, n = tail
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "cmd_per_s": (len(times) / sum(times), "commands/s"),
        "cmd_p50_ms": (1e3 * statistics.median(times), "ms"),
        "cmd_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }, {"tail_percentile": pct, "tail_samples": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--results", required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import clonepit
    import clonepit.cli as cli

    if not os.path.abspath(clonepit.__file__).startswith(src + os.sep):
        print(f"error: clonepit imported from {clonepit.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    wl = WORKLOADS[args.workload]
    runner = Runner(cli, wl, args.work)
    seeds = command_seeds(wl.name, args.seed)
    warm = runner.run(next(seeds))  # untimed: lazy set-up and file caches
    results = [warm]
    pooled = [warm]  # distinct commands; traced reruns are checked but not pooled
    report: dict = {"versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    try:
        if args.trace:
            from tracing import Tracer

            untraced = closed_loop(runner, seeds, args.seconds / 2, MIN_TRACED_COMMANDS,
                                   started + DEADLINE_S / 2)
            tracer = Tracer()
            tracer.install()
            traced = []
            for i, r in enumerate(untraced):
                if time.perf_counter() >= started + DEADLINE_S:
                    break
                tracer.current_command = i
                traced.append(runner.run(r.seed))
            tracer.uninstall()
            results += untraced + traced
            pooled += untraced
            report["metrics"] = tracer.metrics(
                files=sum(r.files for r in traced),
                nbytes=sum(r.nbytes for r in traced),
                traced_s=sum(r.seconds for r in traced),
                untraced_s=sum(r.seconds for r in untraced[: len(traced)]),
                commands=len(traced),
            )
            report["missing"] = tracer.missing
            spans = os.path.join(args.results, f"spans-{wl.name}-seed{args.seed}.csv.gz")
            tracer.write_spans(spans)
            report["spans_file"] = os.path.relpath(spans)
        else:
            timed = closed_loop(runner, seeds, args.seconds, MIN_COMMANDS, started + DEADLINE_S)
            results += timed
            pooled += timed
            metrics, report["tail"] = end_to_end(timed)
            report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            report["command_ms"] = [round(1e3 * r.seconds, 3) for r in timed]
    finally:
        runner.close()

    failures = [f"seed {r.seed}: {r.error}" for r in results if r.error]
    report["attempted"] = len(results)
    report["failed"] = len(failures)
    report["errors"] = failures[:20]
    try:
        report["aggregate"] = check_aggregate(wl, [r.part for r in pooled if r.error is None])
    except CheckFailed as exc:
        report["aggregate_error"] = str(exc)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
