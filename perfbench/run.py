"""clonepit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; clonepit is imported from its
`src/` directory and nowhere else.  With `--trace 0` the run measures the
end-to-end metrics:

- `setup_s`: median wall time of fresh processes that import clonepit and
  parse and validate the workload's first scenario;
- `cmd_per_s`, `cmd_p50_ms`, `cmd_tail_ms`, `peak_rss_mb`: from a child
  process that issues the workload's commands in a closed loop for S seconds.

With `--trace 1` the child runs the loop for S/2 seconds untraced, then
reruns the same commands with span tracing on and reports the per-layer
metrics and the tracing overhead.  Every command's artifacts are checked; the
run exits 1 when a command or the workload aggregate fails its check.  A run
record with machine details goes to `perfbench/results/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from worker import command_seeds
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: fresh processes timed for setup_s
SETUP_PROBES = 5
#: every run, including the child's timeout, ends within this
RUN_LIMIT_S = 170.0

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import clonepit.cli as c; "
    "c.parse_scenario(open(sys.argv[2]).read(), {'command': sys.argv[3]})"
)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    return env


def setup_times(workload, seed: int, work: str, env: dict) -> list[float]:
    """Wall times of fresh processes that import clonepit and parse the first scenario."""
    cfg = os.path.join(work, "setup.cfg")
    with open(cfg, "w") as fh:
        fh.write(workload.scenario(next(command_seeds(workload.name, seed))))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _PROBE, SRC, cfg, workload.command],
                                env=env, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls in steps
        # of up to 50 ms, which would quantize the measured time
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        rc = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return times


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "clonepit", "__init__.py")):
        print(f"error: no clonepit sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = child_env()
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(HERE, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup = [] if args.trace else setup_times(wl, args.seed, work, env)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", wl.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", work, "--results", RESULTS],
            env=env, stdout=subprocess.PIPE, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the {wl.name} run did not finish within {RUN_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed with exit {exc.returncode}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 3
    report = json.loads(lines[-1])

    metrics = report.pop("metrics")
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    correct = report["failed"] == 0 and "aggregate" in report
    record = {
        "workload": wl.name,
        "why": wl.why,
        "mirrors": wl.mirrors,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_record(), **report.pop("versions")},
        "setup_s_samples": setup,
        "error_rate": report["failed"] / report["attempted"],
        "correct": correct,
        "metrics": metrics,
        **report,
    }
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {wl.name} seed {args.seed}: {report['attempted']} commands, "
          f"{report['failed']} failed (error_rate {record['error_rate']:.4g})")
    if "tail" in report:
        print(f"cmd_tail_ms is p{report['tail']['tail_percentile']:.1f} "
              f"of {report['tail']['tail_samples']} commands")
    for err in report["errors"]:
        print(f"  failed {err}")
    print("aggregate: " + json.dumps(report.get("aggregate") or report.get("aggregate_error")))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
