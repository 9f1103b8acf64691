"""Tests of the benchmark's own arithmetic, checks and tracing.

    python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import clonepit.cli as cli  # noqa: E402
from clonepit.pit import PitState  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import Runner, command_seeds, tail_percentile  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_command  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail_percentile(values) == (90.0, 90.0, 100)
    value, pct, n = tail_percentile(values[:40])  # 100 .. 61
    assert (value, n) == (90.0, 40) and pct == pytest.approx(75.0)


def test_tail_with_few_samples():
    assert tail_percentile([]) is None
    assert tail_percentile([1.0] * 10) is None
    value, pct, n = tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100.0 / 11.0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  second root [20, 21]
    names = [0, 1, 2, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    own = self_times(names, starts, ends, parents)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own) == (10.0 - 0.0) + (21.0 - 20.0)


def test_command_seeds_repeat_per_seed():
    first = command_seeds("pit-dense", 7)
    again = command_seeds("pit-dense", 7)
    other = command_seeds("pit-dense", 8)
    a = [next(first) for _ in range(5)]
    assert a == [next(again) for _ in range(5)]
    assert a != [next(other) for _ in range(5)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_scenarios_are_valid(name):
    wl = WORKLOADS[name]
    scn = cli.parse_scenario(wl.scenario(123), {"command": wl.command})
    assert scn.seed == 123 and scn.replicates == wl.replicates


def test_invalid_scenario_counts_as_failure(tmp_path):
    runner = Runner(cli, WORKLOADS["speed-pointmass"], str(tmp_path))
    try:
        res = runner.run(1, "command = speed\nlambda = 1\ngamma = bogus(1)\nhorizon = 10\n")
    finally:
        runner.close()
    assert res.error is not None and res.error.startswith("exit 2")
    assert res.part is None
    assert os.listdir(tmp_path) == []


def test_check_catches_a_truncated_artifact(tmp_path):
    wl = dataclasses.replace(WORKLOADS["gw-escape"], replicates=20)
    text = wl.scenario(5)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([wl.command, "--config", str(cfg), "--out", out]) == 0
    shash = cli.scenario_hash(cli.parse_scenario(text, {"command": wl.command}))
    _, total = check_command(wl, out, shash)
    assert total == 20
    with pytest.raises(CheckFailed, match="scenario_hash"):
        check_command(wl, out, "0" * 16)
    runs = os.path.join(out, "runs.csv")
    with open(runs) as fh:
        lines = fh.readlines()
    with open(runs, "w") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(CheckFailed, match="row count"):
        check_command(wl, out, shash)


def test_traced_command_self_times_cover_the_command(tmp_path):
    runner = Runner(cli, WORKLOADS["speed-pointmass"], str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_command = 0
        res = runner.run(3)
    finally:
        tracer.uninstall()
        runner.close()
    assert res.error is None
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    m = tracer.metrics(files=res.files, nbytes=res.nbytes, traced_s=res.seconds,
                       untraced_s=res.seconds, commands=1)
    assert tracer.missing == []
    assert m["analysis.cycles"]["value"] == 4 * 500
    assert m["pit.states"]["value"] == 4 * 500
    # one scalar draw per arrival; every pulled arrival but the last pending one is applied
    assert m["inputs.calls"]["value"] == m["inputs.values"]["value"]
    assert m["pit.arrivals"]["value"] == m["inputs.values"]["value"] - 4
    assert m["inputs.accept_ratio"]["value"] == pytest.approx(1 / 64)
    assert m["trace.self_sum_s"]["value"] == pytest.approx(res.seconds, rel=0.01)


def test_missing_target_drops_its_metrics(monkeypatch):
    monkeypatch.delattr(PitState, "check_invariants")
    tracer = Tracer()
    tracer.install()
    try:
        m = tracer.metrics(files=0, nbytes=0, traced_s=1.0, untraced_s=1.0, commands=0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["PitState.check_invariants"]
    assert "pit.check_s" not in m and "pit.states" in m
