import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import clonepit
from clonepit import MAX_CYCLES, MAX_GRID_SAMPLES, PointMass, contender_params, heuristic_speed
from clonepit.cli import (
    _COMMON,
    _LISTS,
    _SCALARS,
    COMMANDS,
    Scenario,
    main,
    parse_scenario,
    scenario_hash,
)
from clonepit.pit import ConfigurationError

REPLAY_CFG = """\
command = pit-replay
seed = 1
event = 1.2, 0.2, 1
event = 1.4, 1.0, 0
event = 1.6, 1.0, 1
event = 2.5, 2.0, 1
event = 2.9, 1.0, 0
event = 3.2, 1.6, 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_import_does_not_load_scipy():
    # scipy is slow to load and only the quadratures need it
    src = os.path.dirname(os.path.dirname(clonepit.__file__))
    code = "import sys, clonepit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestParsing:
    def test_minimal_speed_scenario(self):
        scn = parse_scenario(
            "command = speed\nlambda = 1\ngamma = pointmass(1)\n"
            "horizon = 100\nseed = 3\n",
            {},
        )
        assert scn.command == "speed"
        assert scn.lam == 1.0
        assert scn.gamma_dist() == PointMass(1.0)
        assert scn.horizon == 100.0

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigurationError, match="unknown key 'bogus'"):
            parse_scenario("command = speed\nbogus = 3\n", {})

    def test_missing_rate_is_named(self):
        with pytest.raises(ConfigurationError, match="'lambda'"):
            parse_scenario("command = speed\nhorizon = 100\nseed = 1\n", {})

    def test_key_outside_command_rejected(self):
        with pytest.raises(ConfigurationError, match="birth"):
            parse_scenario(
                "command = speed\nlambda = 1\ngamma = pointmass(1)\n"
                "horizon = 100\nbirth = 2\n",
                {},
            )

    @pytest.mark.parametrize("command, text, defaults, overrides", [
        ("fclt", "lambda = 1\ngamma = pointmass(1)\nreplicates = 2\n",
         "grid_step = 0.01\nscale = 100\n", {}),
        ("speed", "lambda = 1\ngamma = pointmass(1)\nhorizon = 10\n", "", {"replicates": 1}),
        ("pit-replay", "event = 0.5, 1\n", "horizon = 0\nf0 = 0\n", {"grid_step": None}),
    ], ids=["fclt", "speed", "pit-replay"])
    def test_read_key_at_its_default_is_accepted(self, command, text, defaults, overrides):
        # keys are refused by presence only when the command does not read
        # them; a read key given at its default leaves the scenario as it was
        bare = parse_scenario(f"command = {command}\n{text}", {})
        scn = parse_scenario(f"command = {command}\n{text}{defaults}", overrides)
        assert scn == bare and scenario_hash(scn) == scenario_hash(bare)

    def test_event_flag_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            parse_scenario(
                "command = pit-replay\nevent = 1.0, 1.0, 2\n", {}
            )

    def test_overrides_win(self):
        scn = parse_scenario(
            "command = speed\nlambda = 1\ngamma = pointmass(1)\n"
            "horizon = 100\nseed = 3\n",
            {"seed": 9, "horizon": 200.0},
        )
        assert scn.seed == 9
        assert scn.horizon == 200.0

    def test_comments_and_blank_lines_ignored(self):
        scn = parse_scenario(
            "# a comment\n\ncommand = gw\nbirth = 2\ndeath = 1\n"
            "horizon = 10\nreplicates = 5\nseed = 1\n",
            {},
        )
        assert scn.command == "gw"


class TestCanonicalForm:
    def _speed(self, **kw):
        base = dict(command="speed", lam=1.0, gamma="pointmass(1)",
                    horizon=100.0, seed=3)
        base.update(kw)
        return Scenario(**base)

    @staticmethod
    def _read_lines(scn):
        """The canonical text without the lines of keys the command does not read."""
        read = _COMMON | set(COMMANDS[scn.command].keys)
        lines = scn.canonical().splitlines(keepends=True)
        return "".join(line for line in lines if line.partition(" = ")[0] in read)

    def test_round_trip(self):
        scn = self._speed()
        again = parse_scenario(self._read_lines(scn), {})
        assert again == scn
        # the full text names keys speed does not read
        with pytest.raises(ConfigurationError, match="does not apply to command 'speed'"):
            parse_scenario(scn.canonical(), {})

    def test_round_trip_with_events(self):
        scn = parse_scenario(REPLAY_CFG, {})
        assert parse_scenario(self._read_lines(scn), {}) == scn

    def test_output_directory_does_not_change_identity(self):
        a = self._speed(out="")
        b = self._speed(out="/somewhere/else")
        assert scenario_hash(a) == scenario_hash(b)

    def test_seed_changes_identity(self):
        assert scenario_hash(self._speed(seed=3)) != scenario_hash(self._speed(seed=4))

    def test_replay_hash_is_stable(self):
        # frozen: guards the canonical serialization format itself
        scn = parse_scenario(REPLAY_CFG, {})
        assert scenario_hash(scn) == "95e8b3973d6a08e9"


class TestCommands:
    def test_pit_replay_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REPLAY_CFG)
        assert main(["pit-replay", "--config", cfg, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("summary.json")
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["command"] == "pit-replay"
        assert s["scenario_hash"] == "95e8b3973d6a08e9"
        changes = s["results"]["resident_changes"]
        assert [round(c["time"], 9) for c in changes] == [2.6, 3.4, 4.533333333]
        assert [c["winner"] for c in changes] == [3, 4, 6]
        assert [c["solitary"] for c in changes] == [False, False, True]
        assert s["results"]["final_fitness"] == pytest.approx(2.6)
        assert (tmp_path / "events.csv").exists()
        assert (tmp_path / "trajectories.jsonl").exists()

    def test_speed_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = speed\nlambda = 1\ngamma = pointmass(1)\n"
            "horizon = 60\nreplicates = 2\nseed = 11\n",
        )
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(["speed", "--config", cfg, "--out", str(d)]) == 0
            outs.append((d / "cycles_r000.csv").read_bytes())
            s = json.loads((d / "summary.json").read_text())
            assert s["results"]["v_hat"] > 0
        assert outs[0] == outs[1]

    def test_speed_reports_closed_form_for_pointmass(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = speed\nlambda = 2\ngamma = pointmass(2)\n"
            "horizon = 80\nreplicates = 2\nseed = 4\n",
        )
        assert main(["speed", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["results"]["closed_form"] == pytest.approx(1.6)

    def test_heuristics_values(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = heuristics\nlambda = 1\ngamma = pointmass(1)\nseed = 1\n",
        )
        assert main(["heuristics", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        law = contender_params(1.0, PointMass(1.0))
        assert s["results"]["v_gl"] == pytest.approx(heuristic_speed(law))
        assert s["results"]["v_rgl"] == pytest.approx(heuristic_speed(law, refined=True))
        assert s["results"]["contender_rate"] == pytest.approx(0.5)
        assert s["results"]["finite_mean"] is True

    def test_gw_runs_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = gw\nbirth = 2\ndeath = 1\nreplicates = 50\n"
            "cap = 200\nseed = 2\n",
        )
        assert main(["gw", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["results"]["survival_formula"] == pytest.approx(0.5)
        assert 0.0 <= s["results"]["survival_freq"] <= 1.0
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 50

    def test_moran_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = moran-run\nn = 200\ncounts = 150, 50\n"
            "fitness = 0, 1\nhorizon = 1\nseed = 5\n",
        )
        assert main(["moran-run", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert (tmp_path / "trace_r000.csv").exists()
        rep = s["results"]["replicates"][0]
        assert rep["mean_fitness"] >= 0.0
        assert rep["n_events"] > 0

    def test_couple(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = couple\nn = 200\nhorizon = 1.5\nreplicates = 2\n"
            "seed = 6\nevent = 0.4, 1.0\nevent = 0.9, 1.5\n",
        )
        assert main(["couple", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 <= s["results"]["median_distance"] <= 1.0
        lines = (tmp_path / "couple.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 2

    def test_fclt(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "command = fclt\nlambda = 1\ngamma = pointmass(1)\n"
            "scale = 100\nreplicates = 3\nseed = 7\ngrid_step = 0.25\n",
        )
        assert main(["fclt", "--config", cfg, "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["results"]["variance_at_1"] >= 0.0
        lines = (tmp_path / "fclt.csv").read_text().strip().splitlines()
        assert lines[1] == "t,variance"


@pytest.mark.parametrize("command, body", [
    ("speed", "horizon = 50\n"),
    ("fclt", "scale = 100\nreplicates = 3\ngrid_step = 0.25\n"),
], ids=["speed", "fclt"])
@pytest.mark.parametrize("gamma, finite", [("pareto(1,0.5)", False), ("pareto(1,2)", True)])
def test_infinite_mean_is_reported(tmp_path, capsys, command, body, gamma, finite):
    # the speed is infinite exactly when E[A] is: the run completes, but it
    # says so on stderr and in summary.json
    cfg = write_cfg(tmp_path, f"command = {command}\nlambda = 1\ngamma = {gamma}\n"
                              f"seed = 3\n{body}")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    s = json.loads((tmp_path / "summary.json").read_text())
    assert s["results"]["finite_mean"] is finite
    if finite:
        assert err == ""
    else:
        assert err.startswith("warning:") and err.count("\n") == 1
        assert "infinite mean" in err


@pytest.mark.parametrize("gamma", [
    "pareto(1,0.5)", "pareto(1,1)", "mixture(0.5:pointmass(1),0.5:pareto(1,0.8))",
])
def test_heuristics_on_infinite_mean(tmp_path, capsys, gamma):
    # every heuristic speed is infinite with E[A]: reported as null, not computed
    cfg = write_cfg(tmp_path, f"command = heuristics\nlambda = 1\ngamma = {gamma}\n")
    assert main(["heuristics", "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "infinite mean" in err
    res = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert res["finite_mean"] is False and res["contender_rate"] > 0
    assert res["mean_increment"] is None and res["v_gl"] is None and res["v_rgl"] is None


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = speed\nbogus = 1\n")
        assert main(["speed", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "command = heuristics\nlambda = 1\ngamma = pointmass(1)\nseed = 1\n",
        )
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["heuristics", "--config", cfg, "--out", str(blocker)]) == 1
        assert "error" in capsys.readouterr().err

    def test_command_config_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REPLAY_CFG)
        assert main(["speed", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command, text", [
        ("couple", "n = 200\nhorizon = 1\nevent = 0.5, -1\n"),
        ("pit-replay", "event = 0.5, abc\n"),
        ("pit-replay", "start = x, 1\nevent = 0.5, 1\n"),
        ("pit-replay", "event = -0.5, 1\n"),
        ("moran-run", "n = 200\nhorizon = 1\nevent = -0.5, 1\n"),
        ("moran-run", "n = 200\nhorizon = 1\nevent = 0.5, -1.0\n"),
        # a law that can draw inf used to end in an OverflowError traceback, exit 1
        ("moran-run", "n = 200\nhorizon = 1\nlambda = 5\ngamma = pareto(1,0.001)\n"),
        # a negative horizon used to mean "no horizon": exit 0 with clock 2.5,
        # and every gw replicate run to extinction
        ("pit-replay", "horizon = -1\nevent = 0.5, 1\nevent = 2.0, 1\n"),
        ("gw", "birth = 1\ndeath = 2\nreplicates = 3\nhorizon = -1\n"),
        # 2**63 used to end in an OverflowError traceback, exit 1
        ("couple", "n = 9223372036854775808\nhorizon = 1\nevent = 0.5, 1\n"),
        ("moran-run", "n = 9223372036854775808\nhorizon = 1\ncounts = 9223372036854775807, 1\n"
                      "fitness = 0, 1\n"),
    ])
    def test_malformed_row_exits_2(self, tmp_path, capsys, command, text):
        cfg = write_cfg(tmp_path, f"command = {command}\n{text}")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_horizon_is_named(self, command):
        # one common check, ahead of every command's own
        with pytest.raises(ConfigurationError, match="'horizon': must be nonnegative"):
            parse_scenario(f"command = {command}\nhorizon = -1\n", {})

    @pytest.mark.parametrize("command", ["moran-run", "couple"])
    def test_population_above_2_to_the_53_is_named(self, command):
        with pytest.raises(ConfigurationError, match="'n': population size must be at most"):
            parse_scenario(f"command = {command}\nn = {2**53 + 1}\nhorizon = 1\n", {})

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config:") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["0.3", "0.7", "3"])
    def test_fclt_grid_step_must_be_one_over_an_integer(self, tmp_path, capsys, step):
        # 0.3 used to write a grid of step 1/3, 0.7 a single row at t=1, and
        # 3 an error that did not name the key
        cfg = write_cfg(tmp_path, "command = fclt\nlambda = 1\ngamma = pointmass(1)\n"
                                  f"scale = 100\nreplicates = 2\ngrid_step = {step}\n")
        assert main(["fclt", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'grid_step'" in err

    @pytest.mark.parametrize("command, text", [
        # each grid has 1e15 points or more; such an allocation used to fail
        # with a MemoryError traceback, exit 1, or fill the memory
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 50\nfitness = 0, 1\n"
                      "grid_step = 1e-15\n"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 50\nfitness = 0, 1\n"
                      "grid_step = 5e-324\n"),
        ("couple", "n = 200\nhorizon = 1\nevent = 0.5, 1\ngrid_step = 1e-15\n"),
        ("fclt", "lambda = 1\ngamma = pointmass(1)\nscale = 100\nreplicates = 2\n"
                 "grid_step = 1e-15\n"),
        # 1 / 5e-324 is inf; this one used to end in an OverflowError traceback
        ("fclt", "lambda = 1\ngamma = pointmass(1)\nscale = 100\nreplicates = 2\n"
                 "grid_step = 5e-324\n"),
    ])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, command, text):
        cfg = write_cfg(tmp_path, f"command = {command}\n{text}")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'grid_step'" in err
        assert f"more than {MAX_GRID_SAMPLES}" in err

    @pytest.mark.parametrize("command, text, flags, key", [
        # each used to exit 0, changing only the scenario hash
        ("heuristics", "lambda = 1\ngamma = pointmass(1)\nhorizon = 7\nreplicates = 5\n", [],
         "horizon"),
        ("fclt", "lambda = 1\ngamma = pointmass(1)\nscale = 100\nreplicates = 2\n"
                 "grid_step = 0.25\nhorizon = 50\n", [], "horizon"),
        ("speed", "lambda = 1\ngamma = pointmass(1)\nhorizon = 10\ngrid_step = 0.5\n", [],
         "grid_step"),
        ("pit-replay", "event = 0.5, 1\nreplicates = 2\n", [], "replicates"),
        # a key or flag that is given is refused, also at its default value
        ("speed", "lambda = 1\ngamma = pointmass(1)\nhorizon = 10\ngrid_step = 0.01\n", [],
         "grid_step"),
        ("heuristics", "lambda = 1\ngamma = pointmass(1)\n", ["--replicates", "1"],
         "replicates"),
    ])
    def test_unread_key_exits_2(self, tmp_path, capsys, command, text, flags, key):
        cfg = write_cfg(tmp_path, f"command = {command}\n{text}")
        assert main([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: key '{key}' does not apply to command '{command}'\n"
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("replicates, horizon", [
        (1, MAX_CYCLES + 1), (1, 1e12), (1, 1e20),
        # the replicates' cycles are pooled: 1000 x 1e7 used to be accepted
        # and ask for 160 GB of columns
        (1000, 1e7), (2, MAX_CYCLES), (10, MAX_CYCLES // 10 + 1),
    ])
    def test_speed_cycle_count_is_bounded(self, tmp_path, capsys, replicates, horizon):
        # 1e20 used to end in a ValueError traceback from np.empty, exit 1,
        # and 1e12 to ask for 7 TiB; checked here without running
        text = (f"command = speed\nlambda = 1\ngamma = pointmass(1)\n"
                f"replicates = {replicates}\nhorizon = {horizon!r}\n")
        with pytest.raises(ConfigurationError, match=f"'horizon': must be at most {MAX_CYCLES}"):
            parse_scenario(text, {})
        out = tmp_path / "out"
        assert main(["speed", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "must be at most" in capsys.readouterr().err
        assert not out.exists()
        parse_scenario(f"command = speed\nlambda = 1\ngamma = pointmass(1)\n"
                       f"replicates = {replicates}\nhorizon = {MAX_CYCLES // replicates}\n", {})

    @pytest.mark.parametrize("command, text, flags, key", [
        # a NaN start slope used to hang the replay
        ("pit-replay", "start = 0.5, nan\nevent = 0.1, 1\n", [], "start"),
        # an infinite increment used to exit 0 with final_fitness Infinity
        ("pit-replay", "event = 0.1, inf\n", [], "event"),
        ("pit-replay", "event = nan, 1\n", [], "event"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 50\nfitness = 0, nan\n", [],
         "fitness"),
        # these three used to end in an OverflowError traceback, exit 1
        ("pit-run", "lambda = 1\ngamma = pointmass(1)\nhorizon = inf\n", [], "horizon"),
        ("fclt", "lambda = 1\ngamma = pointmass(1)\nscale = inf\nreplicates = 2\n", [],
         "scale"),
        ("pit-run", "lambda = 1\ngamma = pointmass(1)\nhorizon = 1\n", ["--horizon", "inf"],
         "horizon"),
        # and this one in an IndexError traceback
        ("moran-run", "n = 200\nhorizon = inf\ncounts = 150, 50\nfitness = 0, 1\n", [],
         "horizon"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 50\nfitness = 0, 1\n",
         ["--grid-step", "nan"], "grid_step"),
        ("speed", "lambda = -inf\ngamma = pointmass(1)\nhorizon = 10\n", [], "lambda"),
        ("pit-replay", "f0 = nan\nevent = 0.1, 1\n", [], "f0"),
        ("gw", "birth = inf\ndeath = 1\n", [], "birth"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, text, flags, key):
        cfg = write_cfg(tmp_path, f"command = {command}\n{text}")
        assert main([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}': must be finite" in err


    @pytest.mark.parametrize("command, text, key", [
        # each used to be refused only by the engine, after the output
        # directory was made, with a message that did not name the key
        ("gw", "birth = 2\ndeath = 1\ninitial = 5\ncap = 5\n", "cap"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 40\nfitness = 0, 1\n", "counts"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 200, 0\nfitness = 0, 1\n", "counts"),
        ("moran-run", "n = 200\nhorizon = 1\ncounts = 150, 50\nfitness = 0, 1, 2\n",
         "counts"),
        ("moran-run", "n = 200\nhorizon = 1\nevent = 0.5, 1\nevent = 0.2, 1\n", "event"),
        # the free-rate rules, which the command alone holds
        ("moran-run", "n = 200\nhorizon = 1\nlambda = -1\ngamma = exponential(1)\n", "lambda"),
        ("moran-run", "n = 200\nhorizon = 1\nlambda = 2\ngamma = exponential(1)\n"
                      "event = 0.5, 1\n", "event"),
        ("moran-run", "n = 200\nhorizon = 1\nlambda = 2\n", "gamma"),
        ("pit-replay", "start = 1.5, 0\nevent = 0.1, 1\n", "start"),
        ("pit-replay", "start = 0.5, 1\nstart = 0.5, 1\nevent = 0.1, 1\n", "start"),
        ("pit-replay", "start = 1, 0\nevent = 0.1, 1\n", "start"),
        ("pit-replay", "event = 0.5, 1\nevent = 0.2, 1\n", "event"),
        ("pit-replay", "event = 0.5, 1\nevent = 0.5, 2\n", "event"),
        ("couple", "n = 200\nhorizon = 1\nevent = 0.5, 1\nevent = 0.2, 1\n", "event"),
    ])
    def test_engine_rules_are_checked_before_the_run(self, tmp_path, capsys, command, text,
                                                     key):
        body = f"command = {command}\n{text}"
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            parse_scenario(body, {})
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, body)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err and err.count("\n") == 1
        assert not out.exists()

class TestCommandTable:
    def test_command_keys_are_scenario_keys(self):
        known = set(_SCALARS) | set(_LISTS) | _COMMON
        for name, command in COMMANDS.items():
            assert set(command.keys) <= known, name
            assert not set(command.keys) & _COMMON, name

    def test_every_key_is_taken_by_some_command(self):
        taken = _COMMON.union(*(command.keys for command in COMMANDS.values()))
        assert set(_SCALARS) | set(_LISTS) <= taken

    def test_unknown_command_lists_the_table_in_order(self):
        with pytest.raises(ConfigurationError, match="expected one of pit-run, pit-replay, "
                           "moran-run, couple, speed, heuristics, gw, fclt$"):
            parse_scenario("command = bogus\n", {})

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--grid-step" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["bogus"], []], ids=["bogus", "none"])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_parser_serves_two_calls(self, tmp_path):
        cfg = write_cfg(tmp_path, "command = heuristics\nlambda = 1\ngamma = pointmass(1)\n")
        summaries = []
        for sub in ("a", "b"):
            assert main(["heuristics", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
            summaries.append(json.loads((tmp_path / sub / "summary.json").read_text()))
        assert summaries[0]["results"] == summaries[1]["results"]


# One small seeded scenario per command that writes CSV or JSONL (two for
# pit-run), with the sha256 of every such artifact.  summary.json is left
# out: it carries the wall time and the build tag.  Every sampled stream
# follows the block draw order of inputs.ArrivalBuffer.
FROZEN_ARTIFACTS = {
    "pit-replay": (REPLAY_CFG, {
        "events.csv": "41172337b0de5ec8dfafababa7f28b3bf26ae33f4b168a09e4cca1993a379d7d",
        "trajectories.jsonl": "dc6ba52f72e84e28487a57a9b865c7203a57ad5537aa5c4e6c44e1a9c871381f",
    }),
    "pit-run": (
        "command = pit-run\nlambda = 20\ngamma = uniform(1,2)\nhorizon = 2\n"
        "replicates = 2\nseed = 3\n", {
            "events_r000.csv": "a122d45adcfa8865aeb8a59fcff47d7555d217b1e14f2da2b962090e6bf2787c",
            "events_r001.csv": "99cf1c1af9d99e8b67f67ecba797b762e70e7c7fb97a5216cc273afb778116d7",
            "trajectories_r000.jsonl":
                "5aa471db3fa41cc714cda53551c2985588fd1e16b46bab46fbfddbf0612320cb",
            "trajectories_r001.jsonl":
                "dafb34517f22978d5e10e249839564fcf867a3b4c62f0ceb80e8653ba9d99be6",
        }),
    "speed": (
        "command = speed\nlambda = 1\ngamma = pointmass(1)\nhorizon = 50\n"
        "replicates = 2\nseed = 11\n", {
            "cycles_r000.csv": "188c9d528568c4280d49b6fe5e924f9deaba33bb6690c65a36af01a30ca60de0",
            "cycles_r001.csv": "0719ceb1d8f48f457367320083615fb590eb552682832b72653fa58db6a6d431",
        }),
    # renewal rows that read chunks of 4 and of 16 arrivals
    "speed-chunk-4": (
        "command = speed\nlambda = 20\ngamma = exponential(1)\nhorizon = 300\n"
        "replicates = 3\nseed = 12\n", {
            "cycles_r000.csv": "e14d4540b2e8b1d970ce99fc7efb17cd0d20b2a0a321325f63a4677b1f8ed967",
            "cycles_r001.csv": "bc24aaa9c991bd769fe82e3128f9f8fa0c9afd84666baf19526a080736a01d62",
            "cycles_r002.csv": "8f23311287657ce4251cb5fe964670df71d98214a2ea9a332bc466a98c0535e3",
        }),
    "speed-chunk-16": (
        "command = speed\nlambda = 50\ngamma = uniform(1,2)\nhorizon = 200\n"
        "replicates = 3\nseed = 13\n", {
            "cycles_r000.csv": "9b00870aa0d24eacf442ae2e0a7b26d3cfd780cd7d35688ce8e6e2132a6170c3",
            "cycles_r001.csv": "e578cffcdd5bc9e593d85f1fd5216d378d0610bfd9a922af088b6b1f1e074fb0",
            "cycles_r002.csv": "ad58c83f52c945ff71f057ab051cc0f9b228ef3f81e13e8a9d86db7b2872326f",
        }),
    "moran-run": (
        "command = moran-run\nn = 200\ncounts = 150, 50\nfitness = 0, 1\n"
        "event = 0.3, 1.0\nhorizon = 1\nreplicates = 2\nseed = 5\n", {
            "trace_r000.csv": "ba2715f579bdd320244b835bf58e6cb1a9a955f6caf8f5ec2791395d88b283d4",
            "trace_r001.csv": "48e15874320e029dca5c89010e9929b3d2ba83d375479e23501a09e8556333a7",
        }),
    # free mutations: each replicate samples at its own mutation and check times
    "moran-run-free": (
        "command = moran-run\nn = 200\ncounts = 150, 50\nfitness = 0, 1\n"
        "lambda = 2\ngamma = exponential(1)\nhorizon = 2\ngrid_step = 0.05\n"
        "replicates = 3\nseed = 8\n", {
            "trace_r000.csv": "623663947a53ccae20713ac60c2997eba39ed5a0774780c286cb7df50cc4d3eb",
            "trace_r001.csv": "2a72218a1b9db619063ba2dcbeafa50e9968aa51b83538ad34d101951a8a8ae5",
            "trace_r002.csv": "b939017d91c5f20889ff7ce37bf88611fd8ff4a0aa3007fe1dac39593f7268ad",
        }),
    "couple": (
        "command = couple\nn = 200\nhorizon = 1.5\nreplicates = 2\nseed = 6\n"
        "event = 0.4, 1.0\nevent = 0.9, 1.5\n", {
            "couple.csv": "8114e7407171eb52d9bfce0fd3da63e07523bea58efef55d5a28eb7013bd5635",
        }),
    "gw": (
        "command = gw\nbirth = 2\ndeath = 1\nreplicates = 20\ncap = 200\nseed = 2\n", {
            "runs.csv": "3708b188509f0c26d313b9e2f76bff795ded11a867d8fdc27486d007c56f41c3",
        }),
    "fclt": (
        "command = fclt\nlambda = 1\ngamma = pointmass(1)\nscale = 100\n"
        "replicates = 3\nseed = 7\ngrid_step = 0.25\n", {
            "fclt.csv": "757392f60f7e2d107bb2f5dcdfbec2338937d1594836463ea1bf1d983fe2acfb",
        }),
    # the dense regime of criteria 10/12: hundreds of active trajectories
    "pit-run-dense": (
        "command = pit-run\nlambda = 1000\ngamma = uniform(1,2)\nhorizon = 1\n"
        "replicates = 2\nseed = 1\n", {
            "events_r000.csv": "7cebcfb1fc0a5fbdbd70d956cf4a59dda5e81dd45fc630fc6a559a91913d5b03",
            "events_r001.csv": "bae38a57287d747dd489817903219f617f5d31ae6d1a4cfdb46a88355d986ba5",
            "trajectories_r000.jsonl":
                "95c7115c5337ca84d6c91776c24dcacf96caef87aa2491006462c615fc27b7e9",
            "trajectories_r001.jsonl":
                "6ddb56bde0b11ae430788e122ab7138e05a4728f9f0d721894bd88d177fd70a8",
        }),
}


@pytest.mark.parametrize("label", sorted(FROZEN_ARTIFACTS))
def test_artifact_bytes_are_frozen(tmp_path, label):
    text, digests = FROZEN_ARTIFACTS[label]
    command = parse_scenario(text, {}).command
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.suffix in (".csv", ".jsonl")
    }
    assert got == digests
