import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from clonepit import (
    FitnessRows,
    InputEvent,
    PiecewisePath,
    PitState,
    StartEntry,
    StepPath,
    contender_params,
    parse_distribution,
    sample_contender_stream,
    write_event_csv,
    write_trajectories_jsonl,
)
from clonepit.inputs import ArrivalBuffer
from clonepit.pit import ConfigurationError, InvariantViolation, PitEvent, _fmt
from clonepit.rng import replicate_rng

# Six candidate arrivals, four of them contenders.  Everything about this
# run is known in closed form, so it pins the whole kinking machinery:
# resident changes at 2.6, 3.4 and 68/15, fitness 0 -> 1 -> 2 -> 2.6,
# and only the third change is solitary.
SIX_EVENTS = (
    InputEvent(1, 1.2, 0.2, True),
    InputEvent(2, 1.4, 1.0, False),
    InputEvent(3, 1.6, 1.0, True),
    InputEvent(4, 2.5, 2.0, True),
    InputEvent(5, 2.9, 1.0, False),
    InputEvent(6, 3.2, 1.6, True),
)


def _starts(*pairs):
    """StartEntry records from ``(height, slope)`` pairs."""
    return [StartEntry(h, v) for h, v in pairs]


def _ev(*pairs):
    """Contender events from ``(time, increment)`` pairs, indexed from 1."""
    return [InputEvent(i + 1, t, a, True) for i, (t, a) in enumerate(pairs)]


def run_six_events():
    st = PitState(events=SIX_EVENTS)
    st.advance()
    return st


class TestSixEventReplay:
    def test_resident_change_times(self):
        st = run_six_events()
        times = [rc[0] for rc in st.resident_changes]
        np.testing.assert_allclose(times, [2.6, 3.4, 68.0 / 15.0], atol=1e-9)

    def test_fitness_steps(self):
        st = run_six_events()
        fits = [rc[2] for rc in st.resident_changes]
        np.testing.assert_allclose(fits, [1.0, 2.0, 2.6], atol=1e-9)
        path = st.resident_fitness_path()
        assert path(2.5) == 0.0
        assert path(2.6) == pytest.approx(1.0)
        assert path(4.0) == pytest.approx(2.0)
        assert path(5.0) == pytest.approx(2.6)

    def test_winners_and_solitary_flags(self):
        st = run_six_events()
        assert [rc[3] for rc in st.resident_changes] == [3, 4, 6]
        assert [rc[4] for rc in st.resident_changes] == [False, False, True]

    def test_parent_vector(self):
        st = run_six_events()
        assert {i: st.types[i].parent for i in range(1, 7)} == {
            1: 0, 2: 0, 3: 0, 4: 0, 5: 3, 6: 3,
        }

    def test_trajectory_4_is_kinked_from_2_to_1(self):
        st = run_six_events()
        p4 = st.trajectory_path(4)
        # slope 2 from birth at 2.5 to the change at 2.6, slope 1 after
        assert p4(2.55) == pytest.approx(0.1)
        assert p4(2.6) == pytest.approx(0.2)
        assert p4(3.0) == pytest.approx(0.6)
        assert p4(3.4) == pytest.approx(1.0)

    def test_slopes_mid_run(self):
        st = PitState(events=SIX_EVENTS)
        st.advance(until=2.55)
        assert st.slope(4) == pytest.approx(2.0)
        st.advance(until=2.7)
        assert st.slope(4) == pytest.approx(1.0)

    def test_statuses(self):
        st = run_six_events()
        assert st.types[6].status == "resident"
        assert st.types[2].status == "latent"
        assert st.types[5].status == "latent"
        assert st.types[0].status == "extinct"

    def test_invariants_after_run(self):
        st = run_six_events()
        st.check_invariants()


class TestStartConfigurationReplay:
    def test_two_changes_at_quarter_and_one(self):
        st = PitState(start=_starts((0.1, 1.5), (0.3, 1.0), (0.8, 0.8), (1.0, 0.0)))
        st.advance()
        times = [rc[0] for rc in st.resident_changes]
        np.testing.assert_allclose(times, [0.25, 1.0], atol=1e-9)
        assert [rc[4] for rc in st.resident_changes] == [False, True]

    def test_simultaneous_hits_highest_slope_wins(self):
        # both starters reach the top at t=0.5; the steeper one takes over
        # and the other is kinked below zero slope and falls back
        st = PitState(start=_starts((0.5, 1.0), (0.75, 0.5), (1.0, 0.0)))
        st.advance(until=2.0)
        (t, v_star, fit, winner, solitary), = st.resident_changes
        assert t == pytest.approx(0.5)
        assert v_star == pytest.approx(1.0)
        assert solitary
        assert st.height(winner) == 1.0 and st.slope(winner) == 0.0
        loser = ({-1, -2} - {winner}).pop()
        assert st.slope(loser) == pytest.approx(-0.5)
        assert st.height(loser) == pytest.approx(0.25)
        st.check_invariants()


def test_each_contender_takes_residency_in_turn():
    # increments 1 < 1.5, then 0.8: the first contender wins the first
    # residency and kinks the second below the third's slope, so the final
    # fitness is 1 + 0.8, though the 1.5 contender also holds residency
    st = PitState(events=[
        InputEvent(1, 1.0, 1.0, True),
        InputEvent(2, 1.8, 1.5, True),
        InputEvent(3, 2.35, 0.8, True),
    ])
    st.advance()
    assert [rc[3] for rc in st.resident_changes] == [1, 2, 3]
    assert st.fitness == pytest.approx(1.8)


class TestValidation:
    def test_needs_exactly_one_resident_start(self):
        with pytest.raises(ConfigurationError):
            PitState(start=_starts((0.5, 1.0)))
        with pytest.raises(ConfigurationError):
            PitState(start=_starts((1.0, 0.0), (1.0, 0.0), (0.5, 1.0)))

    def test_start_entries_must_be_distinct(self):
        with pytest.raises(ConfigurationError):
            PitState(start=_starts((0.5, 1.0), (0.5, 1.0), (1.0, 0.0)))

    def test_start_holds_start_entries(self):
        with pytest.raises(ConfigurationError, match="StartEntry"):
            PitState(start=[(1.0, 0.0)])
        with pytest.raises(ConfigurationError, match="StartEntry"):
            PitState(start=[StartEntry(1.0, 0.0), (0.5, 1.0)])

    def test_heights_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            PitState(start=_starts((1.5, 1.0), (1.0, 0.0)))

    def test_event_times_must_increase(self):
        st = PitState(events=_ev((2.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ConfigurationError):
            st.advance()

    @pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf])
    def test_start_slope_must_be_finite(self, slope):
        # a NaN slope used to make advance(2.0) spin forever
        with pytest.raises(ConfigurationError, match="finite"):
            PitState(start=_starts((1.0, 0.0), (0.5, slope)))

    @pytest.mark.parametrize("time, increment", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, math.inf),
    ])
    def test_input_event_must_be_finite(self, time, increment):
        with pytest.raises(ConfigurationError, match="finite"):
            InputEvent(1, time, increment, True)


def _build(engine, events):
    """A PitState on ``events``, or FitnessRows with them as its one row."""
    return engine(events=events) if engine is PitState else FitnessRows([events])


# Bare (time, slope) pairs are refused by both engines; these five once got
# through the pair branch of the feed, which is gone.
@pytest.mark.parametrize("events", [
    # an infinite slope used to make the skeleton's advance spin forever
    [(0.1, math.inf), (0.5, 1.0)],
    [(0.1, math.nan), (0.5, 1.0)],
    # a NaN time used to stay pending for good and drop every later arrival
    [(0.1, 1.0), (math.nan, 1.0), (0.5, 2.0)],
    [(0.1, 1.0), (math.inf, 1.0)],
    # a negative time used to run the clock back
    [(-1.0, 1.0), (0.5, 2.0)],
])
@pytest.mark.parametrize("engine", [PitState, FitnessRows])
def test_bare_pairs_are_checked_like_input_events(engine, events):
    with pytest.raises(ConfigurationError):
        _build(engine, events).advance(until=1.0)


@pytest.mark.parametrize("engine", [PitState, FitnessRows])
def test_event_indices_are_integers(engine):
    # on 1.5 and 2.7 FitnessRows used to truncate the indices and report
    # winner 2, and PitState to raise a bare TypeError
    with pytest.raises(ConfigurationError, match="index must be an integer, got 1.5"):
        _build(engine, [InputEvent(1.5, 0.1, 1.0, True), InputEvent(2.7, 0.2, 2.0, True)])
    # numpy integers are integers
    st = _build(engine, [InputEvent(np.int64(1), 0.1, 1.0, True),
                         InputEvent(np.int64(2), 0.2, 2.0, True)])
    st.advance()
    changes = st.resident_changes if engine is PitState else st.resident_changes[0]
    assert [c[3] for c in changes] == [2]


@pytest.mark.parametrize("events", [
    _ev((2.0, 1.0), (1.0, 1.0)),
    _ev((1.0, 1.0), (1.0, 2.0)),
    [InputEvent(2, 1.0, 1.0, True), InputEvent(2, 1.5, 1.0, True)],
    [InputEvent(0, 1.0, 1.0, True)],
], ids=["decreasing", "tied", "reused-index", "index-0"])
@pytest.mark.parametrize("engine", [PitState, FitnessRows])
def test_event_streams_must_increase(engine, events):
    with pytest.raises(ConfigurationError):
        _build(engine, events).advance()


@pytest.mark.parametrize("indices", [[2**63], [1, 2**64 + 3]])
def test_rows_refuse_indices_past_int64(indices):
    # PitState takes any integer index; FitnessRows keeps them as int64 and
    # used to end in a bare OverflowError
    events = [InputEvent(i, 0.1 * (k + 1), 1.0 + k, True) for k, i in enumerate(indices)]
    st = PitState(events=events)
    st.advance()
    assert st.resident_id == indices[-1]
    with pytest.raises(ConfigurationError, match=r"stream 1: .*below 2\*\*63"):
        FitnessRows([_ev((0.5, 1.0)), events])


@pytest.mark.parametrize("indices", [
    # the winner used to read 2**53: a float64 column rounded the index
    [2**53 + 1],
    # and these two used to round to one value and be refused as not increasing
    [2**54 + 1, 2**54 + 2],
])
def test_indices_above_2_to_the_53_are_exact(indices):
    events = [InputEvent(i, 0.1 * (k + 1), 1.0 + k, True) for k, i in enumerate(indices)]
    st = PitState(events=events)
    st.advance()
    rows = FitnessRows([events])
    rows.advance()
    (changes,) = rows.resident_changes
    assert [c[3] for c in changes] == [c[3] for c in st.resident_changes]
    assert changes[-1][3] == indices[-1]
    assert changes == pytest.approx(st.resident_changes)


class TestChecksSeeNaN:
    """Each identity check raises on a NaN residual instead of passing it."""

    def _state(self):
        st = PitState(start=_starts((1.0, 0.0), (0.5, 1.0), (0.2, 0.5)))
        st.advance(until=0.3)
        st.check_invariants()
        return st

    def test_nan_fitness_fails_every_check(self):
        st = self._state()
        st.fitness = math.nan
        with pytest.raises(InvariantViolation):
            st.check_invariants()
        with pytest.raises(InvariantViolation):
            st._check_after_change(st.resident_id)

    def test_nan_vstar_sum_fails_the_drift_check(self):
        st = self._state()
        st.vstar_sum = math.nan
        with pytest.raises(InvariantViolation, match="sum of v"):
            st.check_invariants()
        with pytest.raises(InvariantViolation, match="sum of v"):
            st._check_after_change(st.resident_id)

    def test_nan_slope_fails_the_coupling_check(self):
        st = self._state()
        st._v[st._slot_of[-1]] = math.nan
        with pytest.raises(InvariantViolation, match="slope-coupling"):
            st._check_after_change(st.resident_id)

    def test_nan_height_fails_the_range_check(self):
        st = self._state()
        st._h[st._slot_of[-2]] = math.nan
        with pytest.raises(InvariantViolation, match=r"outside \[0, 1\]"):
            st.check_invariants()

    def test_nan_type_fitness_fails_the_parent_and_top_checks(self):
        st = self._state()
        st.types[0].fitness = math.nan
        with pytest.raises(InvariantViolation, match="at \\(1, 0\\)"):
            st._check_top(1e-9)
        st = PitState(events=_ev((0.1, 1.0)))
        st.advance(until=0.5)
        st.types[1].fitness = math.nan
        with pytest.raises(InvariantViolation, match="parent \\+ increment"):
            st.check_invariants()


@pytest.mark.parametrize("engine", [PitState, FitnessRows])
class TestAdvanceRunsForward:
    def test_until_below_clock_is_refused(self, engine):
        st = _build(engine, _ev((0.1, 1.0), (0.5, 2.0)))
        st.advance(until=0.3)
        with pytest.raises(ConfigurationError, match="until"):
            st.advance(until=0.2)
        assert np.all(st.clock == 0.3)
        st.advance(until=0.3)
        st.advance(until=0.6)
        assert np.all(st.clock == 0.6)
        if engine is PitState:
            # rewinding the clock without the heights used to leave 0.6 here
            assert st.height(1) == pytest.approx(0.5)
            assert st.height(2) == pytest.approx(0.2)

    def test_nan_until_is_refused(self, engine):
        st = _build(engine, _ev((0.1, 1.0), (0.5, 2.0)))
        with pytest.raises(ConfigurationError, match="nan"):
            st.advance(until=math.nan)
        # nothing ran: a NaN bound used to let every event through
        assert np.all(st.clock == 0.0)
        if engine is PitState:
            assert st.pending_immigration[0] == 0.1
        else:
            assert st.resident_changes == [[]]


class TestEventOrdering:
    def test_hit_applies_before_same_stamp_arrival(self):
        # a change and an arrival share the stamp t=0.5; the arrival must
        # land after the kink, keeping its full slope
        st = PitState(
            start=_starts((0.5, 1.0), (1.0, 0.0)),
            events=[InputEvent(1, 0.5, 2.0, True)],
        )
        st.advance(until=0.6)
        assert len(st.resident_changes) == 1
        assert st.fitness == pytest.approx(1.0)
        assert st.slope(1) == pytest.approx(2.0)

    def test_latent_arrivals_do_not_move(self):
        st = PitState(events=[InputEvent(1, 1.0, 3.0, False)])
        st.advance(until=5.0)
        assert st.resident_changes == []
        assert st.types[1].status == "latent"


class TestFarClockProgress:
    def test_hit_far_from_origin_terminates(self):
        # At clocks ~3e4 one ulp exceeds the stamp tolerance, so the
        # absolute hit time rounds onto the current clock.  Selection by
        # offset keeps the engine moving; this run used to spin forever.
        t0 = 32767.326758867104
        st = PitState(events=_ev((t0, 1.0)))
        st.advance(until=t0 + 5.0)
        (t, _, fit, _, sol), = st.resident_changes
        assert t == pytest.approx(t0 + 1.0, abs=1e-6)
        assert fit == pytest.approx(1.0)
        assert sol

    def test_long_run_keeps_identities(self):
        rng = np.random.default_rng(909)
        t, evs = 20000.0, []
        for _ in range(400):
            t += rng.exponential(2.0)
            evs.append((t, float(rng.uniform(0.5, 2.0))))
        st = PitState(events=_ev(*evs))
        st.advance()
        st.check_invariants()
        assert st.vstar_sum == pytest.approx(st.fitness - st.f0, abs=1e-9)

    def test_heavy_tail_identities_scale_with_fitness(self):
        # the fitness passes 1e7, where one ulp (1.9e-9) exceeds the absolute
        # check tolerance; this run used to raise InvariantViolation
        law = contender_params(20.0, parse_distribution("pareto(1,0.5)"))
        evs = sample_contender_stream(law, 10.0, replicate_rng(0, 0))
        st = PitState(events=evs)
        st.advance(until=10.0)
        st.check_invariants()
        assert st.fitness > 1e7


class TestPaths:
    def test_step_path_right_continuous(self):
        sp = StepPath([0.0, 1.0, 3.0], [0.0, 2.0, 5.0])
        assert sp(0.5) == 0.0
        assert sp(1.0) == 2.0
        assert sp(2.999) == 2.0
        assert sp(10.0) == 5.0
        np.testing.assert_allclose(sp(np.array([0.0, 1.0, 4.0])), [0.0, 2.0, 5.0])

    def test_piecewise_path_clips_to_unit_interval(self):
        st = run_six_events()
        p0 = st.trajectory_path(0)
        grid = np.linspace(0.0, st.clock, 101)
        vals = p0(grid)
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert p0(0.0) == 1.0
        # resident falls at slope -1 after the first change
        assert p0(3.0) == pytest.approx(0.6)

    def test_latent_path_is_flat_zero(self):
        st = run_six_events()
        p2 = st.trajectory_path(2)
        np.testing.assert_allclose(p2(np.array([1.4, 2.0, 4.0])), 0.0)


class TestOutputs:
    def test_event_csv_round_trip(self, tmp_path):
        st = run_six_events()
        out = tmp_path / "events.csv"
        write_event_csv(st.log, out, "cafebabe00000000")
        lines = out.read_text().strip().splitlines()
        assert "cafebabe00000000" in lines[0]
        assert len(lines) == len(st.log) + 2
        # second line is the header row
        assert lines[1].split(",")[0] == "time"

    def test_event_csv_cells_are_fmt_text(self, tmp_path):
        # every float cell is _fmt's .17g text of its value, which reads back
        # exactly, and every id its integer text
        big = 2**53 + 2
        events = [
            PitEvent(-0.0, "immigration", 1, 5e-324, 0, 1e16),
            PitEvent(1e16, "resident_change", big, float(big), big, -0.0, True),
            PitEvent(5e-324, "extinction", -3, 0.0, -1, np.float64(1.0 / 3.0)),
            PitEvent(np.float64(0.1), "immigration", np.int64(big + 2), 1e-7, 1, 2.0**53 + 2),
        ]
        out = tmp_path / "events.csv"
        write_event_csv(events, out)
        header, *rows = out.read_text().splitlines()
        assert header == "time,kind,trajectory_id,v_star_or_slope,resident_id,fitness"
        assert rows == [
            f"{_fmt(ev.time)},{ev.kind},{ev.trajectory_id},{_fmt(ev.value)},"
            f"{ev.resident_id},{_fmt(ev.fitness)}"
            for ev in events
        ]
        assert rows[0] == "-0,immigration,1,4.9406564584124654e-324,0,10000000000000000"
        assert rows[1] == (
            "10000000000000000,resident_change,9007199254740994,9007199254740994,"
            "9007199254740994,-0")
        back = [row.split(",") for row in rows]
        assert [(float(r[0]), float(r[3]), float(r[5])) for r in back] == [
            (ev.time, ev.value, ev.fitness) for ev in events]
        assert [(int(r[2]), int(r[4])) for r in back] == [
            (ev.trajectory_id, ev.resident_id) for ev in events]

    def test_trajectories_jsonl_is_json_dumps(self, tmp_path):
        # np.float64 times and increments, an np.int64 index, negative start
        # ids, None parents, and latent, extinct, flat and resident types
        st = PitState(
            start=_starts((1.0, 0.0), (0.5, -1.0), (0.25, 0.0)),
            events=[
                InputEvent(1, np.float64(0.1), np.float64(1.5), True),
                InputEvent(2, np.float64(0.2), np.float64(0.7), False),
                InputEvent(np.int64(4), 0.3, 2.0, True),
            ],
            f0=np.float64(0.125),
        )
        # the extinction at 0.5 is stamped after a clock set from np.float64
        st.advance(until=np.float64(0.35))
        st.advance(until=np.float64(2.0))
        assert {t.status for t in st.types.values()} == {
            "active", "resident", "latent", "extinct"
        }
        assert {-2, -1, 0} <= set(st.types) and st.types[-1].parent is None

        def reference():
            lines = [json.dumps({"scenario": "cafebabe00000000"})]
            for tid in sorted(st.types):
                t = st.types[tid]
                lines.append(json.dumps({
                    "id": t.id, "parent": t.parent, "birth": t.birth,
                    "fitness": t.fitness, "status": t.status, "segments": t.segments,
                }))
            return "\n".join(lines) + "\n"

        out = tmp_path / "traj.jsonl"
        write_trajectories_jsonl(st, out, "cafebabe00000000")
        assert out.read_text() == reference()
        # non-finite floats take json's spelling
        st.types[1].fitness = math.inf
        st.types[2].segments.append((math.nan, -math.inf, 0.0))
        write_trajectories_jsonl(st, out, "cafebabe00000000")
        assert out.read_text() == reference()
        assert "Infinity" in out.read_text() and "NaN" in out.read_text()
        write_trajectories_jsonl(st, out)
        assert out.read_text() == reference().split("\n", 1)[1]

    def test_trajectories_jsonl(self, tmp_path):
        st = run_six_events()
        out = tmp_path / "traj.jsonl"
        write_trajectories_jsonl(st, out, "cafebabe00000000")
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0] == {"scenario": "cafebabe00000000"}
        assert {r["id"] for r in rows[1:]} >= {0, 1, 3, 4, 6}

    def test_rerun_is_identical(self, tmp_path):
        rng_events = lambda seed: _random_events(seed, 200)  # noqa: E731
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            st = PitState(events=rng_events(7))
            st.advance()
            write_event_csv(st.log, out, "feed000000000000")
        assert a.read_bytes() == b.read_bytes()


def _masked_offsets(h, v):
    """The hit offsets as computed before the per-slot targets: two masked divides."""
    out = np.full(h.size, math.inf)
    np.divide(1.0 - h, v, out=out, where=v > 0.0)
    np.divide(h, -v, out=out, where=v < 0.0)
    return out


def _assert_offsets_match(st):
    """``st._hit_offsets()`` equals the masked formula bit for bit.

    The one exception is the sign of a zero: a falling slot already at height
    0 gives -0.0 for 0.0, which compares equal and selects the same event.
    """
    n = st._n
    with np.errstate(divide="ignore", over="ignore"):
        old = _masked_offsets(st._h[:n].copy(), st._v[:n].copy())
        new = PitState._hit_offsets(st).copy()
    zero = (old == 0.0) & (new == 0.0)
    assert np.array_equal(old.view(np.uint64)[~zero], new.view(np.uint64)[~zero])
    assert np.array_equal(old == 0.0, new == 0.0)


class _CheckedOffsets(PitState):
    """PitState that checks every offset scan of ``advance`` against the old formula."""

    def _hit_offsets(self):
        _assert_offsets_match(self)
        return super()._hit_offsets()


def test_hit_offsets_match_masked_formula_on_edge_states():
    tiny = 5e-324
    st = PitState(start=_starts(
        (1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, tiny), (1.0, -1.0), (1.0, -tiny),
        (0.5, 0.0), (0.5, tiny), (0.5, -tiny), (0.3, 1e-300), (0.7, -1e300),
        (1e-300, -1.0), (1.0 - 2**-53, 3.0), (0.25, -0.0),
    ))
    _assert_offsets_match(st)
    with np.errstate(divide="ignore", over="ignore"):
        assert st._hit_offsets()[st._slot_of[-13]] == math.inf
    # a falling slot already at height 0, as a clamp can leave one
    slot = st._slot_of[-2]
    st._v[slot], st._tg[slot] = -2.0, 0.0
    _assert_offsets_match(st)
    with np.errstate(divide="ignore", over="ignore"):
        assert math.copysign(1.0, st._hit_offsets()[slot]) == -1.0


@settings(max_examples=40, deadline=None)
@given(seed=hs.integers(min_value=0, max_value=2**31))
def test_hit_offsets_match_masked_formula_on_random_runs(seed):
    # random starts (h = 0 and h = 1 included, flat and tiny slopes) and
    # arrivals, so every scan also sees kinked slopes
    rng = np.random.default_rng(seed)
    start = [(1.0, 0.0)]
    for _ in range(int(rng.integers(0, 12))):
        h = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        v = float(rng.choice([0.0, -0.0, 1e-300, -1e-300, rng.normal()]))
        if (h == 0.0 and v < 0.0) or (h == 1.0 and v > 0.0) or (h, v) in start:
            continue
        start.append((h, v))
    st = _CheckedOffsets(start=_starts(*start), events=_random_events(seed, 40, lam=4.0))
    st.advance()
    assert st.resident_changes


def test_negative_zero_slope_is_flat():
    # (2 - h)/-0.0 is -inf: a flat slot stored with that sign would be
    # picked as the next hit at clock -inf and stall advance
    st = PitState(start=_starts((1.0, 0.0), (0.5, -0.0)), events=_ev((0.4, 1.0)))
    st.advance(until=3.0)
    assert st.clock == 3.0
    assert st.height(-1) == 0.0
    assert [round(t, 12) for t, *_ in st.resident_changes] == [1.4]
    assert math.copysign(1.0, st.types[-1].segments[0][2]) == -1.0
    st.check_invariants()


def _random_events(seed, count, lam=1.0):
    rng = np.random.default_rng(seed)
    t, evs = 0.0, []
    for _ in range(count):
        t += rng.exponential(1.0 / lam)
        evs.append((t, float(rng.uniform(0.2, 2.5))))
    return _ev(*evs)


@settings(max_examples=40, deadline=None)
@given(seed=hs.integers(min_value=0, max_value=2**31), count=hs.integers(2, 60))
def test_random_streams_keep_invariants(seed, count):
    st = PitState(events=_random_events(seed, count))
    st.advance()
    st.check_invariants()
    # exactly one trajectory parked at (1, 0)
    tops = [tid for tid in st.active_ids
            if st.height(tid) == 1.0 and st.slope(tid) == 0.0]
    assert len(tops) == 1
    for tid in st.active_ids:
        assert 0.0 <= st.height(tid) <= 1.0
    fits = [rc[2] for rc in st.resident_changes]
    assert all(b > a for a, b in zip(fits, fits[1:]))


@settings(max_examples=30, deadline=None)
@given(seed=hs.integers(min_value=0, max_value=2**31))
def test_solitary_changes_leave_no_risers(seed):
    # rerun up to the first solitary change and look at the state there
    events = _random_events(seed, 40)
    st = PitState(events=events)
    st.advance()
    if not st.resident_changes:
        return
    assert st.resident_changes[-1][4]
    first = next(rc for rc in st.resident_changes if rc[4])
    st = PitState(events=events)
    st.advance(until=first[0])
    assert st.resident_changes[-1] == first
    for tid in st.active_ids:
        if 0.0 < st.height(tid) < 1.0:
            assert st.slope(tid) <= 1e-12


def test_deterministic_given_same_events():
    evs = _random_events(123, 300)
    runs = []
    for _ in range(2):
        st = PitState(events=list(evs))
        st.advance()
        runs.append((st.clock, st.fitness, tuple(map(tuple, st.resident_changes))))
    assert runs[0] == runs[1]


def _assert_same_changes(got, want):
    """Same counts, winners and solitary flags; times, v* and fitness to 1e-12 relative."""
    assert len(got) == len(want)
    assert [rc[3:] for rc in got] == [rc[3:] for rc in want]
    if want:
        np.testing.assert_allclose(
            [rc[:3] for rc in got], [rc[:3] for rc in want], rtol=1e-12, atol=0.0
        )


# sha256 of each fixture's resident changes and fitness after every
# ``until`` piece (see _digest), frozen from the one-system-at-a-time
# skeleton engine that FitnessRows replaced, on the same streams; the rows
# must give them bit for bit.
FROZEN_ROWS = {
    "six":
        "324613be503c368fe7fdc906b84c67cf454d959d45e97278329727573bbe6c85",
    "equal_slope":
        "cff2f367cfb0aa7e97977a3f92f526080022759f44c0f63b49ad573ea959fea7",
    "stamp_tol":
        "662165ba46efa95fcffa70edd707eea9b177d04791ef53c9938647eb868cd786",
    "arrival_on_hit":
        "def12c7fc18c749a8d1268d3c621d45df0b5d5e063849f7eecad851ce84b42a9",
    "riser":
        "74d80bbaae7cc042a1beb3541ff3109fb125f64e4e8c54f2b1e5292a1db68b7c",
    "far_clock":
        "9d1f06d349593801d8f6fa77e73611dbbc109c2109a65f93353444ce6d7d9fab",
    "streams pointmass(1) 1.0":
        "203dfa702576d30f86c232454171d23cf073ba768f920bb1b41bfee8da8c9232",
    "streams pointmass(1) 20.0":
        "8188565461bd4620fb1f1ca737be12e2fcc94eb0e2c2abdf04a17d260c534b97",
    "streams pointmass(1) 1000.0":
        "7101ca823c11211877de1d6183f5aa59ad492dc4e01ddc2e1e918b00f5fd273c",
    "streams uniform(1,2) 1.0":
        "0bbdf50232e9188292d061c8cdfc357453aaffceb9b2470049d9103c3a541c9f",
    "streams uniform(1,2) 20.0":
        "7fd0353c943f3993d8c1a2389bd2bfdfb2322730e6ce236e1023d7d0c3c7c892",
    "streams uniform(1,2) 1000.0":
        "c3f45eed1d107e8c8116b73e7f9d74e694a98e397054ab5bc9117fecd2a6ab8a",
    "streams exponential(1) 1.0":
        "0ccf68686a2d5f6645b009669b2420da9ddccec0c0d11e8cacd5723482383d28",
    "streams exponential(1) 20.0":
        "d1e81d2e5e283e4141a0d4fc622ebe4d231465013de3ffded49b767e19d9aeef",
    "streams exponential(1) 1000.0":
        "886058b79bf602fb661e6ca27dc527f30b59e4f5736ccfa17b9104761cb680a6",
    "streams pareto(1,0.5) 1.0":
        "b2c5efd52ee09260f4b71a3cc5b3b9fc2ad453fa6c9d545a7c9c04f36ed9cf5b",
    "streams pareto(1,0.5) 20.0":
        "d364ca16c54baa42903a4ed137a4b08a9960715d243cd0d067f591b367608b00",
    "streams pareto(1,0.5) 1000.0":
        "bcc557165f7e7f4bbd9c55b14d8d11223a954fde0c0f1fc3d23c05b1f66172ac",
    "streams mixture(0.5:pointmass(1),0.5:exponential(2)) 1.0":
        "ee4d77dac9198adf90f8893bea07e996e1a0c4b1b02b50bcd9c2b4b6f8375b27",
    "streams mixture(0.5:pointmass(1),0.5:exponential(2)) 20.0":
        "b5199ea94cf488d8e24f6cff0ff02d6af74345854922f8d143be9286bb39c2b1",
    "streams mixture(0.5:pointmass(1),0.5:exponential(2)) 1000.0":
        "9eaa55d8f75aab801492297856cc88ea4ea4b0935ec97648b5cc3978123466a8",
    "probe pareto":
        "70474ef29e68f42f9892a8a4fcd09b15beee3415eeb9057664cf5e2f0ccb91ac",
    "probe uniform50":
        "66feea62574e62ef0d43c51825cf85fa5ff5eca9f3dab2f3c553812daac6f05f",
    "probe fclt":
        "5f4d943a5cd1ef67e8c9cc86e82e60246556c9724101458ef924030c518b2ed0",
    "probe exp20":
        "a9fd5ae59bd11c96ecf6cc75a3bf922f14e9bddb5901c71aaef931009be0eb00",
    "probe uniform1000":
        "07c8f1dd78e7b030da78940950a2643b6289fec24777e2dd928c40443a704d94",
}


def _run_pieces(streams, pieces, check=True):
    """FitnessRows on ``streams`` through ``pieces``: per row, (changes, fitness) after each.

    With ``check`` every row is compared with a PitState on its stream after
    every piece.
    """
    rows = FitnessRows(streams)
    refs = [PitState(events=evs) for evs in streams] if check else []
    seen = [[] for _ in streams]
    for until in pieces:
        rows.advance(until=until)
        changes, fitness = rows.resident_changes, rows.fitness.tolist()
        for r, ref in enumerate(refs):
            ref.advance(until=until)
            _assert_same_changes(changes[r], ref.resident_changes)
            np.testing.assert_allclose(fitness[r], ref.fitness, rtol=1e-12, atol=0.0)
        for r in range(len(streams)):
            seen[r].append((changes[r], fitness[r]))
    if math.isfinite(pieces[-1]):
        assert np.all(rows.clock == pieces[-1])
    return rows, seen


def _digest(seen):
    h = hashlib.sha256()
    for pieces in seen:
        for changes, fit in pieces:
            for t, v, f, w, s in changes:
                h.update(f"{float(t)!r},{float(v)!r},{float(f)!r},{int(w)},{bool(s)}\n".encode())
            h.update(f"={float(fit)!r};\n".encode())
    return h.hexdigest()


class TestFitnessSkeleton:
    """The fitness skeleton (resident changes only), as `FitnessRows` computes it."""

    def test_six_event_replay(self):
        rows, seen = _run_pieces([SIX_EVENTS], [math.inf])
        (changes,) = rows.resident_changes
        np.testing.assert_allclose([rc[0] for rc in changes], [2.6, 3.4, 68.0 / 15.0], atol=1e-9)
        np.testing.assert_allclose([rc[2] for rc in changes], [1.0, 2.0, 2.6], atol=1e-9)
        assert [rc[3] for rc in changes] == [3, 4, 6]
        assert [rc[4] for rc in changes] == [False, False, True]
        assert rows.fitness[0] == pytest.approx(2.6)
        assert rows.resident_fitness_path(0)(4.0) == pytest.approx(2.0)
        assert _digest(seen) == FROZEN_ROWS["six"]

    def test_equal_slope_hitters_smaller_id_wins(self):
        # two unit slopes born 5e-13 apart hit within the stamp tolerance
        evs = [InputEvent(1, 1.0, 1.0, True), InputEvent(2, 1.0 + 5e-13, 1.0, True)]
        rows, seen = _run_pieces([evs], [5.0])
        (t, v_star, fit, winner, solitary), = rows.resident_changes[0]
        assert winner == 1 and solitary
        assert t == pytest.approx(2.0) and v_star == 1.0 and fit == 1.0
        assert _digest(seen) == FROZEN_ROWS["equal_slope"]
        # the tied loser stays at (1, 0) beside the resident, with its fitness
        ref = PitState(events=evs)
        ref.advance(until=5.0)
        assert ref.height(2) == 1.0 and ref.slope(2) == 0.0
        ref.check_invariants()

    def test_hits_within_stamp_tolerance_form_one_change(self):
        # arrival 2 is fitter and reaches the top 5e-13 after arrival 1: one
        # change, won by the steeper hitter, which kinks arrival 1 to -1
        rows, seen = _run_pieces([_ev((1.0, 1.0), (1.5 + 5e-13, 2.0))], [5.0])
        (t, v_star, fit, winner, solitary), = rows.resident_changes[0]
        assert (v_star, fit, winner, solitary) == (2.0, 2.0, 2, True)
        assert t == pytest.approx(2.0)
        assert _digest(seen) == FROZEN_ROWS["stamp_tol"]

    def test_arrival_on_hit_timestamp_keeps_full_slope(self):
        # the change at t=2 comes first, so the arrival stamped t=2 rises at
        # its full slope 0.5 and takes over at t=4; kinked, it would never rise
        rows, seen = _run_pieces([_ev((1.0, 1.0), (2.0, 0.5), (10.0, 3.0))], [5.0])
        assert [(rc[0], rc[2], rc[3]) for rc in rows.resident_changes[0]] == [
            (2.0, 1.0, 1), (4.0, 1.5, 2)
        ]
        assert _digest(seen) == FROZEN_ROWS["arrival_on_hit"]

    def test_riser_rounded_to_the_top_hits_next(self):
        # After the change at t=1, arrivals 2 and 3 rise at slopes ~1e-5 and
        # 2e-5.  Arrival 3 reaches the top 1.3e-12 after arrival 2, too late
        # to join its hit, but the step to that hit rounds its height up to
        # exactly 1.  Still rising after the kink, it must take over next,
        # at the same clock.  (Found by bisection on arrival 3's time.)
        evs = _ev((0.0, 1.0), (0.001, 1.0000100000000132), (0.0019999799977576363, 1.00002))
        rows, seen = _run_pieces([evs], [300.0])
        changes = rows.resident_changes[0]
        assert [(rc[3], rc[4]) for rc in changes] == [(1, False), (2, False), (3, True)]
        assert changes[1][0] == changes[2][0]
        assert rows.fitness[0] == pytest.approx(1.00002, rel=1e-12)
        assert _digest(seen) == FROZEN_ROWS["riser"]

    def test_far_clock_hit_rounded_onto_the_clock(self):
        # At clock 4e4 one ulp exceeds the stamp tolerance: the second
        # arrival's hit, ~5e-12 after the first's, lands on the same clock
        t0 = 40000.0
        rows, seen = _run_pieces([_ev((t0, 1.0), (t0 + 0.5, 2.0 - 5.5e-12))], [t0 + 3.0])
        first, second = rows.resident_changes[0]
        assert first[0] == second[0] == t0 + 1.0
        assert (first[1], first[3], first[4]) == (1.0, 1, False)
        assert (second[3], second[4]) == (2, True)
        assert _digest(seen) == FROZEN_ROWS["far_clock"]

    def test_event_times_must_increase(self):
        with pytest.raises(ConfigurationError):
            FitnessRows([_ev((2.0, 1.0), (1.0, 1.0))]).advance()

    def test_rows_do_not_interact(self):
        # rows of every length, an empty one included, in one lockstep give
        # what each gives alone
        law = contender_params(20.0, parse_distribution("exponential(1)"))
        streams = [sample_contender_stream(law, h, replicate_rng(31, r))
                   for r, h in enumerate((0.3, 6.0, 2.0))]
        streams.insert(1, [])
        _, together = _run_pieces(streams, [1.0, 6.0], check=False)
        alone = [_run_pieces([evs], [1.0, 6.0], check=False)[1][0] for evs in streams]
        assert together == alone
        assert together[1] == [([], 0.0), ([], 0.0)]


@pytest.mark.parametrize("lam, gamma, n_cycles", [
    (1.0, "pointmass(1)", 500),
    # rows read chunks of 4 here, each stream's rows in row order
    (20.0, "exponential(1)", 300),
    # more cycles than rows: finished rows start their stream's next cycles
    (1.0, "mixture(0.5:pointmass(1),0.5:exponential(1))", 1500),
])
@pytest.mark.parametrize("n_streams", [1, 2, 5])
def test_renewal_streams_match_solo_runs(lam, gamma, n_cycles, n_streams):
    # streams in one lockstep give, each, the cycles and arrivals of its solo run
    law = contender_params(lam, parse_distribution(gamma))

    def buffers(seeds):
        return [ArrivalBuffer(law, replicate_rng(77, s)) for s in seeds]

    seeds = range(n_streams)
    lengths, rewards, events = FitnessRows.cycles(buffers(seeds), n_cycles, collect=True)
    assert lengths.size == rewards.size == len(events) == n_streams * n_cycles
    for s in seeds:
        solo = FitnessRows.cycles(buffers([s]), n_cycles, collect=True)
        mine = slice(s * n_cycles, (s + 1) * n_cycles)
        np.testing.assert_array_equal(lengths[mine], solo[0], strict=True)
        np.testing.assert_array_equal(rewards[mine], solo[1], strict=True)
        assert events[mine] == solo[2]


def test_renewal_streams_share_one_law():
    one, two = (contender_params(lam, parse_distribution("pointmass(1)")) for lam in (1.0, 2.0))
    with pytest.raises(ConfigurationError, match="one law"):
        FitnessRows.cycles([ArrivalBuffer(one, 1), ArrivalBuffer(two, 2)], 10)
    with pytest.raises(ConfigurationError, match="at least one"):
        FitnessRows.cycles([], 10)


_LAWS = (
    "pointmass(1)",
    "uniform(1,2)",
    "exponential(1)",
    "pareto(1,0.5)",
    "mixture(0.5:pointmass(1),0.5:exponential(2))",
)
# (rate, horizon, seeds): 5 laws x (16 + 16 + 8) = 200 seeded streams
_RATES = ((1.0, 60.0, 16), (20.0, 6.0, 16), (1000.0, 1.5, 8))


@pytest.mark.parametrize("lam,horizon,n_seeds", _RATES)
@pytest.mark.parametrize("gamma", _LAWS)
def test_skeleton_matches_pit_state(gamma, lam, horizon, n_seeds):
    # the seeds' streams run as the rows of one FitnessRows
    law = contender_params(lam, parse_distribution(gamma))
    streams = [sample_contender_stream(law, horizon, replicate_rng(4242, seed))
               for seed in range(n_seeds)]
    _, seen = _run_pieces(streams, [horizon / 3, horizon])
    assert _digest(seen) == FROZEN_ROWS[f"streams {gamma} {lam}"]


def _one_rng_streams(lam, gamma, horizon, n, rng):
    """``n`` contender streams drawn one after another from ``rng``, as the probes draw them."""
    law = contender_params(lam, parse_distribution(gamma))
    return [sample_contender_stream(law, horizon, rng) for _ in range(n)]


@pytest.mark.parametrize("label, streams, pieces", [
    ("probe pareto", lambda: _one_rng_streams(1.0, "pareto(1,0.5)", 160.0, 40,
                                              replicate_rng(6, 1)), [20.0, 160.0]),
    ("probe uniform50", lambda: _one_rng_streams(50.0, "uniform(1,2)", 1.0, 20,
                                                 replicate_rng(5, 0)), [0.25, 0.5, 1.0]),
    ("probe fclt", lambda: [
        sample_contender_stream(contender_params(1.0, parse_distribution("pointmass(1)")),
                                100.0, replicate_rng(7, r)) for r in range(6)],
     [25.0, 50.0, 75.0, 100.0]),
    ("probe exp20", lambda: _one_rng_streams(20.0, "exponential(1)", 6.0, 10,
                                             replicate_rng(9, 0)), [1.0, 2.0, 3.0, 6.0]),
    ("probe uniform1000", lambda: _one_rng_streams(1000.0, "uniform(1,2)", 1.5, 4,
                                                   replicate_rng(10, 0)), [0.5, 1.0, 1.5]),
], ids=["pareto", "uniform50", "fclt", "exp20", "uniform1000"])
def test_probe_rows_in_pieces_are_frozen(label, streams, pieces):
    # rows shaped like those of the probes and fclt, advanced in pieces
    _, seen = _run_pieces(streams(), pieces)
    assert _digest(seen) == FROZEN_ROWS[label]
