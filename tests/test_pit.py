import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from clonepit import (
    FitnessSkeleton,
    InputEvent,
    PiecewisePath,
    PitState,
    StepPath,
    contender_params,
    parse_distribution,
    sample_contender_stream,
    write_event_csv,
    write_trajectories_jsonl,
)
from clonepit.pit import ConfigurationError, InvariantViolation
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

    def test_plain_tuple_events_accepted(self):
        # (time, slope) pairs are treated as contenders with that increment
        st = PitState(events=[(1.2, 0.2), (1.6, 1.0), (2.5, 2.0), (3.2, 1.6)])
        st.advance()
        times = [rc[0] for rc in st.resident_changes]
        np.testing.assert_allclose(times, [2.6, 3.4, 68.0 / 15.0], atol=1e-9)


class TestStartConfigurationReplay:
    def test_two_changes_at_quarter_and_one(self):
        st = PitState(start=[(0.1, 1.5), (0.3, 1.0), (0.8, 0.8), (1.0, 0.0)])
        st.advance()
        times = [rc[0] for rc in st.resident_changes]
        np.testing.assert_allclose(times, [0.25, 1.0], atol=1e-9)
        assert [rc[4] for rc in st.resident_changes] == [False, True]

    def test_simultaneous_hits_highest_slope_wins(self):
        # both starters reach the top at t=0.5; the steeper one takes over
        # and the other is kinked below zero slope and falls back
        st = PitState(start=[(0.5, 1.0), (0.75, 0.5), (1.0, 0.0)])
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


class TestValidation:
    def test_needs_exactly_one_resident_start(self):
        with pytest.raises(ConfigurationError):
            PitState(start=[(0.5, 1.0)])
        with pytest.raises(ConfigurationError):
            PitState(start=[(1.0, 0.0), (1.0, 0.0), (0.5, 1.0)])

    def test_start_entries_must_be_distinct(self):
        with pytest.raises(ConfigurationError):
            PitState(start=[(0.5, 1.0), (0.5, 1.0), (1.0, 0.0)])

    def test_heights_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            PitState(start=[(1.5, 1.0), (1.0, 0.0)])

    def test_event_times_must_increase(self):
        st = PitState(events=[(2.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            st.advance()


@pytest.mark.parametrize("engine", [PitState, FitnessSkeleton])
class TestAdvanceRunsForward:
    def test_until_below_clock_is_refused(self, engine):
        st = engine(events=[(0.1, 1.0), (0.5, 2.0)])
        st.advance(until=0.3)
        with pytest.raises(ConfigurationError, match="until"):
            st.advance(until=0.2)
        assert st.clock == 0.3
        st.advance(until=0.3)
        st.advance(until=0.6)
        assert st.clock == 0.6
        if engine is PitState:
            # rewinding the clock without the heights used to leave 0.6 here
            assert st.height(1) == pytest.approx(0.5)
            assert st.height(2) == pytest.approx(0.2)

    def test_nan_until_is_refused(self, engine):
        st = engine(events=[(0.1, 1.0), (0.5, 2.0)])
        with pytest.raises(ConfigurationError, match="nan"):
            st.advance(until=math.nan)
        # nothing ran: a NaN bound used to let every event through
        assert st.clock == 0.0
        assert st.pending_immigration[0] == 0.1


class TestEventOrdering:
    def test_hit_applies_before_same_stamp_arrival(self):
        # a change and an arrival share the stamp t=0.5; the arrival must
        # land after the kink, keeping its full slope
        st = PitState(
            start=[(0.5, 1.0), (1.0, 0.0)],
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
        st = PitState(events=[(t0, 1.0)])
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
        st = PitState(events=evs)
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

    def test_trajectories_jsonl_is_json_dumps(self, tmp_path):
        # np.float64 times and increments, an np.int64 index, negative start
        # ids, None parents, and latent, extinct, flat and resident types
        st = PitState(
            start=[(1.0, 0.0), (0.5, -1.0), (0.25, 0.0)],
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
    st = PitState(start=[
        (1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, tiny), (1.0, -1.0), (1.0, -tiny),
        (0.5, 0.0), (0.5, tiny), (0.5, -tiny), (0.3, 1e-300), (0.7, -1e300),
        (1e-300, -1.0), (1.0 - 2**-53, 3.0), (0.25, -0.0),
    ])
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
    st = _CheckedOffsets(start=start, events=_random_events(seed, 40, lam=4.0))
    st.advance()
    assert st.resident_changes


def test_negative_zero_slope_is_flat():
    # (2 - h)/-0.0 is -inf: a flat slot stored with that sign would be
    # picked as the next hit at clock -inf and stall advance
    st = PitState(start=[(1.0, 0.0), (0.5, -0.0)], events=[(0.4, 1.0)])
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
    return evs


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
    st = PitState(events=_random_events(seed, 40))
    st.advance(stop_after_solitary=True)
    if not st.resident_changes:
        return
    assert st.resident_changes[-1][4]
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


def _assert_same_changes(skel, ref):
    """Same counts, winners and solitary flags; times, v* and fitness to 1e-12 relative."""
    got, want = skel.resident_changes, ref.resident_changes
    assert len(got) == len(want)
    assert [rc[3:] for rc in got] == [rc[3:] for rc in want]
    if want:
        np.testing.assert_allclose(
            [rc[:3] for rc in got], [rc[:3] for rc in want], rtol=1e-12, atol=0.0
        )


class TestFitnessSkeleton:
    def test_six_event_replay(self):
        sk = FitnessSkeleton(events=SIX_EVENTS)
        sk.advance()
        times = [rc[0] for rc in sk.resident_changes]
        np.testing.assert_allclose(times, [2.6, 3.4, 68.0 / 15.0], atol=1e-9)
        np.testing.assert_allclose([rc[2] for rc in sk.resident_changes], [1.0, 2.0, 2.6],
                                   atol=1e-9)
        assert [rc[3] for rc in sk.resident_changes] == [3, 4, 6]
        assert [rc[4] for rc in sk.resident_changes] == [False, False, True]
        assert sk.fitness == pytest.approx(2.6)
        assert sk.resident_fitness_path()(4.0) == pytest.approx(2.0)
        _assert_same_changes(sk, run_six_events())

    def test_equal_slope_hitters_smaller_id_wins(self):
        # two unit slopes born 5e-13 apart hit within the stamp tolerance
        evs = [InputEvent(1, 1.0, 1.0, True), InputEvent(2, 1.0 + 5e-13, 1.0, True)]
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(until=5.0)
        ref.advance(until=5.0)
        (t, v_star, fit, winner, solitary), = sk.resident_changes
        assert winner == 1 and solitary
        assert t == pytest.approx(2.0) and v_star == 1.0 and fit == 1.0
        _assert_same_changes(sk, ref)
        # the tied loser stays at (1, 0) beside the resident, with its fitness
        assert ref.height(2) == 1.0 and ref.slope(2) == 0.0
        ref.check_invariants()

    def test_hits_within_stamp_tolerance_form_one_change(self):
        # arrival 2 is fitter and reaches the top 5e-13 after arrival 1: one
        # change, won by the steeper hitter, which kinks arrival 1 to -1
        evs = [(1.0, 1.0), (1.5 + 5e-13, 2.0)]
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(until=5.0)
        ref.advance(until=5.0)
        (t, v_star, fit, winner, solitary), = sk.resident_changes
        assert (v_star, fit, winner, solitary) == (2.0, 2.0, 2, True)
        assert t == pytest.approx(2.0)
        _assert_same_changes(sk, ref)

    def test_arrival_on_hit_timestamp_keeps_full_slope(self):
        # the change at t=2 comes first, so the arrival stamped t=2 rises at
        # its full slope 0.5 and takes over at t=4; kinked, it would never rise
        evs = [(1.0, 1.0), (2.0, 0.5), (10.0, 3.0)]
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(until=5.0)
        ref.advance(until=5.0)
        assert [(rc[0], rc[2], rc[3]) for rc in sk.resident_changes] == [
            (2.0, 1.0, 1), (4.0, 1.5, 2)
        ]
        _assert_same_changes(sk, ref)

        stop = FitnessSkeleton(events=evs)
        stop.advance(stop_after_solitary=True)
        assert stop.clock == 2.0 and len(stop.resident_changes) == 1
        assert stop.pending_immigration == (10.0, 3.0, 3.0, 3)

    def test_riser_rounded_to_the_top_hits_next(self):
        # After the change at t=1, arrivals 2 and 3 rise at slopes ~1e-5 and
        # 2e-5.  Arrival 3 reaches the top 1.3e-12 after arrival 2, too late
        # to join its hit, but the step to that hit rounds its height up to
        # exactly 1.  Still rising after the kink, it must take over next,
        # at the same clock.  (Found by bisection on arrival 3's time.)
        evs = [(0.0, 1.0), (0.001, 1.0000100000000132), (0.0019999799977576363, 1.00002)]
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(until=300.0)
        ref.advance(until=300.0)
        assert [(rc[3], rc[4]) for rc in sk.resident_changes] == [
            (1, False), (2, False), (3, True)
        ]
        assert sk.resident_changes[1][0] == sk.resident_changes[2][0]
        assert sk.fitness == pytest.approx(1.00002, rel=1e-12)
        _assert_same_changes(sk, ref)

    def test_far_clock_hit_rounded_onto_the_clock(self):
        # At clock 4e4 one ulp exceeds the stamp tolerance: the second
        # arrival's hit, ~5e-12 after the first's, lands on the same clock
        t0 = 40000.0
        evs = [(t0, 1.0), (t0 + 0.5, 2.0 - 5.5e-12)]
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(until=t0 + 3.0)
        ref.advance(until=t0 + 3.0)
        first, second = sk.resident_changes
        assert first[0] == second[0] == t0 + 1.0
        assert (first[1], first[3], first[4]) == (1.0, 1, False)
        assert (second[3], second[4]) == (2, True)
        _assert_same_changes(sk, ref)

    def test_event_times_must_increase(self):
        sk = FitnessSkeleton(events=[(2.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            sk.advance()


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
    law = contender_params(lam, parse_distribution(gamma))
    for seed in range(n_seeds):
        evs = sample_contender_stream(law, horizon, replicate_rng(4242, seed))
        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        for until in (horizon / 3, horizon):
            sk.advance(until=until)
            ref.advance(until=until)
            assert sk.clock == ref.clock == until
            np.testing.assert_allclose(sk.fitness, ref.fitness, rtol=1e-12, atol=0.0)
            _assert_same_changes(sk, ref)

        sk, ref = FitnessSkeleton(events=evs), PitState(events=evs)
        sk.advance(stop_after_solitary=True)
        ref.advance(stop_after_solitary=True)
        _assert_same_changes(sk, ref)
        np.testing.assert_allclose(sk.clock, ref.clock, rtol=1e-12, atol=0.0)
        assert sk.pending_immigration == ref.pending_immigration
