import math
import warnings

import numpy as np
import pytest

from clonepit import (
    ContenderLaw,
    Exponential,
    FitnessRows,
    InputEvent,
    Mixture,
    Pareto,
    PitState,
    PointMass,
    RenewalCycles,
    Uniform,
    classify_fixation,
    contender_params,
    coupled_run,
    detect_renewals,
    fclt_diagnostic,
    heuristic_speed,
    high_mutation_limit,
    high_mutation_probe,
    infinite_mean_probe,
    pointmass_speed,
    sample_contender_stream,
    sample_renewal_cycles,
    speed_estimate,
    sup_distance,
    write_cycles_csv,
)
from clonepit.analysis import MAX_CYCLES
from clonepit.inputs import ARRIVAL_BLOCK
from clonepit.pit import TIME_EPS, ConfigurationError, _fmt
from clonepit.rng import replicate_rng

SIX_EVENTS = (
    InputEvent(1, 1.2, 0.2, True),
    InputEvent(2, 1.4, 1.0, False),
    InputEvent(3, 1.6, 1.0, True),
    InputEvent(4, 2.5, 2.0, True),
    InputEvent(5, 2.9, 1.0, False),
    InputEvent(6, 3.2, 1.6, True),
)


def _events(*pairs):
    """Contender events from ``(time, increment)`` pairs, indexed from 1."""
    return [InputEvent(i + 1, t, a, True) for i, (t, a) in enumerate(pairs)]


class TestRenewalCycles:
    def test_validation(self):
        # a NaN reward passed `reward < 0` and an infinite length `length > 0`
        refused = [
            ([0.0], [1.0]), ([1.0], [-0.1]),
            ([1.0], [math.nan]), ([math.inf], [1.0]),
            ([math.nan], [1.0]), ([1.0], [math.inf]), ([1.0], [-math.inf]),
            ([2.0, -1.0], [1.0, 1.0]), ([1.0, 1.0], [0.5]), ([[1.0]], [[1.0]]),
        ]
        for lengths, rewards in refused:
            with pytest.raises(ConfigurationError):
                RenewalCycles(lengths, rewards)
        # -0.0 >= 0, and a run without a regeneration has no cycles
        assert len(RenewalCycles([1.0], [-0.0])) == 1
        assert len(RenewalCycles([], [])) == 0

    def test_columns_are_read_only_copies(self):
        lengths, rewards = np.array([1.0, 2.0]), np.array([0.5, 1])
        cycles = RenewalCycles(lengths, rewards)
        lengths[0] = -1.0
        assert cycles.lengths.tolist() == [1.0, 2.0]
        assert cycles.rewards.dtype == np.float64 and cycles.rewards.tolist() == [0.5, 1.0]
        with pytest.raises(ValueError):
            cycles.lengths[0] = 3.0

    def test_detect_on_deterministic_run(self):
        st = PitState(events=SIX_EVENTS)
        st.advance()
        times, cycles = detect_renewals(st)
        # only the third change regenerates
        np.testing.assert_allclose(times, [68.0 / 15.0], atol=1e-9)
        (length,), (reward,) = cycles.lengths, cycles.rewards
        assert length == pytest.approx(68.0 / 15.0)
        assert reward == pytest.approx(2.6)

    def test_detect_from_skeleton_matches_state(self):
        # a FitnessRows row and a PitState on one seeded stream give the
        # same cycles (the row's heights take fewer steps, so times and
        # fitness agree to rounding); detect_renewals reads any record with
        # resident_changes and f0
        law = contender_params(20.0, Exponential(1.0))
        evs = sample_contender_stream(law, 40.0, replicate_rng(2718, 0))
        rows, st = FitnessRows([evs]), PitState(events=evs)
        rows.advance(until=40.0)
        st.advance(until=40.0)

        class Row:
            f0 = 0.0
            resident_changes = rows.resident_changes[0]

        (t_sk, rec_sk), (t_st, rec_st) = detect_renewals(Row), detect_renewals(st)
        assert len(rec_sk) == len(rec_st) >= 5
        np.testing.assert_allclose(t_sk, t_st, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            np.column_stack((rec_sk.lengths, rec_sk.rewards)),
            np.column_stack((rec_st.lengths, rec_st.rewards)),
            rtol=1e-12, atol=1e-12,
        )


class TestSpeedEstimate:
    def test_hand_computed(self):
        est = speed_estimate(RenewalCycles([1.0, 2.0], [1.0, 1.0]))
        assert est.v_hat == pytest.approx(2.0 / 3.0)
        assert est.n_cycles == 2
        # residuals are +-1/3, mean square 1/9, mean length 3/2
        assert est.sigma2_hat == pytest.approx((1.0 / 9.0) / 1.5)
        assert est.stderr == pytest.approx(math.sqrt(est.sigma2_hat / 3.0))

    def test_needs_two_cycles(self):
        with pytest.raises(ConfigurationError):
            speed_estimate(RenewalCycles([1.0], [1.0]))

    def test_closed_form_values(self):
        assert pointmass_speed(1.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert pointmass_speed(2.0, 2.0) == pytest.approx(1.6)
        assert pointmass_speed(0.5, 1.0) == pytest.approx(0.2)
        with pytest.raises(ConfigurationError):
            pointmass_speed(0.0, 1.0)


HALF_POINTMASS_EXP = Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))


class TestRenewalSampling:
    def test_driver_matches_single_replay(self):
        # each cycle runs on its own clock from a fresh resident; replaying
        # the arrivals it applied through a PitState, its first solitary
        # change must give that cycle's record, with every arrival applied
        # by then, also where the cycle's row read a new chunk of arrivals
        # mid-cycle
        cases = [  # law, cycles, arrival blocks applied at least
            (contender_params(1.0, PointMass(1.0)), 200, 1),
            (contender_params(20.0, Exponential(1.0)), 150, 4),
            (contender_params(1.0, HALF_POINTMASS_EXP), 800, 4),
            # high rates, where rows read chunks of 64 and of 8: a cycle at
            # lambda = 1000 applies some 4,600 arrivals
            (contender_params(1000.0, Uniform(1.0, 2.0)), 1, 16),
            (ContenderLaw.direct(16.0, Exponential(1.0 / 16.0)), 40, 16),
        ]
        for law, n_cycles, blocks in cases:
            rng = replicate_rng(314, 0)
            cycles, events = sample_renewal_cycles(law, n_cycles, rng, collect_events=True)
            assert len(cycles) == len(events) == n_cycles
            assert sum(map(len, events)) > blocks * ARRIVAL_BLOCK
            for length, reward, evs in zip(cycles.lengths, cycles.rewards, events):
                st = PitState(events=_events(*evs))
                st.advance()
                t, _, fitness, _, _ = next(rc for rc in st.resident_changes if rc[4])
                assert t == pytest.approx(length, rel=1e-12, abs=1e-12)
                assert fitness == pytest.approx(reward, rel=1e-12, abs=1e-12)
                assert evs[-1][0] <= t + TIME_EPS

    def test_arrivals_follow_block_draw_order(self):
        # documented order: ARRIVAL_BLOCK gaps, then ARRIVAL_BLOCK increments,
        # block after block.  Each row reads runs of consecutive pairs of
        # that stream and sums their gaps onto its last arrival time, so a
        # cycle's arrivals are stream pairs in stream order, each one's time
        # its predecessor's plus its own gap, and no pair serves twice.
        # (Exponential increments, so a pair is known by its increment.)
        law = contender_params(1.0, Exponential(1.0))
        _, events = sample_renewal_cycles(law, 400, replicate_rng(5, 0), collect_events=True)
        applied = sum(map(len, events))
        assert applied > 2 * ARRIVAL_BLOCK
        twin = replicate_rng(5, 0)
        gaps, incs = [], []
        while len(gaps) < 4 * applied:
            gaps.extend(twin.exponential(1.0 / law.rate, ARRIVAL_BLOCK))
            incs.extend(law.sample(twin, ARRIVAL_BLOCK))
        where = {a: k for k, a in enumerate(incs)}
        assert len(where) == len(incs)
        used = set()
        for evs in events:
            pos = [where[a] for _, a in evs]
            assert pos == sorted(set(pos)) and not used.intersection(pos)
            used.update(pos)
            for (t0, _), (t1, _), k in zip(evs, evs[1:], pos[1:]):
                assert t1 - t0 == pytest.approx(gaps[k], rel=1e-9, abs=1e-12)
        # the horizon-cut stream reads the arrivals in stream order, summed
        # one by one, so it equals the twin's cumsum cut at the horizon exactly
        times = np.cumsum(gaps)
        horizon = float(times[applied])
        cut = [(e.time, e.increment) for e in
               sample_contender_stream(law, horizon, replicate_rng(5, 0))]
        assert len(cut) == applied > 2 * ARRIVAL_BLOCK
        assert cut == list(zip(times[:applied].tolist(), incs[:applied]))

    def test_frozen_speeds_2000_cycles(self):
        # seeded end-to-end regression of the sampler and the estimator
        cases = {
            (1.0, 1.0): (0.34160532172634944, 0.1455681897437942),
            (2.0, 2.0): (1.597428587799548, 1.1123721122686392),
            (0.5, 1.0): (0.1983537508466898, 0.11905958811669287),
        }
        for (lam, c), (v_want, s2_want) in cases.items():
            law = contender_params(lam, PointMass(c))
            rng = replicate_rng(1, int(lam * 10 + c))
            est = speed_estimate(sample_renewal_cycles(law, 2000, rng))
            assert est.v_hat == pytest.approx(v_want, abs=1e-12)
            assert est.sigma2_hat == pytest.approx(s2_want, abs=1e-12)
            # and the estimate agrees with the closed form at this depth
            assert abs(est.v_hat - pointmass_speed(lam, c)) < 3 * est.stderr

    def test_many_cycles_far_from_origin(self):
        # cycle 10^4 sits at clock ~3e4 where one ulp exceeds the stamp
        # tolerance; this used to stall (see the offset grouping in advance)
        law = contender_params(1.0, PointMass(1.0))
        cycles = sample_renewal_cycles(law, 12000, replicate_rng(1, 11))
        assert len(cycles) == 12000
        v = sum(cycles.rewards.tolist()) / sum(cycles.lengths.tolist())
        assert v == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_cycle_count_validation(self):
        law = contender_params(1.0, PointMass(1.0))
        with pytest.raises(ConfigurationError):
            sample_renewal_cycles(law, 0, replicate_rng(1, 0))

    @pytest.mark.parametrize("n_cycles", [MAX_CYCLES + 1, 1e12, 1e20])
    def test_cycle_count_is_bounded(self, n_cycles):
        # 1e20 used to end in a ValueError from np.empty, 1e12 in a 7 TiB allocation
        law = contender_params(1.0, PointMass(1.0))
        with pytest.raises(ConfigurationError, match=f"at most {MAX_CYCLES}"):
            sample_renewal_cycles(law, n_cycles, replicate_rng(1, 0))

    def test_fractional_cycle_count_is_refused(self):
        # 2.5 used to run 3 cycles
        law = contender_params(1.0, PointMass(1.0))
        with pytest.raises(ConfigurationError, match="n_cycles"):
            sample_renewal_cycles(law, 2.5, replicate_rng(1, 0))
        assert len(sample_renewal_cycles(law, 3.0, replicate_rng(1, 0))) == 3

    def test_list_of_generators_runs_one_stream_each(self):
        # five streams of 1100 cycles run as two locksteps (4 + 1 streams of
        # 1024 rows); each stream's slice, events included, is its solo run
        law = contender_params(1.0, HALF_POINTMASS_EXP)
        n = 1100
        cycles, events = sample_renewal_cycles(
            law, n, [replicate_rng(3, r) for r in range(5)], collect_events=True)
        assert len(cycles) == len(events) == 5 * n
        for r in range(5):
            solo, solo_events = sample_renewal_cycles(law, n, replicate_rng(3, r),
                                                      collect_events=True)
            mine = slice(r * n, (r + 1) * n)
            np.testing.assert_array_equal(cycles.lengths[mine], solo.lengths, strict=True)
            np.testing.assert_array_equal(cycles.rewards[mine], solo.rewards, strict=True)
            assert events[mine] == solo_events

    @pytest.mark.parametrize("rng", [[], [replicate_rng(1, 0), 7],
                                     [np.random.SeedSequence(1), replicate_rng(1, 1)],
                                     [1, 2, 3]],
                             ids=["empty", "generator-and-int", "seedsequence-and-generator",
                                  "ints"])
    def test_stream_lists_hold_only_generators(self, rng):
        # a list always means one stream per Generator, also a list of ints
        law = contender_params(1.0, PointMass(1.0))
        with pytest.raises(ConfigurationError, match="Generators"):
            sample_renewal_cycles(law, 10, rng)

    def test_cycle_count_is_bounded_over_all_streams(self):
        # each stream alone is within the bound; together they are refused
        # before a single draw
        law = contender_params(1.0, PointMass(1.0))
        gens = [replicate_rng(1, 0), replicate_rng(1, 1)]
        before = [g.bit_generator.state for g in gens]
        with pytest.raises(ConfigurationError, match=f"at most {MAX_CYCLES}, got 2 x {MAX_CYCLES}"):
            sample_renewal_cycles(law, MAX_CYCLES, gens)
        assert [g.bit_generator.state for g in gens] == before

    def test_more_cycles_than_rows(self):
        # rows start new cycles as they finish: exactly n_cycles records, each
        # with the arrivals it applied, the same on a rerun
        law = contender_params(1.0, HALF_POINTMASS_EXP)
        cycles, events = sample_renewal_cycles(law, 1200, replicate_rng(8, 0),
                                               collect_events=True)
        assert len(cycles) == 1200 and all(evs for evs in events)
        again = sample_renewal_cycles(law, 1200, replicate_rng(8, 0))
        np.testing.assert_array_equal(again.lengths, cycles.lengths, strict=True)
        np.testing.assert_array_equal(again.rewards, cycles.rewards, strict=True)


class TestHeuristics:
    def test_pointmass_closed_forms(self):
        # rate 1/2, unit increments: plain prediction rate * 1, refined
        # multiplies in exp(-rate) for the rise window
        law = contender_params(1.0, PointMass(1.0))
        assert heuristic_speed(law) == pytest.approx(0.5, abs=1e-12)
        assert heuristic_speed(law, refined=True) == pytest.approx(
            0.5 * math.exp(-0.5), abs=1e-12
        )

    def test_explicit_law_frozen_values(self):
        cases = {
            0.5: (0.9140348452093602, 0.8826833582051329),
            1.0: (0.7769641701394739, 0.7103266785362379),
            2.0: (0.5598865523143484, 0.4708958596907183),
        }
        for rate, (plain, refined) in cases.items():
            law = ContenderLaw.direct(rate, Exponential(1.0 / rate))
            assert heuristic_speed(law) == pytest.approx(plain, abs=1e-9)
            assert heuristic_speed(law, refined=True) == pytest.approx(refined, abs=1e-9)
            assert heuristic_speed(law, refined=True) < heuristic_speed(law)

    def test_pareto_frozen_values(self):
        # finite-mean Pareto laws, whose quadratures run to the end of the
        # u = a / (1 + a) range
        cases = {
            (1.0, 1.5): (4.948957552321619, 4.813262248229147),
            (1.0, 2.5): (2.343765839381849, 2.1984567761547904),
            (3.0, 1.5): (13.6092278658714, 12.828667146705309),
            (3.0, 2.5): (5.928346740689814, 5.135963063629823),
        }
        for (lam, alpha), (plain, refined) in cases.items():
            law = contender_params(lam, Pareto(2.0, alpha))
            assert heuristic_speed(law) == plain
            assert heuristic_speed(law, refined=True) == refined

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_infinite_mean_is_refused(self, lam, refined):
        # the speed is infinite; this used to end in a ZeroDivisionError
        # from the quadrature
        law = contender_params(lam, Pareto(2.0, 0.5))
        with pytest.raises(ConfigurationError, match=r"finite mean, got pareto\(2.0,0.5\)"):
            heuristic_speed(law, refined=refined)
        with pytest.raises(ConfigurationError, match="finite mean"):
            heuristic_speed(ContenderLaw.direct(lam, Pareto(2.0, 0.5)), refined=refined)


class TestFixationClassification:
    def test_deterministic_replay_sets(self):
        st = PitState(events=SIX_EVENTS)
        st.advance()
        rep = classify_fixation(st)
        assert rep.resident_ids == {3, 4, 6}
        assert rep.solitary_ids == {6}
        assert rep.ancestral_ids == {3, 6}
        assert rep.lattice_holds()
        assert not rep.flags[2].contender
        assert rep.flags[4].resident and not rep.flags[4].ancestral


class TestDistances:
    def test_sup_distance_zero_on_identical(self):
        grid = np.linspace(0.0, 1.0, 11)
        a = {0: np.ones(11), 1: np.linspace(0, 1, 11)}
        assert sup_distance(a, {k: v.copy() for k, v in a.items()}, grid) == 0.0

    def test_sup_distance_reads_largest_gap(self):
        grid = np.linspace(0.0, 1.0, 5)
        a = {0: np.zeros(5)}
        b = {0: np.array([0.0, 0.1, 0.4, 0.1, 0.0])}
        assert sup_distance(a, b, grid) == pytest.approx(0.4)


class TestFcltDiagnostic:
    def test_linear_paths_standardize_to_zero(self):
        paths = [lambda ts: 0.5 * ts for _ in range(3)]
        diag = fclt_diagnostic(paths, 200.0, [0.5, 1.0], 0.5, 1.0)
        np.testing.assert_allclose(diag.samples, 0.0, atol=1e-12)
        np.testing.assert_allclose(diag.variance, 0.0, atol=1e-12)
        assert not diag.low_scale

    def test_spread_paths_have_unit_scaling(self):
        # two paths straddling the mean by +-sqrt(sigma2 * scale) at t=1
        scale, sigma2 = 400.0, 2.0
        dev = math.sqrt(sigma2 * scale)
        paths = [
            lambda ts: 0.0 * ts + dev * (ts / scale),
            lambda ts: 0.0 * ts - dev * (ts / scale),
        ]
        diag = fclt_diagnostic(paths, scale, [1.0], 0.0, sigma2)
        np.testing.assert_allclose(diag.samples[:, 0], [1.0, -1.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fclt_diagnostic([lambda ts: ts], 200.0, [1.0], 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            fclt_diagnostic([lambda ts: ts] * 2, -1.0, [1.0], 0.0, 1.0)
        assert fclt_diagnostic([lambda ts: ts] * 2, 50.0, [1.0], 1.0, 1.0).low_scale


class TestHighMutationProbe:
    def test_limit_value(self):
        # sup of Uniform(1,2) increments is 2: b(ceil(bt) - 1) at t=1 is 2
        assert high_mutation_limit(2.0, 1.0) == 2.0
        assert high_mutation_limit(1.5, 2.0) == pytest.approx(1.5 * 2.0)

    def test_probe_reports_fractions(self):
        res = high_mutation_probe(
            Uniform(1.0, 2.0), 1.0, [50.0], 20, replicate_rng(5, 0)
        )
        assert res.limit == 2.0
        assert set(res.values) == {50.0}
        assert res.values[50.0].shape == (20,)
        assert 0.0 <= res.fraction_within[50.0] <= 1.0
        assert res.median_error[50.0] >= 0.0

    @pytest.mark.parametrize("replicates", [0, -1, 2.5])
    def test_replicate_count_is_checked(self, replicates):
        # 0 used to give NaN fractions and a RuntimeWarning, -1 numpy's
        # "negative dimensions" ValueError
        with pytest.raises(ConfigurationError, match="replicates"):
            high_mutation_probe(Uniform(1.0, 2.0), 1.0, [50.0], replicates, replicate_rng(5, 0))


class TestInfiniteMeanProbe:
    def test_warns_on_finite_mean_law(self):
        with pytest.warns(UserWarning):
            infinite_mean_probe(1.0, Uniform(1.0, 2.0), [5.0], 3, replicate_rng(6, 0))

    def test_heavy_tail_medians_grow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = infinite_mean_probe(
                1.0, Pareto(1.0, 0.5), [20.0, 160.0], 40, replicate_rng(6, 1)
            )
        assert set(out) == {20.0, 160.0}
        assert out[160.0] > out[20.0] > 0.0

    @pytest.mark.parametrize("replicates", [0, -1, 2.5])
    def test_replicate_count_is_checked(self, replicates):
        # 0 used to give NaN medians and a RuntimeWarning
        with pytest.raises(ConfigurationError, match="replicates"):
            infinite_mean_probe(1.0, Pareto(1.0, 0.5), [5.0], replicates, replicate_rng(6, 0))


class TestCoupledRun:
    def test_shapes_and_flags(self):
        res = coupled_run(300, _events((0.4, 1.0), (0.9, 1.5)), 2.0, replicate_rng(8, 0))
        assert res.n == 300
        assert set(res.flags) == {1, 2}
        assert 0.0 <= res.distance <= 1.0
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(2.0)

    def test_schedule_indices_are_checked_before_the_population_runs(self):
        # used to run the whole population and fail only in the PitState replay
        schedule = [InputEvent(3, 0.5, 1.0, True), InputEvent(2, 1.0, 1.0, True)]
        with pytest.raises(ConfigurationError, match="index 2 must exceed 3") as caught:
            coupled_run(10_000, schedule, 3.0, 1)
        assert caught.traceback[-1].name == "moran_init"


def test_write_cycles_csv(tmp_path):
    cycles = RenewalCycles([1.0, 2.0], [0.5, 1.5])
    out = tmp_path / "cycles.csv"
    write_cycles_csv(cycles, out, "deadbeef00000000")
    lines = out.read_text().strip().splitlines()
    assert "deadbeef00000000" in lines[0]
    assert len(lines) == 4
    assert lines[1] == "length,reward"
    assert lines[2] == "1,0.5"


def test_write_cycles_csv_cells_are_fmt_text(tmp_path):
    # every cell is _fmt's .17g text of its value, which reads back exactly
    lengths = [0.1, 1e16, 1e-7, 5e-324, 2.0**53 + 2, 3.0, 1.0 / 3.0]
    rewards = [2.0, 0.0, 7.0, -0.0, 1e-7, 2.0**53 + 2, 0.1]
    out = tmp_path / "cycles.csv"
    write_cycles_csv(RenewalCycles(lengths, rewards), out)
    header, *rows = out.read_text().splitlines()
    assert header == "length,reward"
    assert rows == [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(lengths, rewards)]
    assert rows[3] == "4.9406564584124654e-324,-0"
    assert rows[4] == "9007199254740994,9.9999999999999995e-08"
    back = [tuple(map(float, row.split(","))) for row in rows]
    assert back == list(zip(lengths, rewards))
    write_cycles_csv(RenewalCycles([], []), out, "deadbeef00000000")
    assert out.read_text() == "# scenario=deadbeef00000000\nlength,reward\n"
