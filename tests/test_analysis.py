import math
import warnings

import numpy as np
import pytest

from clonepit import (
    ContenderLaw,
    Exponential,
    FitnessSkeleton,
    InputEvent,
    Mixture,
    Pareto,
    PitState,
    PointMass,
    RenewalRecord,
    StepPath,
    Uniform,
    classify_fixation,
    contender_params,
    coupled_run,
    detect_renewals,
    fclt_diagnostic,
    glh_speed,
    graph_distance,
    heuristic_speed,
    high_mutation_limit,
    high_mutation_probe,
    infinite_mean_probe,
    pointmass_speed,
    rgl_retention,
    rglh_misprediction_fixture,
    rglh_speed,
    sample_contender_stream,
    sample_renewal_cycles,
    speed_estimate,
    sup_distance,
    write_cycles_csv,
)
from clonepit.inputs import ARRIVAL_BLOCK
from clonepit.pit import ConfigurationError
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


class TestRenewalRecords:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RenewalRecord(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            RenewalRecord(1.0, -0.1)

    def test_detect_on_deterministic_run(self):
        st = PitState(events=SIX_EVENTS)
        st.advance()
        times, records = detect_renewals(st)
        # only the third change regenerates
        np.testing.assert_allclose(times, [68.0 / 15.0], atol=1e-9)
        (rec,) = records
        assert rec.length == pytest.approx(68.0 / 15.0)
        assert rec.reward == pytest.approx(2.6)

    def test_detect_from_skeleton_matches_state(self):
        # both engines carry resident_changes and f0; on one seeded stream
        # they give the same cycles (the skeleton's heights take fewer
        # steps, so times and fitness agree to rounding)
        law = contender_params(20.0, Exponential(1.0))
        evs = sample_contender_stream(law, 40.0, replicate_rng(2718, 0))
        found = []
        for engine in (FitnessSkeleton(events=evs), PitState(events=evs)):
            engine.advance(until=40.0)
            found.append(detect_renewals(engine))
        (t_sk, rec_sk), (t_st, rec_st) = found
        assert len(rec_sk) == len(rec_st) >= 5
        np.testing.assert_allclose(t_sk, t_st, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            [(r.length, r.reward) for r in rec_sk],
            [(r.length, r.reward) for r in rec_st],
            rtol=1e-12, atol=1e-12,
        )


class TestSpeedEstimate:
    def test_hand_computed(self):
        est = speed_estimate([RenewalRecord(1.0, 1.0), RenewalRecord(2.0, 1.0)])
        assert est.v_hat == pytest.approx(2.0 / 3.0)
        assert est.n_cycles == 2
        # residuals are +-1/3, mean square 1/9, mean length 3/2
        assert est.sigma2_hat == pytest.approx((1.0 / 9.0) / 1.5)
        assert est.stderr == pytest.approx(math.sqrt(est.sigma2_hat / 3.0))

    def test_needs_two_cycles(self):
        with pytest.raises(ConfigurationError):
            speed_estimate([RenewalRecord(1.0, 1.0)])

    def test_closed_form_values(self):
        assert pointmass_speed(1.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert pointmass_speed(2.0, 2.0) == pytest.approx(1.6)
        assert pointmass_speed(0.5, 1.0) == pytest.approx(0.2)
        with pytest.raises(ConfigurationError):
            pointmass_speed(0.0, 1.0)


HALF_POINTMASS_EXP = Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))


class TestRenewalSampling:
    def test_driver_matches_single_replay(self):
        # the cycle driver restarts the clock each regeneration; replaying
        # the same arrivals through one long run must give the same cycles,
        # also where a cycle's arrivals straddle the edge of an arrival block
        cases = [  # lam, gamma, cycles, arrival blocks consumed at least
            (1.0, PointMass(1.0), 200, 1),
            (20.0, Exponential(1.0), 150, 4),
            (1.0, HALF_POINTMASS_EXP, 800, 4),
        ]
        for lam, gamma, n_cycles, blocks in cases:
            law = contender_params(lam, gamma)
            rng = replicate_rng(314, 0)
            records, events = sample_renewal_cycles(law, n_cycles, rng, collect_events=True)
            assert len(events) > blocks * ARRIVAL_BLOCK
            st = PitState(events=[(t, a) for t, a in events])
            st.advance()
            times, replay = detect_renewals(st)
            assert len(replay) >= len(records)
            lengths = np.cumsum([r.length for r in records])
            np.testing.assert_allclose(times[: len(records)], lengths, atol=1e-9)
            for mine, theirs in zip(records, replay):
                assert mine.length == pytest.approx(theirs.length, abs=1e-9)
                assert mine.reward == pytest.approx(theirs.reward, abs=1e-9)

    def test_arrivals_follow_block_draw_order(self):
        # documented order: ARRIVAL_BLOCK gaps, then ARRIVAL_BLOCK increments,
        # block after block, read across cycles with nothing skipped
        law = contender_params(1.0, HALF_POINTMASS_EXP)
        _, first = sample_renewal_cycles(law, 1, replicate_rng(5, 0), collect_events=True)
        _, events = sample_renewal_cycles(law, 400, replicate_rng(5, 0), collect_events=True)
        twin = replicate_rng(5, 0)
        gaps, incs = [], []
        while len(gaps) < len(events):
            gaps.extend(twin.exponential(1.0 / law.rate, ARRIVAL_BLOCK))
            incs.extend(law.sample(twin, ARRIVAL_BLOCK))
        times = np.cumsum(gaps)
        # the first cycle's arrivals, the one drawn past its end included
        assert first == list(zip(times[: len(first)].tolist(), incs[: len(first)]))
        assert len(events) > 2 * ARRIVAL_BLOCK
        assert [a for _, a in events] == incs[: len(events)]
        np.testing.assert_allclose([t for t, _ in events], times[: len(events)],
                                   rtol=1e-12)
        # the horizon-cut stream reads the same arrivals, summed in the same
        # order, so it equals the twin's cumsum cut at the horizon exactly
        horizon = float(times[-1])
        cut = [(e.time, e.increment) for e in
               sample_contender_stream(law, horizon, replicate_rng(5, 0))]
        assert len(cut) == len(times) - 1 > 2 * ARRIVAL_BLOCK
        assert cut == list(zip(times[:-1].tolist(), incs[:-1]))
        assert cut[: len(first)] == first

    def test_frozen_speeds_2000_cycles(self):
        # seeded end-to-end regression of the sampler and the estimator
        cases = {
            (1.0, 1.0): (0.3397947501228962, 0.1479729801011183),
            (2.0, 2.0): (1.5990506184332118, 1.0956186876501088),
            (0.5, 1.0): (0.19928534800264566, 0.12224983934545613),
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
        records = sample_renewal_cycles(law, 12000, replicate_rng(1, 11))
        assert len(records) == 12000
        v = sum(r.reward for r in records) / sum(r.length for r in records)
        assert v == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_cycle_count_validation(self):
        law = contender_params(1.0, PointMass(1.0))
        with pytest.raises(ConfigurationError):
            sample_renewal_cycles(law, 0, replicate_rng(1, 0))


class TestHeuristics:
    def test_pointmass_closed_forms(self):
        # rate 1/2, unit increments: plain prediction rate * 1, refined
        # multiplies in exp(-rate) for the rise window
        assert glh_speed(1.0, PointMass(1.0)) == pytest.approx(0.5, abs=1e-12)
        assert rglh_speed(1.0, PointMass(1.0)) == pytest.approx(
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


class TestRetentionRule:
    def test_lone_event_is_kept(self):
        assert rgl_retention(_events((1.0, 1.0))) == {1}

    def test_shadowed_by_earlier_riser(self):
        # second arrives while a weakly fitter first is still rising
        assert rgl_retention(_events((1.0, 2.0), (1.2, 1.0))) == {1}

    def test_discarded_when_fitter_future_arrival(self):
        assert rgl_retention(_events((1.0, 1.0), (1.5, 2.0))) == {2}

    def test_disjoint_rises_all_kept(self):
        assert rgl_retention(_events((1.0, 1.0), (5.0, 1.0))) == {1, 2}

    def test_accepts_input_events(self):
        evs = [InputEvent(3, 1.0, 2.0, True), InputEvent(9, 1.2, 1.0, True)]
        assert rgl_retention(evs) == {3}

    def test_misprediction_fixture(self):
        fx = rglh_misprediction_fixture()
        assert rgl_retention(fx.events) == set(fx.retained) == {2}
        st = PitState(events=fx.events)
        st.advance()
        assert st.fitness == pytest.approx(fx.final_fitness) == pytest.approx(1.8)
        # each type holds residency in turn, yet the rule keeps only the
        # middle one, whose increment never shows up in the final fitness
        winners = [rc[3] for rc in st.resident_changes]
        assert winners == [1, 2, 3]
        assert st.fitness == pytest.approx(1.0 + 0.8)


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

    def test_graph_distance_identical_steps(self):
        sp = StepPath([0.0, 1.0, 2.0], [0.0, 1.0, 2.5])
        assert graph_distance(sp, sp) == pytest.approx(0.0, abs=1e-9)

    def test_graph_distance_tolerates_time_shift(self):
        # nearby jump times only cost the shift, not the jump height
        a = StepPath([0.0, 1.0], [0.0, 1.0])
        b = StepPath([0.0, 1.05], [0.0, 1.0])
        d = graph_distance(a, b)
        assert d == pytest.approx(0.05, abs=0.01)
        assert graph_distance(b, a) == pytest.approx(d, abs=1e-6)


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


class TestCoupledRun:
    def test_shapes_and_flags(self):
        res = coupled_run(300, _events((0.4, 1.0), (0.9, 1.5)), 2.0, replicate_rng(8, 0))
        assert res.n == 300
        assert set(res.flags) == {1, 2}
        assert 0.0 <= res.distance <= 1.0
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(2.0)


def test_write_cycles_csv(tmp_path):
    recs = [RenewalRecord(1.0, 0.5), RenewalRecord(2.0, 1.5)]
    out = tmp_path / "cycles.csv"
    write_cycles_csv(recs, out, "deadbeef00000000")
    lines = out.read_text().strip().splitlines()
    assert "deadbeef00000000" in lines[0]
    assert len(lines) == 4
    assert lines[1] == "length,reward"
    assert lines[2] == "1,0.5"
