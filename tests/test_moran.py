import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from clonepit import (
    ContenderLaw,
    Exponential,
    LogFrequencyTrace,
    MAX_GRID_SAMPLES,
    MAX_POPULATION,
    MoranResult,
    InputEvent,
    PointMass,
    gamblers_ruin,
    gw_level_probability,
    gw_survival_formula,
    moran_init,
    moran_run,
    sample_contender_stream,
    write_trace_csv,
)
from clonepit import moran
from clonepit.pit import ConfigurationError, _fmt
from clonepit.rng import UNIFORM_BLOCK, replicate_rng, uniform_draws


def _free_schedule(lam, gamma, horizon, rng, first):
    """A free mutation rate as ``moran-run`` draws it: the stream of rate
    ``lam`` and increments from ``gamma`` on ``[0, horizon)``, ids from ``first``."""
    stream = sample_contender_stream(ContenderLaw(lam, gamma), horizon, rng)
    return [InputEvent(i, ev.time, ev.increment, True) for i, ev in enumerate(stream, first)]


class TestInit:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            moran_init(1, [1], [0.0])
        with pytest.raises(ConfigurationError):
            moran_init(10, [5, 5], [0.0])
        with pytest.raises(ConfigurationError):
            moran_init(10, [4, 5], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            moran_init(10, [-1, 11], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            moran_init(10, [5, 5], [0.0, 1.0], schedule=[InputEvent(1, 0.5, 1.0, True)])
        # scheduled indices become type ids, so each may appear once
        with pytest.raises(ConfigurationError):
            moran_init(
                10, [10], [0.0],
                schedule=[InputEvent(1, 0.5, 1.0, True), InputEvent(1, 0.7, 1.0, True)],
            )

    def test_schedule_indices_strictly_increase(self):
        # the rule PitState and FitnessRows hold for the same records
        with pytest.raises(ConfigurationError, match="index 2 must exceed 3"):
            moran_init(10, [10], [0.0], schedule=[InputEvent(3, 0.5, 1.0, True),
                                                  InputEvent(2, 0.7, 1.0, True)])

    def test_population_is_bounded_at_2_to_the_53(self):
        # counts are floats: above 2**53 a +-1 step can round away unseen
        assert MAX_POPULATION == 2**53
        st = moran_init(2**53, [2**53 - 1, 1], [0.0, 1.0])
        assert st.live_types() == {0: 2**53 - 1, 1: 1}
        with pytest.raises(ConfigurationError, match=r"at most 2\*\*53"):
            moran_init(2**53 + 1, [2**53, 1], [0.0, 1.0])

    def test_schedule_holds_input_events(self):
        with pytest.raises(ConfigurationError, match="InputEvent"):
            moran_init(10, [10], [0.0], schedule=[(0.5, 1.0)])


class TestRuns:
    def test_counts_are_conserved(self):
        st = moran_init(200, [150, 50], [0.0, 0.5])
        res = moran_run(st, 1.0, np.random.default_rng(0))
        assert sum(res.state.counts) == 200
        assert res.n_events > 0

    def test_no_events_once_homogeneous(self):
        # with one type left and no mutation source the total rate is zero,
        # so a generous horizon costs nothing
        st = moran_init(100, [99, 1], [0.0, 1.0])
        res = moran_run(st, 500.0, np.random.default_rng(7), trace=False)
        assert len(res.state.counts) == 1

    def test_trace_grid_and_heights(self):
        st = moran_init(1000, [900, 100], [0.0, 1.0])
        res = moran_run(st, 1.0, np.random.default_rng(1), grid_step=0.25)
        tr = res.trace
        np.testing.assert_allclose(tr.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert set(tr.heights) == {0, 1}
        # height of a type holding k individuals is log(1+k)/log N
        assert tr.heights[1][0] == pytest.approx(math.log(101) / math.log(1000))
        for h in tr.heights.values():
            assert np.all((h >= 0.0) & (h <= 1.0))

    def test_horizon_positive(self):
        st = moran_init(50, [50], [0.0])
        with pytest.raises(ConfigurationError):
            moran_run(st, 0.0, np.random.default_rng(3))
        for horizon in (-1.0, math.nan):
            with pytest.raises(ConfigurationError, match="horizon"):
                moran_run(st, horizon, np.random.default_rng(3))

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_grid_step_must_be_finite_and_positive(self, step):
        st = moran_init(50, [50], [0.0])
        with pytest.raises(ConfigurationError, match="grid_step"):
            moran_run(st, 1.0, np.random.default_rng(3), grid_step=step)

    @pytest.mark.parametrize("horizon, step", [(1.0, 1e-15), (1e10, 1e-5), (1.0, 5e-324)])
    def test_grid_is_bounded(self, horizon, step):
        # 1e15 points or more; the grid was allocated unchecked
        st = moran_init(50, [40, 10], [0.0, 1.0])
        with pytest.raises(ConfigurationError, match=f"more than {MAX_GRID_SAMPLES}"):
            moran_run(st, horizon, np.random.default_rng(3), grid_step=step)
        # without a trace no grid is built
        st = moran_init(50, [40, 10], [0.0, 1.0])
        res = moran_run(st, 1.0, np.random.default_rng(3), grid_step=step, trace=False)
        assert res.trace is None


class TestSchedule:
    def test_scheduled_mutation_creates_type(self):
        st = moran_init(500, [500], [0.0], schedule=[InputEvent(1, 0.5, 1.0, True)])
        res = moran_run(st, 3.0, np.random.default_rng(5))
        assert 1 in res.trace.heights
        born = res.trace.heights[1]
        # absent before t=0.5 on the grid, present right after birth
        grid = res.trace.times
        assert born[grid < 0.5].max() == 0.0
        (ind,) = res.indicators
        assert ind.index == 1 and ind.born == pytest.approx(0.5)

    def test_indicator_eval_time_offset(self):
        st = moran_init(500, [500], [0.0], schedule=[InputEvent(1, 0.5, 1.0, True)])
        res = moran_run(st, 3.0, np.random.default_rng(6))
        (ind,) = res.indicators
        assert ind.eval_time == pytest.approx(0.5 + 1.0 / math.sqrt(math.log(500)))

    def test_indicator_flag_is_count_at_least_log_n(self):
        # the check reads the count 1/sqrt(log N) after birth and flags it
        # when it is at least log N = 6.2
        flags = set()
        for r in range(40):
            st = moran_init(500, [499, 1], [0.0, 1.0])
            res = moran_run(st, 2.0, replicate_rng(8, r), initial_indicators=True, trace=False)
            (ind,) = res.indicators
            assert ind.eval_time == pytest.approx(1.0 / math.sqrt(math.log(500)))
            assert ind.flag == (ind.count >= math.log(500))
            flags.add((ind.flag, ind.count > 0))
        # flagged, alive under the threshold and extinct runs all occur
        assert flags == {(True, True), (False, True), (False, False)}


class TestSelection:
    def test_single_advantageous_mutant_sweep_frequency(self):
        # survival of the (1+s)-biased line from one copy: s/(1+s) = 1/2.
        # 148 of these 300 seeded runs fix, within MC error of that.
        fixed = 0
        reps = 300
        for r in range(reps):
            st = moran_init(100, [99, 1], [0.0, 1.0])
            res = moran_run(st, 60.0, replicate_rng(42, r), trace=False)
            fixed += res.state.live_types().get(1, 0) == 100
        assert fixed == 148
        p = gw_survival_formula(2.0, 1.0)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(fixed / reps - p) < 3.5 * se

    def test_single_mutant_contender_frequency(self):
        # the mutant line behaves like a birth-death process with rates
        # (1+a, 1) until the indicator check log N individuals later;
        # the geometric tail of that process puts the flag near 0.41
        hits = 0
        reps = 600
        for r in range(reps):
            st = moran_init(1000, [999, 1], [0.0, 1.0])
            res = moran_run(
                st, 0.45, replicate_rng(7, r), trace=False, initial_indicators=True
            )
            (ind,) = res.indicators
            hits += ind.flag
        assert hits == 265
        n = 1000
        ref = gw_level_probability(2.0, 1.0, math.sqrt(math.log(n)), math.ceil(math.log(n)))
        assert abs(hits / reps - ref) < 0.08

    def test_contender_flag_master_equation(self):
        # P(flag) of one s = 1 mutant at N = 1e5 from the two-type count
        # chain itself: on the rescaled clock the mutant count x goes up at
        # x (N - x) (1 + s) log N / N and down at x (N - x) log N / N.  The
        # chain is cut at an absorbing cap; a path that reaches the cap is
        # counted as flagged, which is wrong only if it later falls back
        # below the level, and the embedded walk (up with probability
        # (1 + s) / (2 + s)) does that with probability at most
        # gamblers_ruin(level, cap, 2, 1).
        n, s = 100_000, 1.0
        log_n = math.log(n)
        t_off = 1.0 / math.sqrt(log_n)
        level = math.ceil(log_n)
        cap = level + 60
        gen = np.zeros((cap + 1, cap + 1))
        for x in range(1, cap):
            up = x * (n - x) * (1.0 + s) * log_n / n
            down = x * (n - x) * log_n / n
            gen[x, x + 1] = up
            gen[x, x - 1] = down
            gen[x, x] = -(up + down)
        dist = expm(gen * t_off)[1]
        p_chain = float(dist[level:].sum())
        assert gamblers_ruin(level, cap, 2.0, 1.0) < 1e-15
        p_bd = gw_level_probability(2.0, 1.0, math.sqrt(log_n), level)
        assert p_chain == pytest.approx(0.42070, abs=1e-5)
        assert abs(p_chain - p_bd) < 1e-4


def _two_type_generator(n, s):
    """Generator of the count z of the fitter type (fitness gap s) on 0..n."""
    c = math.log(n) / n
    gen = np.zeros((n + 1, n + 1))
    for z in range(1, n):
        up = z * (n - z) * (1.0 + s) * c
        down = z * (n - z) * c
        gen[z, z + 1] = up
        gen[z, z - 1] = down
        gen[z, z] = -(up + down)
    return gen


def _compositions(n, k):
    """Count vectors of ``k`` types summing to ``n``, first count slowest."""
    if k == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n + 1) for rest in _compositions(n - a, k - 1)]


def _k_type_generator(n, fitness):
    """States (the count vectors summing to ``n``) and the generator of the
    ``k``-type count chain, ``k = len(fitness)``: ``j`` replaces an
    individual of ``l`` at ``x_j * x_l * (1 + (m_j - m_l)^+) * log(N) / N``."""
    k = len(fitness)
    states = _compositions(n, k)
    where = {s: i for i, s in enumerate(states)}
    c = math.log(n) / n
    gen = np.zeros((len(states), len(states)))
    for s, i in where.items():
        for j in range(k):
            for l in range(k):
                if j != l and s[j] and s[l]:
                    rate = s[j] * s[l] * (1.0 + max(fitness[j] - fitness[l], 0.0)) * c
                    to = list(s)
                    to[j] += 1
                    to[l] -= 1
                    gen[i, where[tuple(to)]] += rate
                    gen[i, i] -= rate
    return states, where, gen


def _counts_at(where, start, fitness, t, reps, seed):
    """Counts over the states indexed by ``where`` of ``reps`` seeded runs
    from ``start`` to ``t``."""
    seen = np.zeros(len(where))
    for r in range(reps):
        st = moran_init(sum(start), start, fitness)
        res = moran_run(st, t, replicate_rng(seed, r), trace=False)
        live = res.state.live_types()
        seen[where[tuple(live.get(tid, 0) for tid in range(len(fitness)))]] += 1
    return seen


def _chi2_pvalue(seen, exact):
    """Chi-square p over the states with an expected count of at least 5,
    the rest pooled."""
    from scipy.stats import chi2

    big = exact >= 5.0
    obs = np.append(seen[big], seen[~big].sum())
    exp_ = np.append(exact[big], exact[~big].sum())
    stat = float(((obs - exp_) ** 2 / exp_).sum())
    return chi2.sf(stat, obs.size - 1)


class TestThreeTypeLoop:
    @pytest.mark.parametrize("fitness, seed", [((0.0, 0.7, 1.5), 2020), ((0.0, 1.0, 1.0), 2121)])
    def test_counts_match_master_equation(self, fitness, seed):
        # N = 20 from (10, 6, 4): the counts at t = 0.6 must follow the row
        # of expm(G t) of the three-type chain.  A type dies before t in
        # about 36% (27% with the tie) of the runs, so the per-event loop
        # also hands over to the two-type walker.  Chi-square over the
        # states with an expected count of at least 5, the rest pooled,
        # p > 1e-3 (the seeds are fixed).
        n, start, t, reps = 20, (10, 6, 4), 0.6, 4000
        states, where, gen = _k_type_generator(n, fitness)
        exact = reps * expm(gen * t)[where[start]]
        seen = _counts_at(where, start, fitness, t, reps, seed)
        handed_over = sum(seen[i] for i, s in enumerate(states) if 0 in s)
        assert 0.2 * reps < handed_over < 0.5 * reps
        assert _chi2_pvalue(seen, exact) > 1e-3


class TestFourTypeLoop:
    def test_counts_match_master_equation(self):
        # N = 12 from (3, 3, 3, 3) at t = 0.5 over the 455 states of the
        # four-type chain: a type dies before t in about 83% of the runs,
        # and at most two are left in about 40%, where the loop has handed
        # over to the two-type walker.  Same chi-square as above (the seed
        # is fixed).
        n, start, fitness, t, reps = 12, (3, 3, 3, 3), (0.0, 0.5, 1.0, 2.0), 0.5, 10_000
        states, where, gen = _k_type_generator(n, fitness)
        assert len(states) == 455
        exact = reps * expm(gen * t)[where[start]]
        seen = _counts_at(where, start, fitness, t, reps, 2424)
        died = sum(seen[i] for i, s in enumerate(states) if 0 in s)
        walked = sum(seen[i] for i, s in enumerate(states) if np.count_nonzero(s) <= 2)
        assert 0.75 * reps < died < 0.9 * reps
        assert 0.3 * reps < walked < 0.5 * reps
        assert _chi2_pvalue(seen, exact) > 1e-3


class TestTwoTypeWalk:
    """Exact oracles and edge cases of the two-type block walk."""

    def test_count_distribution_matches_master_equation(self):
        # N = 30, three s = 1 mutants: the count at t = 0.3 is read off the
        # trace grid inside a stretch (searchsorted on the walk blocks) and
        # the count at t = 0.6 from the final state; both must follow
        # expm(G t) of the two-type chain.  Chi-square over bins with an
        # expected count of at least 20, p > 1e-3 (the seed is fixed).
        from scipy.stats import chi2

        n, start, reps = 30, 3, 5000
        gen = _two_type_generator(n, 1.0)
        mid = np.zeros(n + 1)
        end = np.zeros(n + 1)
        for r in range(reps):
            st = moran_init(n, [n - start, start], [0.0, 1.0])
            res = moran_run(st, 0.6, replicate_rng(3030, r), grid_step=0.3)
            assert res.trace.times[1] == 0.3
            mid[int(res.trace.counts[1][1])] += 1
            end[res.state.live_types().get(1, 0)] += 1
        for t, seen in ((0.3, mid), (0.6, end)):
            exact = reps * expm(gen * t)[start]
            obs, exp_ = [], []
            acc_o = acc_e = 0.0
            for o, e in zip(seen, exact):
                acc_o += o
                acc_e += e
                if acc_e >= 20.0:
                    obs.append(acc_o)
                    exp_.append(acc_e)
                    acc_o = acc_e = 0.0
            obs[-1] += acc_o
            exp_[-1] += acc_e
            stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp_))
            assert chi2.sf(stat, len(obs) - 1) > 1e-3, (t, stat, len(obs))

    def test_fixation_probability_closed_form(self):
        # one mutant with s = 0.1 in N = 15 fixes with probability
        # (1 - (1+s)^-1) / (1 - (1+s)^-N) = 0.1195, well away from the
        # branching limit s / (1 + s) = 0.0909
        n, s, reps = 15, 0.1, 8000
        exact = (1.0 - (1.0 + s) ** -1) / (1.0 - (1.0 + s) ** -n)
        fixed = 0
        for r in range(reps):
            st = moran_init(n, [n - 1, 1], [0.0, s])
            res = moran_run(st, math.inf, replicate_rng(1515, r), trace=False)
            assert res.state.clock < math.inf and len(res.state.ids) == 1
            fixed += res.state.live_types().get(1, 0) == n
        se = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(fixed / reps - exact) < 3.5 * se
        assert abs(fixed / reps - s / (1.0 + s)) > 3.5 * se

    def test_neutral_fixation(self):
        # s = 0: the walk is symmetric and i of N copies fix with probability i / N
        n, start, reps = 12, 3, 4000
        fixed = 0
        for r in range(reps):
            st = moran_init(n, [n - start, start], [0.5, 0.5])
            res = moran_run(st, math.inf, replicate_rng(1212, r), trace=False)
            fixed += res.state.live_types().get(1, 0) == n
        p = start / n
        assert abs(fixed / reps - p) < 3.5 * math.sqrt(p * (1.0 - p) / reps)

    def test_scheduled_mutation_hands_over_to_three_types(self):
        n = 1000
        st = moran_init(n, [600, 400], [0.0, 0.5], schedule=[InputEvent(2, 0.2, 1.0, True)])
        res = moran_run(st, 0.5, np.random.default_rng(20), grid_step=0.05)
        tr = res.trace
        born = st.type_birth[2]
        assert born == 0.2
        assert st.type_fitness[2] in (1.0, 1.5)
        # the mutation row sits right after the grid point at 0.2
        rows = np.flatnonzero(tr.times == 0.2)
        assert rows.size == 2
        before, after = rows
        assert tr.counts[2][before] == 0.0 and tr.counts[2][after] == 1.0
        lost = [tid for tid in (0, 1) if tr.counts[tid][after] == tr.counts[tid][before] - 1]
        assert len(lost) == 1
        assert st.type_fitness[2] == st.type_fitness[lost[0]] + 1.0
        total = sum(tr.counts[tid] for tid in tr.counts)
        np.testing.assert_array_equal(total, n)
        assert tr.times[-1] == 0.5 and st.clock == 0.5
        assert len(st.ids) == 3 and res.n_events == st.events
        assert st.sched_pos == 1 and res.n_events > 1

    def test_extinction_before_the_indicator_check(self):
        # a mutant at a fitness disadvantage of 3 in N = 200 dies before its
        # check at t = 1/sqrt(log N) = 0.43 in all but about 5 in 10,000 runs,
        # so the check reads count 0
        for r in range(10):
            st = moran_init(200, [199, 1], [3.0, 0.0])
            res = moran_run(
                st, 3.0, replicate_rng(200, r), grid_step=0.5, initial_indicators=True,
            )
            (ind,) = res.indicators
            assert ind.eval_time == 1.0 / math.sqrt(math.log(200))
            assert ind.count == 0 and not ind.flag
            assert st.ids == [0]
            row = np.flatnonzero(res.trace.times == ind.eval_time)
            assert row.size and np.all(res.trace.counts[1][row] == 0.0)

    def test_indicator_inside_a_stretch_reads_the_walk(self):
        # the check falls inside the two-type stretch; the indicator and the
        # trace row at the check agree, and the flag is count >= log N
        flagged = 0
        for r in range(20):
            st = moran_init(1000, [999, 1], [0.0, 1.0])
            res = moran_run(st, 0.5, replicate_rng(1000, r), grid_step=0.1,
                            initial_indicators=True)
            (ind,) = res.indicators
            (row,) = np.flatnonzero(res.trace.times == ind.eval_time)
            assert ind.count == res.trace.counts[1][row]
            assert ind.flag == (ind.count >= math.log(1000))
            flagged += ind.flag
        assert 0 < flagged < 20

    def test_horizon_inside_a_block(self):
        # at N = 1e4 from 5000 / 5000 the stretch makes about 69 steps by
        # t = 1e-3, so the horizon cuts the first or second block; each step
        # moves the count by one, and the step count is Poisson(69.08)
        n, horizon, reps = 10_000, 1e-3, 300
        rate = 3.0 * 5000 * 5000 * math.log(n) / n
        steps = []
        for r in range(reps):
            st = moran_init(n, [5000, 5000], [0.0, 1.0])
            res = moran_run(st, horizon, replicate_rng(10, r), trace=False)
            assert st.clock == horizon and len(st.ids) == 2
            assert sum(st.counts) == n and res.n_events == st.events
            moved = st.live_types().get(1, 0) - 5000
            assert abs(moved) <= res.n_events and (res.n_events - moved) % 2 == 0
            steps.append(res.n_events)
        mean = rate * horizon
        assert abs(np.mean(steps) - mean) < 4.0 * math.sqrt(mean / reps)

    def test_free_mutation_cuts_a_stretch(self):
        # a free rate is a rate-lam schedule drawn before the walk starts,
        # so the number of mutations by t = 1 is Poisson(2); the first one
        # cuts the two-type stretch short
        reps, lam = 400, 2.0
        muts = []
        for r in range(reps):
            rng = replicate_rng(400, r)
            st = moran_init(200, [100, 100], [0.0, 1.0],
                            schedule=_free_schedule(lam, PointMass(0.5), 1.0, rng, 2))
            res = moran_run(st, 1.0, rng, trace=False)
            assert res.n_events == st.events and sum(st.counts) == 200
            assert st.sched_pos == len(st.schedule)
            for tid in range(2, 2 + st.sched_pos):
                assert 0.0 < st.type_birth[tid] <= 1.0
                assert st.type_fitness[tid] - 0.5 in (0.0, 1.0, 0.5, 1.5, 2.0, 2.5)
            muts.append(st.sched_pos)
        assert abs(np.mean(muts) - lam) < 4.0 * math.sqrt(lam / reps)
        assert abs(np.mean(np.equal(muts, 0)) - math.exp(-lam)) < 0.05


class TestFreeMutation:
    def test_births_are_uniform_and_increments_follow_gamma(self):
        # given their number, the mutation times on [0, horizon) are i.i.d.
        # uniform, each one founds its type, and each mutant's increment is
        # a draw of gamma
        births, incs = [], []
        for r in range(300):
            rng = replicate_rng(77, r)
            st = moran_init(50, [25, 25], [0.0, 1.0],
                            schedule=_free_schedule(2.0, Exponential(1.0), 1.5, rng, 2))
            moran_run(st, 1.5, rng, trace=False)
            assert st.sched_pos == len(st.schedule)
            for ev in st.schedule:
                assert st.type_birth[ev.index] == ev.time
                births.append(ev.time / 1.5)
                incs.append(ev.increment)
        assert len(births) > 700
        assert kstest(births, "uniform").pvalue > 1e-3
        assert kstest(incs, "expon").pvalue > 1e-3


def test_uniform_buffer_draws_lazily():
    rng = np.random.default_rng(5)
    nextu = uniform_draws(rng)
    # nothing is drawn before the first call
    assert rng.random() == np.random.default_rng(5).random()
    ref = np.random.default_rng(5)
    ref.random()
    # two blocks, read across the edge: one stream in order, as Python floats
    expected = ref.random(2 * UNIFORM_BLOCK)
    got = [nextu() for _ in range(2 * UNIFORM_BLOCK)]
    assert all(type(u) is float for u in got)
    assert got == expected.tolist()


def _reference_trace_csv(result, path, scenario_hash=None):
    """The per-cell trace writer, kept as the reference for the fast one."""
    tr = result.trace
    lines = []
    if scenario_hash:
        lines.append(f"# scenario={scenario_hash}")
    lines.append("time,type_id,count,H,mean_fitness")
    order = sorted(tr.heights)
    for row, t in enumerate(tr.times):
        for tid in order:
            c = tr.counts[tid][row]
            if c > 0.0:
                lines.append(
                    f"{_fmt(float(t))},{tid},{int(c)},"
                    f"{_fmt(float(tr.heights[tid][row]))},{_fmt(float(tr.mean_fitness[row]))}"
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_trace_csv_exact_bytes(tmp_path):
    # repeated rows, a type that dies and one born later, and a mean
    # fitness of -0.0 next to 0.0
    counts = {
        0: np.array([3.0, 3.0, 2.0, 2.0, 0.0]),
        1: np.array([1.0, 1.0, 1.0, 1.0, 3.0]),
        2: np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
    }
    log_n = math.log(4)
    trace = LogFrequencyTrace(
        np.array([0.0, 0.25, 0.5, 0.5, 1.0]),
        {tid: np.log1p(c) / log_n for tid, c in counts.items()},
        np.array([0.0, -0.0, 0.25, 0.25, 0.5]),
        counts,
    )
    res = MoranResult(None, trace, [], 0)
    out = tmp_path / "trace.csv"
    write_trace_csv(res, out, "feed")
    assert out.read_bytes() == (
        b"# scenario=feed\n"
        b"time,type_id,count,H,mean_fitness\n"
        b"0,0,3,1,0\n"
        b"0,1,1,0.5,0\n"
        b"0.25,0,3,1,-0\n"
        b"0.25,1,1,0.5,-0\n"
        b"0.5,0,2,0.79248125036057815,0.25\n"
        b"0.5,1,1,0.5,0.25\n"
        b"0.5,2,1,0.5,0.25\n"
        b"0.5,0,2,0.79248125036057815,0.25\n"
        b"0.5,1,1,0.5,0.25\n"
        b"0.5,2,1,0.5,0.25\n"
        b"1,1,3,1,0.5\n"
        b"1,2,1,0.5,0.5\n"
    )
    ref = tmp_path / "ref.csv"
    _reference_trace_csv(res, ref, "feed")
    assert ref.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_write_trace_csv_matches_reference(tmp_path, seed):
    # one command's writes: two runs without mutations share their sample
    # times, two free-mutation runs sample at their own mutation and check
    # times, and a last run is back on the bare grid
    rng = np.random.default_rng(seed)

    def run(free):
        schedule = _free_schedule(3.0, Exponential(1.0), 2.0, rng, 2) if free else ()
        return moran_run(moran_init(300, [200, 100], [0.0, 0.5], schedule=schedule), 2.0, rng,
                         grid_step=0.05)

    results = [run(free) for free in (False, False, True, True, False)]
    for res in results[2:4]:
        assert len(res.trace.heights) > 2
        # both kinds of event happened: mutations and resamplings
        assert 0 < res.state.sched_pos < res.n_events
    moran._time_texts.cache_clear()
    earlier = None
    for r, res in enumerate(results):
        misses = moran._time_texts.cache_info().misses
        write_trace_csv(res, tmp_path / f"new{r}.csv", "ab")
        # the times are formatted again exactly when their bits change
        same = earlier == res.trace.times.tobytes()
        formatted = moran._time_texts.cache_info().misses - misses
        assert formatted == (not same) == (r != 1)
        earlier = res.trace.times.tobytes()
        _reference_trace_csv(res, tmp_path / f"ref{r}.csv", "ab")
        assert (tmp_path / f"new{r}.csv").read_bytes() == (tmp_path / f"ref{r}.csv").read_bytes()


def test_long_trace_leaves_the_time_texts_cache_alone(tmp_path, monkeypatch):
    # the moran-fixation grid (horizon 40, step 0.01) stays cached
    assert 4001 <= moran._TIME_TEXTS_CACHED
    monkeypatch.setattr(moran, "_TIME_TEXTS_CACHED", 30)
    rng = np.random.default_rng(12)
    short, long = (moran_run(moran_init(300, [200, 100], [0.0, 0.5]), h, rng, grid_step=0.05)
                   for h in (1.0, 2.0))
    assert short.trace.times.size <= 30 < long.trace.times.size
    moran._time_texts.cache_clear()
    write_trace_csv(short, tmp_path / "short.csv", "ab")
    kept = moran._time_texts.cache_info()
    write_trace_csv(long, tmp_path / "long.csv", "ab")
    assert moran._time_texts.cache_info() == kept
    _reference_trace_csv(long, tmp_path / "ref.csv", "ab")
    assert (tmp_path / "long.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the short grid's texts are still the ones kept
    write_trace_csv(short, tmp_path / "again.csv", "ab")
    assert moran._time_texts.cache_info().hits == kept.hits + 1


def test_write_trace_csv_needs_a_trace(tmp_path):
    st = moran_init(50, [40, 10], [0.0, 1.0])
    res = moran_run(st, 1.0, np.random.default_rng(4), trace=False)
    with pytest.raises(ConfigurationError, match="no trace"):
        write_trace_csv(res, tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()


def test_write_trace_csv(tmp_path):
    st = moran_init(200, [150, 50], [0.0, 1.0])
    res = moran_run(st, 1.0, np.random.default_rng(9), grid_step=0.5)
    out = tmp_path / "trace.csv"
    write_trace_csv(res, out, "0123456789abcdef")
    lines = out.read_text().strip().splitlines()
    assert "0123456789abcdef" in lines[0]
    assert lines[1] == "time,type_id,count,H,mean_fitness"
    # long format: one row per grid time and live type
    assert len(lines) - 2 >= len(res.trace.times)
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "150"
