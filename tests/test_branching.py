import itertools
import math

import numpy as np
import pytest

from clonepit import (
    GwParams,
    gamblers_ruin,
    gw_level_probability,
    gw_run,
    gw_survival_formula,
)
from clonepit.branching import _jump_chain
from clonepit.pit import ConfigurationError


class TestFormulas:
    def test_survival_values(self):
        assert gw_survival_formula(2.0, 1.0) == pytest.approx(0.5)
        assert gw_survival_formula(2.0, 1.0, initial=2) == pytest.approx(0.75)
        assert gw_survival_formula(1.5, 0.5, initial=2) == pytest.approx(8.0 / 9.0)
        assert gw_survival_formula(1.0, 0.0) == 1.0

    def test_survival_rejects_subcritical(self):
        with pytest.raises(ConfigurationError):
            gw_survival_formula(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            gw_survival_formula(0.5, 1.0)

    def test_downcrossing_number(self):
        # supercritical: chance a walk at the goal ever falls back to start
        assert gamblers_ruin(1, 100, 2.0, 1.0) == pytest.approx(0.5 ** 99)
        assert gamblers_ruin(5, 10, 4.0, 1.0) == pytest.approx(0.25 ** 5)
        # critical and subcritical: the start/goal upper bound
        assert gamblers_ruin(5, 10, 1.0, 1.0) == 0.5
        assert gamblers_ruin(2, 8, 1.0, 2.0) == 0.25

    def test_downcrossing_validation(self):
        with pytest.raises(ConfigurationError):
            gamblers_ruin(10, 10, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            gamblers_ruin(0, 10, 2.0, 1.0)


class TestLevelProbability:
    def test_yule(self):
        # pure birth from one individual: Z_t is geometric with ratio 1 - e^{-bt}
        for b, t, level in [(1.0, 1.0, 1), (2.0, 0.7, 5), (0.5, 3.0, 40)]:
            expect = (1.0 - math.exp(-b * t)) ** (level - 1)
            assert gw_level_probability(b, 0.0, t, level) == pytest.approx(expect, rel=1e-12)

    def test_level_one_is_survival_to_t(self):
        for b, d, t in [(2.0, 1.0, 0.5), (1.0, 3.0, 2.0), (4.0, 0.5, 0.1)]:
            grow = math.exp((b - d) * t)
            expect = (b - d) * grow / (b * grow - d)
            assert gw_level_probability(b, d, t, 1) == pytest.approx(expect, rel=1e-12)
        assert gw_level_probability(1.5, 1.5, 2.0, 1) == pytest.approx(1.0 / 4.0)
        assert gw_level_probability(0.0, 2.0, 1.5, 1) == pytest.approx(math.exp(-3.0))
        assert gw_level_probability(0.0, 2.0, 1.5, 2) == 0.0

    def test_long_time_limit_is_survival(self):
        for b, d in [(2.0, 1.0), (3.0, 0.5), (1.0, 0.0)]:
            for level in (1, 5, 50):
                assert gw_level_probability(b, d, 200.0, level) == pytest.approx(
                    gw_survival_formula(b, d), rel=1e-12
                )

    def test_tail_sums_to_mean(self):
        # E[Z_t] = sum_{level >= 1} P(Z_t >= level) = e^{(b - d) t}
        for b, d, t in [(2.0, 1.0, 1.0), (1.0, 2.0, 0.8), (1.0, 1.0, 0.5)]:
            total = sum(gw_level_probability(b, d, t, lv) for lv in range(1, 400))
            assert total == pytest.approx(math.exp((b - d) * t), rel=1e-10)

    def test_continuous_across_critical(self):
        at = gw_level_probability(1.0, 1.0, 2.0, 3)
        assert at == pytest.approx(4.0 / 27.0)
        for eps in (1e-6, 1e-9, 1e-12):
            for b in (1.0 + eps, 1.0 - eps):
                assert gw_level_probability(b, 1.0, 2.0, 3) == pytest.approx(at, rel=10 * eps)

    def test_contender_flag_value(self):
        # the Moran contender check at N = 1e5 (rates 2 and 1 per generation,
        # sqrt(log N) generations, count >= ceil(log N) = 12)
        n = 100_000
        p = gw_level_probability(2.0, 1.0, math.sqrt(math.log(n)), math.ceil(math.log(n)))
        assert p == pytest.approx(0.420709, abs=1e-6)

    def test_validation(self):
        for args in [
            (-1.0, 1.0, 1.0, 1),
            (0.0, 0.0, 1.0, 1),
            (2.0, 1.0, -0.1, 1),
            (2.0, 1.0, math.inf, 1),
            (2.0, 1.0, math.nan, 1),
            (2.0, 1.0, 1.0, 0),
            (2.0, 1.0, 1.0, 2.5),
        ]:
            with pytest.raises(ConfigurationError):
                gw_level_probability(*args)


class TestParams:
    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            GwParams(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            GwParams(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            GwParams(1.0, 1.0, initial=0)

    @pytest.mark.parametrize("initial", [math.nan, math.inf, 1.5, -2.0])
    def test_rejects_non_integer_initial(self, initial):
        with pytest.raises(ConfigurationError, match="initial"):
            GwParams(2.0, 1.0, initial)

    def test_integral_float_initial_is_an_int(self):
        params = GwParams(2.0, 1.0, 2.0)
        assert type(params.initial) is int and params == GwParams(2.0, 1.0, 2)
        options = {"cap": 3000, "levels": (5, 50)}
        assert gw_run(params, 31, **options) == gw_run(GwParams(2.0, 1.0, 2), 31, **options)


class TestRuns:
    def test_pure_death_goes_extinct(self):
        run = gw_run(GwParams(0.0, 1.0, initial=3), np.random.default_rng(1))
        assert run.extinct and not run.escaped
        assert run.final_value == 0
        assert run.extinction_time is not None and run.extinction_time > 0
        assert run.max_level == 3

    def test_pure_birth_escapes_cap(self):
        run = gw_run(GwParams(1.0, 0.0), np.random.default_rng(2), cap=500)
        assert run.escaped and not run.extinct
        assert run.final_value >= 500

    def test_horizon_stops_early(self):
        run = gw_run(GwParams(1.0, 1.0, initial=5), np.random.default_rng(3), horizon=0.01)
        assert run.clock <= 0.01 + 1e-12
        assert not run.escaped

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            gw_run(GwParams(2.0, 1.0), np.random.default_rng(3), horizon=horizon)

    def test_level_times_increase(self):
        run = gw_run(
            GwParams(2.0, 1.0), np.random.default_rng(4), cap=2000, levels=(10, 100, 1000)
        )
        if run.escaped:
            ts = [run.level_times[lv] for lv in (10, 100, 1000)]
            assert ts == sorted(ts)
            assert all(t > 0 for t in ts)

    def test_level_above_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            gw_run(GwParams(2.0, 1.0), np.random.default_rng(5), cap=100, levels=(200,))

    def test_survival_frequency_matches_formula(self):
        # the cap stands in for survival: restarting from there, extinction
        # has probability (d/b)^cap, which is negligible at cap=1000
        params = GwParams(2.0, 1.0)
        rng = np.random.default_rng(6)
        reps = 3000
        survived = sum(not gw_run(params, rng, cap=1000).extinct for _ in range(reps))
        p = gw_survival_formula(2.0, 1.0)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(survived / reps - p) < 3.5 * se

    def test_yule_mean_growth(self):
        # E[Z(t)] = exp(b t) for a pure birth process from one individual
        rng = np.random.default_rng(7)
        reps, t = 2000, 1.0
        total = sum(
            gw_run(GwParams(1.0, 0.0), rng, horizon=t, cap=100000).final_value
            for _ in range(reps)
        )
        mean = total / reps
        # Z(t) is geometric with mean e, so se = sqrt(e(e-1)/reps)
        se = math.sqrt(math.e * (math.e - 1.0) / reps)
        assert abs(mean - math.e) < 4 * se

    def test_passage_time_scales_like_log_level(self):
        # conditioned on reaching the level, T_L / log L approaches
        # 1 / (birth - death)
        params = GwParams(2.0, 1.0)
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(400):
            run = gw_run(params, rng, cap=600, levels=(500,))
            if 500 in run.level_times:
                ratios.append(run.level_times[500] / math.log(500))
        assert len(ratios) > 100
        med = float(np.median(ratios))
        assert abs(med - 1.0 / (params.birth - params.death)) < 0.12


# gw_run records of seeded runs: (birth, death, initial), seed, options,
# then (extinct, escaped, extinction_time, final_value, max_level, clock,
# level_times).  Frozen before the block walk moved into the shared walker
# that the Moran engine also runs on; the draw order did not change, so
# every field must stay equal.
FROZEN_GW_RUNS = [
    ((2.0, 1.0, 1), 11, {},
     (False, True, None, 10000000, 10000000, 14.568633445037168, {})),
    ((2.0, 1.0, 1), 12, {"cap": 5000, "levels": (3, 10, 100, 5000)},
     (False, True, None, 5000, 5000, 9.841515850138546,
      {3: 0.722367632107837, 10: 1.6531285259191737, 100: 5.7315145793793985,
       5000: 9.841515850138546})),
    ((1.0, 1.0, 3), 13, {"horizon": 2.5, "levels": (5, 8)},
     (True, False, 0.7324175659016139, 0, 3, 0.7324175659016139, {})),
    ((1.0, 2.0, 10), 14, {"levels": (12,)},
     (True, False, 0.7723457733524939, 0, 10, 0.7723457733524939, {})),
    ((3.0, 0.5, 2), 15, {"horizon": 0.7, "cap": 10**6},
     (False, False, None, 16, 16, 0.7, {})),
    ((1.5, 1.0, 1), 16, {"horizon": 40.0, "cap": 200000, "levels": (50, 1000, 100000)},
     (True, False, 3.3264628137388392, 0, 5, 3.3264628137388392, {})),
    ((2.0, 0.0, 1), 17, {"horizon": 1.3},
     (False, False, None, 9, 9, 1.3, {})),
    ((0.0, 1.0, 4), 18, {},
     (True, False, 2.0798430428323367, 0, 4, 2.0798430428323367, {})),
    ((2.0, 1.0, 1), 22, {"horizon": 6.0, "cap": 100_000, "levels": (2, 20, 200)},
     (False, False, None, 1803, 1803, 6.0,
      {2: 0.27562536856552405, 20: 1.7604152047647654, 200: 3.834174984995621})),
    ((2.0, 1.0, 1), 23, {"horizon": 6.0, "cap": 100_000, "levels": (2, 20, 200)},
     (True, False, 0.15590060201054648, 0, 1, 0.15590060201054648, {})),
    ((2.0, 1.0, 1), 24, {"horizon": 6.0, "cap": 100_000, "levels": (2, 20, 200)},
     (False, False, None, 243, 249, 6.0,
      {2: 0.6758860468446639, 20: 3.103169729966582, 200: 5.565568729277055})),
    # absorbed on the last step of the first block (step 64): at the cap,
    # and at 0
    ((1.0, 1.0, 4), 51, {"cap": 12},
     (False, True, None, 12, 12, 5.168469812388319, {})),
    ((1.0, 1.0, 4), 533, {"cap": 100, "levels": (6,)},
     (True, False, 6.974062659276127, 0, 9, 6.974062659276127, {6: 0.579515331915201})),
]


@pytest.mark.parametrize("rates, seed, options, expected", FROZEN_GW_RUNS)
def test_gw_run_matches_frozen_records(rates, seed, options, expected):
    birth, death, initial = rates
    run = gw_run(GwParams(birth, death, initial), seed, **options)
    got = (run.extinct, run.escaped, run.extinction_time, run.final_value,
           run.max_level, run.clock, run.level_times)
    assert got == expected


def _reference_jump_chain(z, t, rng, p_up, hold_rate, top, t_stop):
    """The block walker as it was before its passes were cut down, kept as
    the reference for :func:`_jump_chain`: steps as ``np.where`` of +-1,
    holds from ``rng.exponential``, times over the whole block, and a full
    scan for absorption and for the horizon in every block."""
    block = 64
    while True:
        steps = np.where(rng.random(block) < p_up, 1, -1)
        path = z + np.cumsum(steps)
        holds = rng.exponential(size=block)
        prev = np.empty(block, dtype=np.int64)
        prev[0] = z
        prev[1:] = path[:-1]
        # entries past an absorption are garbage (the rate at an absorbing
        # state is 0); they are cut off below before anything reads them
        with np.errstate(divide="ignore", invalid="ignore"):
            times = t + np.cumsum(holds / hold_rate(prev))

        stop = block
        hit = np.flatnonzero((path == 0) | (path >= top))
        if hit.size:
            stop = hit[0] + 1
        over = np.flatnonzero(times[:stop] > t_stop)
        if over.size:
            h = over[0]
            if h:
                yield path[:h], times[:h]
            return
        yield path[:stop], times[:stop]
        if hit.size:
            return
        z = int(path[-1])
        t = float(times[-1])
        block = min(block * 4, 16384)


class TestJumpChainReference:
    """Every block of the walker equals the reference's, bit for bit."""

    # (z, top, p_up): next to 0, next to the top, and far from both so that
    # the 16384-step blocks skip the absorption scan; the last two are
    # absorbed on the last step of the first block
    STARTS = [
        (1, 100_000, 2 / 3),
        (2, 50, 0.45),
        (48, 50, 0.55),
        (20_000, 200_000, 2 / 3),
        (25_000, 60_000, 0.9),
        (64, 1000, 0.0),
        (936, 1000, 1.0),
    ]

    @staticmethod
    def _walks(walker, seed, z, top, p_up, kind, t_stop):
        rate = 3.0
        if kind == "gw":
            hold_rate = lambda prev: rate * prev
        else:
            hold_rate = lambda prev: rate * prev * (top - prev)
        rng = np.random.default_rng(seed)
        # every walk here ends within 40 blocks; a walker that misses its
        # absorption would run forever
        blocks = [(p.copy(), tm.copy()) for p, tm in itertools.islice(
            walker(z, 0.25, rng, p_up, hold_rate, top, t_stop), 100)]
        return blocks, rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["gw", "moran"])
    @pytest.mark.parametrize("z, top, p_up", STARTS)
    def test_blocks_equal_the_reference(self, kind, z, top, p_up):
        for seed in range(3):
            # the last t_stop lands inside a block, which is then cut
            for t_stop in (math.inf, 0.25 + 1e-9, 1.0 if kind == "gw" else 1e-4):
                got, got_state = self._walks(_jump_chain, seed, z, top, p_up, kind, t_stop)
                ref, ref_state = self._walks(_reference_jump_chain, seed, z, top, p_up,
                                             kind, t_stop)
                assert len(got) == len(ref)
                for (path, times), (ref_path, ref_times) in zip(got, ref):
                    assert path.dtype == ref_path.dtype
                    assert np.array_equal(path, ref_path)
                    assert np.array_equal(times, ref_times)
                assert got_state == ref_state

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384])
    def test_standard_exponential_is_exponential(self, n):
        # the walker draws holds with standard_exponential; the reference
        # with exponential(size=n), which scales the same draws by 1.0
        for seed in range(3):
            a = np.random.default_rng(seed).standard_exponential(n)
            b = np.random.default_rng(seed).exponential(size=n)
            assert np.array_equal(a, b)
