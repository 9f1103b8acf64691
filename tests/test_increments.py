import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import exp1
from scipy.stats import kstest

from clonepit import (
    ContenderLaw,
    Exponential,
    IncrementDistribution,
    Mixture,
    Pareto,
    PointMass,
    Uniform,
    contender_params,
    parse_distribution,
    sample_contender_stream,
    survival_prob,
)
from clonepit.inputs import ARRIVAL_BLOCK, ArrivalBuffer


def test_survival_prob_values():
    assert survival_prob(1.0) == 0.5
    assert survival_prob(3.0) == 0.75
    with pytest.raises(ValueError):
        survival_prob(0.0)
    with pytest.raises(ValueError):
        survival_prob(-0.5)


class TestDistributions:
    def test_means(self):
        assert PointMass(2.0).mean() == 2.0
        assert Uniform(1.0, 2.0).mean() == 1.5
        assert Exponential(1.0).mean() == 1.0
        assert Pareto(1.0, 2.0).mean() == 2.0

    def test_infinite_mean_pareto(self):
        d = Pareto(1.0, 0.5)
        assert not d.has_finite_mean()
        assert Pareto(1.0, 1.5).has_finite_mean()

    def test_tails(self):
        # a law given directly has the tail of its increment distribution
        def tail(dist, a):
            return ContenderLaw.direct(1.0, dist).tail(a)

        assert tail(Exponential(1.0), 1.0) == pytest.approx(math.exp(-1.0))
        assert tail(Pareto(1.0, 0.5), 2.0) == pytest.approx(2.0 ** -0.5)
        assert tail(Uniform(1.0, 2.0), 1.5) == pytest.approx(0.5)
        assert tail(PointMass(1.0), 0.5) == 1.0
        assert tail(PointMass(1.0), 1.0) == 0.0

    def test_expect_polynomial(self):
        # E[A^2] for Uniform(1,2) is 7/3
        got = Uniform(1.0, 2.0).expect(lambda a: a * a)
        assert got == pytest.approx(7.0 / 3.0, rel=1e-9)

    def test_seeded_sampling_matches_mean(self):
        rng = np.random.default_rng(101)
        x = Exponential(2.0).sample(rng, size=20000)
        assert np.mean(x) == pytest.approx(2.0, abs=0.05)
        u = Uniform(1.0, 2.0).sample(rng, size=20000)
        assert u.min() >= 1.0 and u.max() <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PointMass(0.0)
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            Pareto(1.0, 0.0)
        with pytest.raises(ValueError):
            Mixture((0.4, 0.4), (PointMass(1.0), PointMass(2.0)))

    def test_pareto_refuses_laws_that_draw_inf(self):
        # the largest draw, scale * 2**(53/alpha), overflows for alpha below 53/1024
        with pytest.raises(ValueError, match="inf"):
            Pareto(1.0, 0.05)
        with pytest.raises(ValueError, match="inf"):
            parse_distribution("pareto(1,0.01)")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepted_heavy_pareto_draws_are_finite(self):
        x = Pareto(1.0, 0.06).sample(np.random.default_rng(12), 10**6)
        assert np.isfinite(x).all()

    def test_mixture_mean(self):
        d = Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))
        assert d.mean() == pytest.approx(1.0)


class TestParseDistribution:
    @pytest.mark.parametrize(
        "d",
        [
            PointMass(1.5),
            Uniform(1.0, 2.0),
            Exponential(0.5),
            Pareto(1.0, 0.5),
            Mixture((0.25, 0.75), (PointMass(1.0), Exponential(2.0))),
        ],
    )
    def test_round_trip(self, d):
        assert parse_distribution(d.describe()).describe() == d.describe()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_distribution("triangle(1, 2)")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_distribution("uniform(1,)")


_ONE_OF_EACH = (
    PointMass(3.0),
    Uniform(1.0, 2.0),
    Exponential(1.0),
    Pareto(1.0, 2.0),
    Mixture((0.5, 0.5), (PointMass(1.0), Exponential(2.0))),
)


@pytest.mark.parametrize("dist", _ONE_OF_EACH, ids=lambda d: d.kind)
def test_increment_sample_needs_size(dist):
    # every draw is an array draw; there is no scalar mode
    assert {type(d) for d in _ONE_OF_EACH} == set(IncrementDistribution.__subclasses__())
    with pytest.raises(TypeError):
        dist.sample(np.random.default_rng(6))


class TestContenderLaw:
    def test_rate_uniform_closed_form(self):
        # E[A/(1+A)] on [1,2] integrates to 1 - log(3/2)
        law = contender_params(1.0, Uniform(1.0, 2.0))
        assert law.rate == pytest.approx(1.0 - math.log(1.5), abs=1e-9)

    def test_rate_exponential_closed_form(self):
        # E[A/(1+A)] = 1 - e * E1(1) for a unit exponential
        law = contender_params(1.0, Exponential(1.0))
        assert law.rate == pytest.approx(1.0 - math.e * exp1(1.0), abs=1e-9)

    def test_rate_heavy_tail_closed_form(self):
        # Pareto(1, 1/2): substituting a = u^2 turns E[A/(1+A)] into pi/4
        law = contender_params(1.0, Pareto(1.0, 0.5))
        assert law.rate == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_rate_scales_with_lam(self):
        assert contender_params(2.0, PointMass(1.0)).rate == pytest.approx(1.0)
        assert contender_params(0.5, PointMass(1.0)).rate == pytest.approx(0.25)

    def test_mean_increment_uniform(self):
        # E[A^2/(1+A)] / E[A/(1+A)] = (1/2 + log(3/2)) / (1 - log(3/2))
        law = contender_params(1.0, Uniform(1.0, 2.0))
        want = (0.5 + math.log(1.5)) / (1.0 - math.log(1.5))
        assert law.mean_increment() == pytest.approx(want, abs=1e-9)
        assert law.mean_increment() == pytest.approx(1.5229806029162316)

    def test_direct_construction(self):
        law = ContenderLaw.direct(0.7, Exponential(1.0))
        assert law.rate == 0.7
        assert law.mean_increment() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ContenderLaw.direct(0.0, Exponential(1.0))

    def test_rate_must_be_finite(self):
        # an infinite rate draws gaps of 0.0, so no horizon cut would end
        with pytest.raises(ValueError, match="finite"):
            contender_params(math.inf, PointMass(1.0))
        with pytest.raises(ValueError, match="finite"):
            ContenderLaw.direct(math.inf, PointMass(1.0))

    def test_tail_excludes_atom_inverse_tail_includes_it(self):
        # the refined heuristic's integral of 1/b over [a, inf) takes an atom at a
        law = ContenderLaw.direct(1.0, PointMass(2.0))
        assert law.tail(1.0) == 1.0
        assert law.tail(2.0) == 0.0
        assert law.expect(lambda b: 1.0 / b, lower=2.0) == pytest.approx(0.5)
        assert law.expect(lambda b: 1.0 / b, lower=2.5) == 0.0

    def test_sample_is_size_biased(self):
        # under Uniform(1,2) candidates, contenders should skew larger
        law = contender_params(1.0, Uniform(1.0, 2.0))
        draws = law.sample(np.random.default_rng(11), 4000)
        assert draws.shape == (4000,)
        assert draws.mean() == pytest.approx(law.mean_increment(), abs=0.02)
        assert draws.mean() > 1.5

    def test_sample_needs_size(self):
        law = contender_params(1.0, Uniform(1.0, 2.0))
        with pytest.raises(TypeError):
            law.sample(np.random.default_rng(11))

    @settings(max_examples=50, deadline=None)
    @given(
        a=hs.floats(min_value=0.0, max_value=5.0),
        b=hs.floats(min_value=0.0, max_value=5.0),
    )
    def test_tail_monotone(self, a, b):
        law = contender_params(1.0, Exponential(1.0))
        lo, hi = min(a, b), max(a, b)
        assert 0.0 <= law.tail(hi) <= law.tail(lo) <= 1.0


class TestArrivalBuffer:
    def test_draws_lazily(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        ArrivalBuffer(contender_params(1.0, Uniform(1.0, 2.0)), rng)
        assert rng.bit_generator.state == before

    def test_block_drawn_laws(self):
        # a continuous mixture, so that a KS test applies; it runs rng.choice
        # and the rejection step in every block
        law = contender_params(1.0, Mixture((0.5, 0.5), (Exponential(1.0), Uniform(1.0, 2.0))))
        buf = ArrivalBuffer(law, np.random.default_rng(21))
        # reads of every size, across block edges, give one stream
        parts = [buf.take(k) for k in (1, 300, 0, 511, 256, 56)]
        gaps, incs = (np.concatenate(col) for col in zip(*parts))
        assert gaps.size == incs.size == 4 * ARRIVAL_BLOCK + 100
        twin = ArrivalBuffer(law, np.random.default_rng(21)).take(gaps.size)
        assert np.array_equal(twin[0], gaps) and np.array_equal(twin[1], incs)
        cdf = np.vectorize(lambda a: 1.0 - law.tail(a))
        assert kstest(incs, cdf).pvalue > 1e-3
        assert kstest(gaps, "expon", args=(0.0, 1.0 / law.rate)).pvalue > 1e-3


class TestStreams:
    def test_contender_stream_all_flagged(self):
        law = contender_params(1.0, Uniform(1.0, 2.0))
        rng = np.random.default_rng(4)
        events = sample_contender_stream(law, 200.0, rng)
        assert all(e.contender for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(t < 200.0 for t in times)
        assert [e.index for e in events] == list(range(1, len(events) + 1))
        assert all(1.0 <= e.increment <= 2.0 for e in events)

    def test_thinned_rate_matches(self):
        law = contender_params(1.0, Uniform(1.0, 2.0))
        rng = np.random.default_rng(5)
        horizon = 20000.0
        events = sample_contender_stream(law, horizon, rng)
        rate = len(events) / horizon
        se = math.sqrt(law.rate / horizon)
        assert abs(rate - law.rate) < 4 * se

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon"):
            sample_contender_stream(contender_params(1.0, PointMass(1.0)), horizon, rng)

    def test_sample_increment_pointmass(self):
        rng = np.random.default_rng(6)
        assert PointMass(3.0).sample(rng, 4).tolist() == [3.0] * 4
