import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import exp1
from scipy.stats import ks_2samp, kstest

from clonepit import (
    ContenderLaw,
    Exponential,
    IncrementDistribution,
    Mixture,
    Pareto,
    PointMass,
    SizeBiased,
    Uniform,
    contender_params,
    parse_distribution,
    sample_contender_stream,
    survival_prob,
)
from clonepit.inputs import ARRIVAL_BLOCK


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
        # each law's tail against its value, and against the law's own
        # quadrature of the mass above a (strict: an atom at a is left out)
        def check(dist, a, want):
            got = float(dist.tail(a))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
            ref = dist.expect(lambda _: 1.0, lower=a, include_lower=False)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-15)

        check(Exponential(1.0), 1.0, math.exp(-1.0))
        check(Pareto(1.0, 0.5), 2.0, 2.0 ** -0.5)
        check(Uniform(1.0, 2.0), 1.5, 0.5)
        check(PointMass(1.0), 0.5, 1.0)
        check(PointMass(1.0), 1.0, 0.0)
        # size-biased: E[A/(1+A); A > a] / E[A/(1+A)], with the integral of
        # e^-b / (1 + b) over (a, inf) equal to e * E1(1 + a)
        check(SizeBiased(Uniform(1.0, 2.0)), 1.5,
              (0.5 - math.log(3.0 / 2.5)) / (1.0 - math.log(1.5)))
        mix = SizeBiased(MIXTURE)
        weight = 0.5 * 0.5 + 0.5 * (1.0 - math.e * exp1(1.0))
        check(mix, 0.5, (0.25 + 0.5 * (math.exp(-0.5) - math.e * exp1(1.5))) / weight)
        check(mix, 1.0, 0.5 * (math.exp(-1.0) - math.e * exp1(2.0)) / weight)

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


# 1/2 pointmass(1) + 1/2 exponential(1): an atom beside a continuous part
MIXTURE = Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))


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
    SizeBiased(Uniform(1.0, 2.0)),
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
        assert law.law.mean() == pytest.approx(want, abs=1e-9)
        assert law.law.mean() == pytest.approx(1.5229806029162316)

    def test_direct_construction(self):
        law = ContenderLaw(0.7, Exponential(1.0))
        assert law.rate == 0.7
        assert law.law.mean() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ContenderLaw(0.0, Exponential(1.0))

    def test_law_must_be_an_increment_law(self):
        for law in (None, 1.5, "pointmass(1)"):
            with pytest.raises(ValueError, match="increment distribution"):
                ContenderLaw(1.0, law)
        with pytest.raises(ValueError, match="increment distribution"):
            SizeBiased(None)

    def test_size_biased_law_is_only_a_top(self):
        # it has no draws, so a law that would draw it is refused when built
        biased = SizeBiased(Uniform(1.0, 2.0))
        with pytest.raises(ValueError, match="size-biased"):
            SizeBiased(biased)
        with pytest.raises(ValueError, match="size-biased"):
            contender_params(1.0, biased)
        with pytest.raises(ValueError, match="size-biased"):
            Mixture((0.5, 0.5), (biased, PointMass(1.0)))
        with pytest.raises(ValueError, match="size-biased"):
            SizeBiased(Mixture((0.5, 0.5), (PointMass(1.0), biased)))
        assert ContenderLaw(1.0, biased).sample(np.random.default_rng(2), 3).shape == (3,)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, 1000.0])
    @pytest.mark.parametrize("gamma", [PointMass(1.0), Uniform(1.0, 2.0), Exponential(1.0),
                                       Pareto(2.0, 1.5), MIXTURE], ids=str)
    def test_rate_is_lam_times_the_weight(self, gamma, lam):
        law = contender_params(lam, gamma)
        assert law.rate == lam * SizeBiased(gamma).weight
        # size-biasing a point mass is the identity, so it is kept as is
        assert law.law == (gamma if isinstance(gamma, PointMass) else SizeBiased(gamma))

    @pytest.mark.parametrize("lam, c", [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.3),
                                        (1000.0, 7.5)])
    def test_point_mass_contenders_keep_the_point_mass(self, lam, c):
        law = contender_params(lam, PointMass(c))
        # equality is bitwise on the rate: it keeps the weight SizeBiased gives
        assert law == ContenderLaw(lam * SizeBiased(PointMass(c)).weight, PointMass(c))

    def test_mixture_weight_is_the_weighted_sum(self):
        # s = sum of w_k s_k: 1/2 * 1/2 + 1/2 * (1 - e E1(1))
        s = SizeBiased(MIXTURE).weight
        assert s == pytest.approx(0.5 * SizeBiased(PointMass(1.0)).weight
                                  + 0.5 * SizeBiased(Exponential(1.0)).weight, rel=1e-15)
        assert s == pytest.approx(0.45183, abs=5e-6)
        assert contender_params(1.0, MIXTURE).rate == s

    def test_size_biased_mean_is_finite_with_the_base(self):
        assert SizeBiased(Pareto(2.0, 0.5)).mean() == math.inf
        assert not SizeBiased(Pareto(2.0, 0.5)).has_finite_mean()
        # E[A^2/(1+A)] / E[A/(1+A)] at pointmass(c) is c
        assert SizeBiased(PointMass(3.0)).mean() == pytest.approx(3.0, rel=1e-15)
        assert SizeBiased(Uniform(1.0, 2.0)).support() == (1.0, 2.0)
        assert str(SizeBiased(MIXTURE)) == (
            "sizebiased(mixture(0.5:pointmass(1.0),0.5:exponential(1.0)))")

    def test_rate_must_be_finite(self):
        # an infinite rate draws gaps of 0.0, so no horizon cut would end
        with pytest.raises(ValueError, match="finite"):
            contender_params(math.inf, PointMass(1.0))
        with pytest.raises(ValueError, match="finite"):
            ContenderLaw(math.inf, PointMass(1.0))

    def test_tail_excludes_atom_inverse_tail_includes_it(self):
        # the refined heuristic's integral of 1/b over [a, inf) takes an atom at a
        for dist in (PointMass(2.0), SizeBiased(PointMass(2.0))):
            assert dist.tail(1.0) == 1.0
            assert dist.tail(2.0) == 0.0
            assert dist.expect(lambda b: 1.0 / b, lower=2.0) == pytest.approx(0.5)
            assert dist.expect(lambda b: 1.0 / b, lower=2.5) == 0.0

    def test_sample_is_size_biased(self):
        # under Uniform(1,2) candidates, contenders should skew larger
        law = contender_params(1.0, Uniform(1.0, 2.0))
        draws = law.sample(np.random.default_rng(11), 4000)
        assert draws.shape == (4000,)
        assert draws.mean() == pytest.approx(law.law.mean(), abs=0.02)
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
        assert 0.0 <= law.law.tail(hi) <= law.law.tail(lo) <= 1.0


# the laws whose closed-form tails and conditional draws are checked: every
# kind, an atom among them, and a mixture with an atom
THINNED_LAWS = (
    PointMass(1.0),
    Uniform(1.0, 2.0),
    Exponential(1.0),
    Pareto(2.0, 1.5),
    Pareto(1.0, 0.5),
    Mixture((0.5, 0.5), (PointMass(1.0), Exponential(2.0))),
    Mixture((0.3, 0.7), (Exponential(1.0), Uniform(1.0, 2.0))),
)
THRESHOLDS = (0.0, 0.4, 1.0, 1.3, 2.0, 2.5, 6.0)
# size-biased laws have a tail but no draws of their own
SIZE_BIASED_LAWS = (SizeBiased(Uniform(1.0, 2.0)), SizeBiased(MIXTURE))


class TestThinnedDraws:
    """Closed-form tails and draws above per-row thresholds (the renewal rows' sampler)."""

    @pytest.mark.parametrize("dist", THINNED_LAWS + SIZE_BIASED_LAWS, ids=str)
    def test_closed_form_tail_matches_quadrature(self, dist):
        # strict at atoms: pointmass(1) has no mass above 1
        tails = dist.tail(np.array(THRESHOLDS))
        assert tails.shape == (len(THRESHOLDS),)
        for v, t in zip(THRESHOLDS, tails.tolist()):
            ref = dist.expect(lambda _: 1.0, lower=v, include_lower=False)
            assert t == pytest.approx(ref, rel=1e-9, abs=1e-15)
        assert PointMass(1.0).tail(np.array([1.0])).tolist() == [0.0]

    @pytest.mark.parametrize("dist", THINNED_LAWS, ids=str)
    def test_conditional_draws_match_filtered_sample(self, dist):
        rng = np.random.default_rng(41)
        pool = dist.sample(rng, 200_000)
        for v in (0.0, 1.3, 2.5):
            if not dist.tail(np.array([v]))[0] > 0.0:
                continue
            # mixed thresholds in one call; keep those at v
            vs = np.tile([v, 0.5 * v, 2.0 * v + 1.0], 3000)
            draws = dist.sample_above(rng, vs)
            above = dist.tail(vs) > 0.0
            assert draws.shape == vs.shape and np.all(draws[above] > vs[above])
            mine = draws[vs == v]
            assert ks_2samp(mine, pool[pool > v]).pvalue > 1e-3

    @pytest.mark.parametrize("law", [
        ContenderLaw(3.0, Uniform(1.0, 2.0)),
        ContenderLaw(2.0, Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))),
        contender_params(20.0, Exponential(1.0)),
        contender_params(1.0, Mixture((0.5, 0.5), (PointMass(1.0), Exponential(1.0)))),
        contender_params(5.0, Pareto(2.0, 1.5)),
        contender_params(1000.0, Uniform(1.0, 2.0)),
    ], ids=["direct-uniform", "direct-mixture", "exponential", "mixture", "pareto", "uniform"])
    def test_next_above_is_the_stream_restricted_above(self, law):
        # the next arrival above v: an Exp(rate * tail(v)) wait, and an
        # increment drawn as the contender law filtered above v
        rng = np.random.default_rng(43)
        pool = law.sample(rng, 100_000)
        for v in (0.0, 1.3, 2.5):
            tail = float(law.law.tail(v))
            vs = np.tile([v, 3.0], 3000)
            waits, incs = law.next_above(rng, vs)
            at = vs == v
            if not tail > 0.0:
                assert np.all(waits[at] == math.inf)
                continue
            assert np.all(incs[at] > v)
            assert ks_2samp(incs[at], pool[pool > v]).pvalue > 1e-3
            assert kstest(waits[at], "expon", args=(0.0, 1.0 / (law.rate * tail))).pvalue > 1e-3

    def test_no_increment_above_waits_forever(self):
        for law in (ContenderLaw(1.0, PointMass(1.0)), contender_params(1.0, PointMass(1.0)),
                    contender_params(1.0, Uniform(1.0, 2.0))):
            waits, _ = law.next_above(np.random.default_rng(1), np.array([2.0, 5.0]))
            assert waits.tolist() == [math.inf, math.inf]

    # a = 1e14 and up raised a bare ZeroDivisionError from nodes that round
    # onto u = 1 (with alpha 0.5 from a = 1e12); the quadrature still warns
    # that the integrand is badly behaved that far out
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a", [1e12, 1e14, 1e15, 3e15, 4e15, 9e15, 1e16])
    def test_far_tails_stay_in_the_unit_interval(self, a):
        # the quadratures of the mass above a, beside the closed-form tails
        def mass_above(dist):
            return dist.expect(lambda _: 1.0, lower=a, include_lower=False)

        for alpha in (1.5, 0.5):
            assert 0.0 <= mass_above(Pareto(2.0, alpha)) <= 1.0
            for dist in (Pareto(2.0, alpha), SizeBiased(Pareto(2.0, alpha))):
                assert 0.0 <= dist.tail(a) <= 1.0
        assert mass_above(Pareto(2.0, 1.5)) <= 2.0 * (2.0 / a) ** 1.5
        assert SizeBiased(Pareto(2.0, 1.5)).tail(a) <= 2.0 * (2.0 / a) ** 1.5
        assert 0.0 <= contender_params(1.0, Pareto(2.0, 1.5)).law.tail(a) <= 1.0
        assert mass_above(Exponential(1.0)) == 0.0
        assert Exponential(1.0).tail(a) == 0.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a", [1e12, 1e14, 1e15, 4e15, 9e15])
    def test_far_size_biased_tail_is_exact(self, a):
        # E[A/(1+A); A > a] lies between a/(1+a) and 1 times P(A > a); a
        # quadrature of the whole tail loses the value out here (0.0 at 9e15)
        base = Pareto(2.0, 1.5)
        dist = SizeBiased(base)
        tail, p = float(dist.tail(a)), float(base.tail(a))
        assert p * (a / (1.0 + a)) / dist.weight <= tail <= p / dist.weight


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

    def test_point_mass_stream_draws_only_its_gaps(self):
        # no acceptance uniforms: a twin generator that draws only the gap
        # blocks gives the same times and ends in the same state
        law = contender_params(1.0, PointMass(2.0))
        horizon = 2.5 * ARRIVAL_BLOCK / law.rate
        rng, twin = np.random.default_rng(23), np.random.default_rng(23)
        events = sample_contender_stream(law, horizon, rng)
        gaps, t = [], 0.0
        while t < horizon:
            gaps.append(twin.exponential(1.0 / law.rate, ARRIVAL_BLOCK))
            times = np.add.accumulate(np.concatenate(gaps))
            t = times[-1]
        assert len(gaps) > 1 and len(events) > ARRIVAL_BLOCK
        assert [e.time for e in events] == times[times < horizon].tolist()
        assert [e.increment for e in events] == [2.0] * len(events)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon"):
            sample_contender_stream(contender_params(1.0, PointMass(1.0)), horizon, rng)

    def test_block_drawn_laws(self):
        # a continuous mixture, so that a KS test applies; it runs rng.choice
        # and the rejection step in every block
        law = contender_params(1.0, Mixture((0.5, 0.5), (Exponential(1.0), Uniform(1.0, 2.0))))
        events = sample_contender_stream(law, 3000.0, np.random.default_rng(21))
        assert len(events) > 4 * ARRIVAL_BLOCK
        times = np.array([e.time for e in events])
        incs = [e.increment for e in events]
        def cdf(a):
            return 1.0 - law.law.tail(a)

        assert kstest(incs, cdf).pvalue > 1e-3
        gaps = np.diff(times, prepend=0.0)
        assert kstest(gaps, "expon", args=(0.0, 1.0 / law.rate)).pvalue > 1e-3

    def test_sample_increment_pointmass(self):
        rng = np.random.default_rng(6)
        assert PointMass(3.0).sample(rng, 4).tolist() == [3.0] * 4
