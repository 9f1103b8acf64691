"""Mutation input streams and fitness-increment distributions.

The trajectory system is driven by a marked Poisson process: candidate
mutations arrive at rate ``lam`` and carry i.i.d. fitness increments ``A``
drawn from an increment distribution ``gamma`` on (0, inf).  A candidate with
increment ``a`` survives early genetic drift with probability

    survival_prob(a) = a / (1 + a),

independently of everything else.  Surviving candidates ("contenders") are
the only ones whose trajectories ever leave height zero, so the system is
equally well driven by the thinned stream alone: contenders arrive at rate

    rate* = lam * s,    s = E[A / (1 + A)],

with increments from the size-biased law :class:`SizeBiased` ``(gamma)``,

    gamma*(da) = (a / (1 + a)) * gamma(da) / s.

On a point mass ``a / (1 + a)`` is one constant, so ``gamma* = gamma``.
:class:`ContenderLaw` is the pair ``(rate*, gamma*)``: :func:`contender_params`
builds it from ``(lam, gamma)``, and an already-thinned scenario gives its own.

Integrals against unbounded supports use the substitution ``u = a / (1 + a)``
mapping (0, inf) to (0, 1), which keeps the quadrature on a finite interval
and absorbs the survival weight.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .rng import as_generator

__all__ = [
    "ConfigurationError",
    "survival_prob",
    "IncrementDistribution",
    "PointMass",
    "Uniform",
    "Exponential",
    "Pareto",
    "Mixture",
    "SizeBiased",
    "parse_distribution",
    "InputEvent",
    "ContenderLaw",
    "ARRIVAL_BLOCK",
    "contender_params",
    "sample_contender_stream",
]


class ConfigurationError(ValueError):
    """Invalid start configuration, immigration sequence or parameters."""


# Relative quadrature tolerance for rate*/tail integrals.
_QUAD_RTOL = 1e-9


class NumericalError(RuntimeError):
    """Raised when a quadrature fails to reach the requested tolerance."""


def survival_prob(a: float) -> float:
    """Probability a candidate mutation with increment ``a`` becomes a contender.

    Equals ``a / (1 + a)``; defined for ``a > 0`` only.
    """
    if a <= 0:
        raise ValueError(f"increment must be positive, got {a}")
    return a / (1.0 + a)


def _quad(fn, lo, hi, rtol=_QUAD_RTOL):
    from scipy import integrate  # imported on first use: it is slow to load

    val, err = integrate.quad(fn, lo, hi, epsabs=1e-13, epsrel=rtol, limit=200)
    if err > max(1e-7, 1e-6 * abs(val)):
        raise NumericalError(
            f"quadrature on [{lo}, {hi}] did not converge: value={val}, abserr={err}"
        )
    return val


class IncrementDistribution:
    """Base class for fitness-increment laws on (0, inf).

    Subclasses implement sampling, the mean, the support, a density (where
    one exists) and serialization to the scenario descriptor syntax.
    ``expect`` integrates a function against the law restricted to a right
    tail, using closed forms for atoms and the ``u = a/(1+a)`` substitution
    for unbounded continuous supports.
    """

    kind: str = ""

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw an array of ``size`` increments."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def has_finite_mean(self) -> bool:
        return math.isfinite(self.mean())

    def tail(self, v) -> np.ndarray:
        """``P(A > v)`` for each threshold in the array ``v``, in closed form.

        Strict: an atom at ``v`` is left out.
        """
        raise NotImplementedError

    def sample_above(self, rng, v) -> np.ndarray:
        """One increment conditioned on ``A > v`` for each threshold in the array ``v``.

        Where ``tail(v)`` is 0 the draw is arbitrary.  How many numbers the
        draw takes from ``rng`` does not depend on the thresholds.
        """
        raise NotImplementedError

    def expect(self, g, lower: float = 0.0, include_lower: bool = True) -> float:
        """Integral of ``g`` against the law over ``[lower, inf)``.

        ``include_lower`` only matters when an atom sits exactly at
        ``lower``; continuous parts are unaffected.
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class PointMass(IncrementDistribution):
    """All increments equal ``c``."""

    c: float
    kind = "pointmass"

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"pointmass location must be positive, got {self.c}")

    def sample(self, rng, size):
        return np.full(size, self.c)

    def mean(self):
        return self.c

    def support(self):
        return (self.c, self.c)

    def tail(self, v):
        return np.where(np.asarray(v) < self.c, 1.0, 0.0)

    def sample_above(self, rng, v):
        return np.full(np.shape(v), self.c)

    def expect(self, g, lower=0.0, include_lower=True):
        if self.c > lower or (include_lower and self.c == lower):
            return float(g(self.c))
        return 0.0

    def describe(self):
        return f"pointmass({self.c!r})"


@dataclass(frozen=True)
class Uniform(IncrementDistribution):
    """Uniform on ``[lo, hi]`` with ``0 < lo < hi``."""

    lo: float
    hi: float
    kind = "uniform"

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError(
                f"uniform bounds must satisfy 0 < lo < hi, got lo={self.lo}, hi={self.hi}"
            )

    def sample(self, rng, size):
        return as_generator(rng).uniform(self.lo, self.hi, size)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def support(self):
        return (self.lo, self.hi)

    def tail(self, v):
        return np.clip((self.hi - np.asarray(v)) / (self.hi - self.lo), 0.0, 1.0)

    def sample_above(self, rng, v):
        # hi - (hi - b) * u for u in [0, 1) lies in (b, hi]
        b = np.maximum(v, self.lo)
        return self.hi - (self.hi - b) * as_generator(rng).random(b.shape)

    def expect(self, g, lower=0.0, include_lower=True):
        lo = max(self.lo, lower)
        if lo >= self.hi:
            return 0.0
        w = 1.0 / (self.hi - self.lo)
        return _quad(lambda a: g(a) * w, lo, self.hi)

    def describe(self):
        return f"uniform({self.lo!r},{self.hi!r})"


@dataclass(frozen=True)
class Exponential(IncrementDistribution):
    """Exponential with the given mean."""

    mean_value: float
    kind = "exponential"

    def __post_init__(self):
        if not self.mean_value > 0:
            raise ValueError(f"exponential mean must be positive, got {self.mean_value}")

    def sample(self, rng, size):
        return as_generator(rng).exponential(self.mean_value, size)

    def mean(self):
        return self.mean_value

    def support(self):
        return (0.0, math.inf)

    def tail(self, v):
        return np.exp(-np.maximum(v, 0.0) / self.mean_value)

    def sample_above(self, rng, v):
        # memoryless: the excess over the threshold is the law itself
        b = np.maximum(v, 0.0)
        return b + as_generator(rng).exponential(self.mean_value, b.shape)

    def expect(self, g, lower=0.0, include_lower=True):
        m = self.mean_value
        lo = max(0.0, lower)
        u_lo = lo / (1.0 + lo)

        def f(u):
            if u == 1.0:
                # a node rounded onto the end of the range (lower near
                # 1/eps), where a is infinite: the integrand's limit there
                return 0.0
            a = u / (1.0 - u)
            return g(a) * math.exp(-a / m) / m / (1.0 - u) ** 2

        return _quad(f, u_lo, 1.0)

    def describe(self):
        return f"exponential({self.mean_value!r})"


@dataclass(frozen=True)
class Pareto(IncrementDistribution):
    """Pareto with density ``alpha * scale**alpha / a**(alpha+1)`` on ``[scale, inf)``.

    The mean is infinite for ``alpha <= 1``; that regime is exactly the one
    probed by the infinite-mean diagnostics, so it is permitted here.
    """

    scale: float
    alpha: float
    kind = "pareto"

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"pareto scale must be positive, got {self.scale}")
        if not self.alpha > 0:
            raise ValueError(f"pareto alpha must be positive, got {self.alpha}")
        # The largest draw comes from the smallest 1 - u, which is 2**-53.
        try:
            top = self.scale * (2.0**-53) ** (-1.0 / self.alpha)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(
                f"pareto({self.scale!r},{self.alpha!r}) can draw inf: its largest "
                f"draw, scale * 2**(53/alpha), overflows a float"
            )

    def sample(self, rng, size):
        u = as_generator(rng).random(size)
        # 1 - u lies in [2**-53, 1], and __post_init__ refused any law whose
        # quantile at 2**-53 overflows, so no draw is inf.
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha)

    def mean(self):
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def support(self):
        return (self.scale, math.inf)

    def tail(self, v):
        return (self.scale / np.maximum(v, self.scale)) ** self.alpha

    def sample_above(self, rng, v):
        # above b >= scale the law is Pareto with scale b
        b = np.maximum(v, self.scale)
        return b * (1.0 - as_generator(rng).random(b.shape)) ** (-1.0 / self.alpha)

    def expect(self, g, lower=0.0, include_lower=True):
        lo = max(self.scale, lower)
        u_lo = lo / (1.0 + lo)
        c = self.alpha * self.scale**self.alpha

        def f(u):
            if u == 1.0:
                # a node rounded onto the end of the range (lower near
                # 1/eps), where a is infinite: the integrand's limit there
                # for alpha > 1 and a bounded g; for alpha <= 1 the end is
                # an integrable singularity, and the node is left out too
                return 0.0
            a = u / (1.0 - u)
            return g(a) * c * a ** (-self.alpha - 1.0) / (1.0 - u) ** 2

        return _quad(f, u_lo, 1.0)

    def describe(self):
        return f"pareto({self.scale!r},{self.alpha!r})"


@dataclass(frozen=True)
class Mixture(IncrementDistribution):
    """Finite mixture of increment distributions."""

    weights: tuple
    components: tuple
    kind = "mixture"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.weights) != len(self.components) or not self.components:
            raise ValueError("mixture needs matching, non-empty weights and components")
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"mixture weights must be positive, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got sum={sum(self.weights)}")
        if any(not isinstance(c, IncrementDistribution) or isinstance(c, SizeBiased)
               for c in self.components):
            raise ValueError("mixture components must be increment laws, not size-biased ones")

    def sample(self, rng, size):
        rng = as_generator(rng)
        idx = rng.choice(len(self.components), size=size, p=np.asarray(self.weights))
        out = np.empty(size)
        for k, comp in enumerate(self.components):
            mask = idx == k
            n = int(mask.sum())
            if n:
                out[mask] = comp.sample(rng, n)
        return out

    def mean(self):
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (min(los), max(his))

    def _weighted_tails(self, v):
        return [w * c.tail(v) for w, c in zip(self.weights, self.components)]

    def tail(self, v):
        return sum(self._weighted_tails(v))

    def sample_above(self, rng, v):
        # Every component draws above v, and each threshold keeps the draw
        # of component k with probability w_k tail_k(v) / tail(v), the first
        # k whose running sum of weighted tails passes its uniform: one
        # uniform per threshold, then each component's draws in order.
        rng = as_generator(rng)
        v = np.asarray(v, dtype=float)
        parts = self._weighted_tails(v)
        u = rng.random(v.shape) * sum(parts)
        draws = [c.sample_above(rng, v) for c in self.components]
        out = draws.pop()
        for run, draw in reversed(list(zip(itertools.accumulate(parts), draws))):
            np.copyto(out, draw, where=u < run)
        return out

    def expect(self, g, lower=0.0, include_lower=True):
        return sum(
            w * c.expect(g, lower, include_lower)
            for w, c in zip(self.weights, self.components)
        )

    def describe(self):
        parts = ",".join(f"{w!r}:{c.describe()}" for w, c in zip(self.weights, self.components))
        return f"mixture({parts})"


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_distribution(text: str) -> IncrementDistribution:
    """Parse a descriptor like ``uniform(1,2)`` or ``mixture(0.3:pointmass(1),0.7:exponential(2))``.

    Inverse of :meth:`IncrementDistribution.describe`; used by the scenario
    configuration format.
    """
    s = text.strip()
    open_idx = s.find("(")
    if open_idx < 0 or not s.endswith(")"):
        raise ValueError(f"malformed distribution descriptor: {text!r}")
    kind = s[:open_idx].strip().lower()
    body = s[open_idx + 1 : -1]
    try:
        if kind == "pointmass":
            return PointMass(float(body))
        if kind == "uniform":
            lo, hi = (float(p) for p in _split_top_level(body))
            return Uniform(lo, hi)
        if kind == "exponential":
            return Exponential(float(body))
        if kind == "pareto":
            scale, alpha = (float(p) for p in _split_top_level(body))
            return Pareto(scale, alpha)
        if kind == "mixture":
            weights, comps = [], []
            for part in _split_top_level(body):
                w_text, comp_text = part.split(":", 1)
                weights.append(float(w_text))
                comps.append(parse_distribution(comp_text))
            return Mixture(tuple(weights), tuple(comps))
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"malformed distribution descriptor: {text!r}") from exc
    raise ValueError(f"unknown distribution kind {kind!r} in {text!r}")


def _scaled_exp1(x: float) -> float:
    """``exp(x) * E1(x)`` without overflow for large ``x``."""
    if x < 500.0:
        from scipy import special  # imported on first use: it is slow to load

        return math.exp(x) * special.exp1(x)
    # Asymptotic continued fraction, accurate to ~1e-12 for x >= 500.
    cf = 0.0
    for k in range(30, 0, -1):
        cf = k / (1.0 + k / (x + cf))
    return 1.0 / (x + cf)


def _survival_weight(gamma: IncrementDistribution) -> float:
    """``E[A / (1 + A)]`` under ``gamma``, closed-form where available."""
    if isinstance(gamma, PointMass):
        return gamma.c / (1.0 + gamma.c)
    if isinstance(gamma, Uniform):
        width = gamma.hi - gamma.lo
        return (width - math.log((1.0 + gamma.hi) / (1.0 + gamma.lo))) / width
    if isinstance(gamma, Exponential):
        x = 1.0 / gamma.mean_value
        return 1.0 - x * _scaled_exp1(x)
    if isinstance(gamma, Mixture):
        return sum(w * _survival_weight(c) for w, c in zip(gamma.weights, gamma.components))
    return gamma.expect(survival_prob)


@dataclass(frozen=True)
class SizeBiased(IncrementDistribution):
    """The contender law of candidates from ``base``: ``base(da) * (a / (1 + a)) / weight``.

    ``weight = E_base[A / (1 + A)]``; the mean is finite when the base's is.
    There is no ``sample`` or ``sample_above``: :class:`ContenderLaw` thins
    the base's candidates, so a size-biased law is refused as a base or as
    a mixture component.  On a point mass it equals its base, which
    :func:`contender_params` keeps instead.  The benchmark's tracer counts
    the outermost ``sample`` of any increment law as base proposals, so a
    ``sample`` here would make its traced acceptance ratio read 1.
    """

    base: IncrementDistribution
    weight: float = field(init=False, repr=False, compare=False)
    kind = "sizebiased"

    def __post_init__(self):
        if not isinstance(self.base, IncrementDistribution) or isinstance(self.base, SizeBiased):
            raise ValueError("size-biasing needs an increment distribution with its own "
                             f"draws, not a size-biased one; got {self.base!r}")
        object.__setattr__(self, "weight", _survival_weight(self.base))

    def mean(self):
        return self.expect(lambda a: a) if self.has_finite_mean() else math.inf

    def support(self):
        return self.base.support()

    def has_finite_mean(self):
        return self.base.has_finite_mean()

    def tail(self, v):
        # E_base[A/(1+A); A > v] = P_base(A > v) - E_base[1/(1+A); A > v]: the
        # quadrature holds only a correction about 1/v smaller, so the far
        # tail keeps its value (clipped: it can overshoot by an ulp or two)
        near = np.vectorize(lambda x: self.base.expect(lambda a: 1.0 / (1.0 + a), x, False),
                            otypes=[float])
        v = np.asarray(v, dtype=float)
        return np.clip((self.base.tail(v) - near(v)) / self.weight, 0.0, 1.0)

    def expect(self, g, lower=0.0, include_lower=True):
        return self.base.expect(lambda a: g(a) * a / (1.0 + a), lower, include_lower) / self.weight

    def describe(self):
        return f"sizebiased({self.base.describe()})"


@dataclass(frozen=True)
class InputEvent:
    """One candidate mutation: arrival time, increment, contender flag."""

    index: int
    time: float
    increment: float
    contender: bool

    def __post_init__(self):
        try:
            operator.index(self.index)
        except TypeError:
            raise ConfigurationError(
                f"event index must be an integer, got {self.index!r}"
            ) from None
        if not 0.0 <= self.time < math.inf:
            raise ConfigurationError(f"event time must be finite and >= 0, got {self.time}")
        if not 0.0 < self.increment < math.inf:
            raise ConfigurationError(
                f"event increment must be finite and positive, got {self.increment}"
            )


@dataclass(frozen=True)
class ContenderLaw:
    """Arrival rate and increment law of the thinned (contender) stream.

    :func:`contender_params` builds it from candidates ``(lam, gamma)``; a
    scenario in already-thinned form gives its rate and law directly.
    """

    rate: float
    law: IncrementDistribution

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"arrival rate must be positive and finite, got {self.rate}")
        if not isinstance(self.law, IncrementDistribution):
            raise ValueError(f"contender law must be an increment distribution, got {self.law!r}")

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw an array of ``size`` contender increments (no scalar draw).

        A size-biased law is drawn by rejection, a block at a time: propose
        from the base and accept with probability ``a / (1 + a)``.
        """
        rng = as_generator(rng)
        if not isinstance(self.law, SizeBiased):
            return self.law.sample(rng, size)
        need = int(size)
        out = np.empty(need)
        got = 0
        while got < need:
            block = max(64, int(1.6 * (need - got)) + 8)
            a = np.asarray(self.law.base.sample(rng, block))
            keep = a[rng.random(block) < a / (1.0 + a)]
            take = min(need - got, keep.size)
            out[got : got + take] = keep[:take]
            got += take
        return out

    def next_above(self, rng, v) -> tuple[np.ndarray, np.ndarray]:
        """Per threshold in the array ``v``: the wait for the next contender
        arrival whose increment exceeds it, and that increment.

        By the restriction theorem these arrivals are a Poisson stream of
        rate ``rate * law.tail(v)``, with increments from the law
        conditioned above ``v``; a threshold no increment exceeds waits
        forever.  Most laws draw an exponential per threshold, then the
        increments.  A size-biased law runs its base's candidates above
        ``v``, at ``(rate / weight) * P_base(A > v)``, and accepts ``a``
        with probability ``a / (1 + a)``, in rounds over the thresholds
        still waiting: each round draws some candidates per threshold (at
        least ``1 / weight``, and more as fewer wait), then their uniforms;
        the wait is the sum of the gaps up to the first candidate accepted,
        drawn as one gamma variate.
        """
        rng = as_generator(rng)
        v = np.asarray(v, dtype=float)
        law = self.law
        if not isinstance(law, SizeBiased):
            rate = self.rate * law.tail(v)
            e = rng.standard_exponential(v.shape)
            inc = law.sample_above(rng, v)
        else:
            base, candidates = law.base, self.rate / law.weight
            rate = candidates * base.tail(v)
            e, inc = np.zeros(v.shape), v.copy()
            todo = np.flatnonzero(rate > 0.0)
            least = math.ceil(candidates / self.rate)
            while todo.size:
                n = todo.size
                k = min(max(least, -(-_ROUND_LEAST // n)), max(1, _ROUND_MOST // n))
                a = base.sample_above(rng, np.broadcast_to(v[todo, None], (n, k)))
                ok = rng.random(a.shape) < a / (1.0 + a)
                first = ok.argmax(axis=1)
                hit = ok[np.arange(n), first]
                e[todo] += rng.standard_gamma(np.where(hit, first + 1.0, k))
                inc[todo[hit]] = a[hit, first[hit]]
                todo = todo[~hit]
        return np.divide(e, rate, out=np.full(v.shape, math.inf), where=rate > 0.0), inc


#: Candidates one round of :meth:`ContenderLaw.next_above` draws over all
#: its thresholds: at least the first (when few wait), at most the second.
_ROUND_LEAST = 1024
_ROUND_MOST = 1 << 18

#: Arrivals drawn per block by :func:`sample_contender_stream`.
ARRIVAL_BLOCK = 256


def contender_params(lam: float, gamma: IncrementDistribution) -> ContenderLaw:
    """The contender stream of candidate rate ``lam`` and law ``gamma``:
    ``ContenderLaw(lam * E[A/(1+A)], SizeBiased(gamma))``.  Size-biasing a
    point mass is the identity, so a point mass is kept as is: no thinning.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    law = SizeBiased(gamma)
    return ContenderLaw(lam * law.weight, gamma if isinstance(gamma, PointMass) else law)


def sample_contender_stream(law: ContenderLaw, horizon: float, rng) -> list[InputEvent]:
    """Contender stream on ``[0, horizon)``; every event carries ``contender=True``.

    The stream is drawn in blocks: each block draws ``ARRIVAL_BLOCK``
    inter-arrival gaps with ``rng.exponential(1 / law.rate, ARRIVAL_BLOCK)``,
    then as many increments with ``law.sample(rng, ARRIVAL_BLOCK)``, and
    sums the gaps in order (``np.add.accumulate`` adds left to right, as
    ``t += gap`` does); the block holding the first arrival at or past
    ``horizon`` is the last one drawn.  Events are indexed from 1.  Driving
    the trajectory system with this stream is equivalent in law to driving
    it with the full candidate stream, because non-contenders never leave
    height zero.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    rng = as_generator(rng)
    times, incs = [], []
    t = 0.0
    while t < horizon:
        gaps = rng.exponential(1.0 / law.rate, ARRIVAL_BLOCK)
        incs.append(law.sample(rng, ARRIVAL_BLOCK))
        block = np.add.accumulate(np.concatenate(([t], gaps)))[1:]
        times.append(block)
        t = block[-1]
    times, incs = np.concatenate(times), np.concatenate(incs)
    cut = int(np.searchsorted(times, horizon, side="left"))
    return [InputEvent(i, t, a, True)
            for i, (t, a) in enumerate(zip(times[:cut].tolist(), incs[:cut].tolist()), 1)]
