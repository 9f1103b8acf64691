"""Mutation input streams and fitness-increment distributions.

The trajectory system is driven by a marked Poisson process: candidate
mutations arrive at rate ``lam`` and carry i.i.d. fitness increments ``A``
drawn from an increment distribution ``gamma`` on (0, inf).  A candidate with
increment ``a`` survives early genetic drift with probability

    survival_prob(a) = a / (1 + a),

independently of everything else.  Surviving candidates ("contenders") are
the only ones whose trajectories ever leave height zero, so the system is
equally well driven by the thinned stream alone: contenders arrive at rate

    rate* = lam * E[A / (1 + A)]

with increments from the size-biased law

    gamma*(da) = (lam / rate*) * (a / (1 + a)) * gamma(da).

:class:`ContenderLaw` packages ``(rate*, gamma*)`` and knows how to sample
and integrate against ``gamma*`` whether it was derived from ``(lam, gamma)``
or specified directly.

Integrals against unbounded supports use the substitution ``u = a / (1 + a)``
mapping (0, inf) to (0, 1), which keeps the quadrature on a finite interval
and absorbs the survival weight.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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
    "parse_distribution",
    "InputEvent",
    "ContenderLaw",
    "ARRIVAL_BLOCK",
    "ArrivalBuffer",
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

    def expect(self, g, lower=0.0, include_lower=True):
        m = self.mean_value
        lo = max(0.0, lower)
        u_lo = lo / (1.0 + lo)

        def f(u):
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

    def expect(self, g, lower=0.0, include_lower=True):
        lo = max(self.scale, lower)
        u_lo = lo / (1.0 + lo)
        c = self.alpha * self.scale**self.alpha

        def f(u):
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
        if any(not isinstance(c, IncrementDistribution) for c in self.components):
            raise ValueError("mixture components must be increment distributions")

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

    Built from the full description ``(lam, gamma)`` via
    :func:`contender_params`, or specified directly through :meth:`direct`
    when a scenario is given in already-thinned form.
    """

    rate: float
    base_rate: float | None = None
    base: IncrementDistribution | None = None
    explicit: IncrementDistribution | None = None

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"arrival rate must be positive and finite, got {self.rate}")

    @staticmethod
    def direct(rate: float, dist: IncrementDistribution) -> "ContenderLaw":
        return ContenderLaw(rate=rate, explicit=dist)

    def expect(self, g, lower: float = 0.0, include_lower: bool = True) -> float:
        """Integral of ``g`` against the contender increment law."""
        if self.explicit is not None:
            return self.explicit.expect(g, lower, include_lower)
        scale = self.base_rate / self.rate
        return scale * self.base.expect(
            lambda a: g(a) * a / (1.0 + a), lower, include_lower
        )

    def tail(self, a: float) -> float:
        """Mass of ``(a, inf)`` under the contender increment law (strict:
        it leaves out an atom at ``a``).

        Clamped to [0, 1]: the quadrature can overshoot by an ulp or two.
        """
        return min(1.0, max(0.0, self.expect(lambda _: 1.0, lower=a, include_lower=False)))

    def mean_increment(self) -> float:
        return self.expect(lambda a: a)

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw an array of ``size`` contender increments.

        ``size`` is required: there is no scalar draw, because a single
        draw of the derived law costs a whole rejection block.  Callers
        that consume increments one at a time read them from an
        :class:`ArrivalBuffer`.  The derived law is sampled by rejection:
        propose from the base distribution and accept with probability
        ``a / (1 + a)``, which is exactly the size-biasing weight.
        """
        rng = as_generator(rng)
        if self.explicit is not None:
            return self.explicit.sample(rng, size)
        need = int(size)
        out = np.empty(need)
        got = 0
        while got < need:
            block = max(64, int(1.6 * (need - got)) + 8)
            a = np.asarray(self.base.sample(rng, block))
            keep = a[rng.random(block) < a / (1.0 + a)]
            take = min(need - got, keep.size)
            out[got : got + take] = keep[:take]
            got += take
        return out


#: Arrivals drawn per block by :class:`ArrivalBuffer`.
ARRIVAL_BLOCK = 256


class ArrivalBuffer:
    """Contender arrivals as ``(gap, increment)`` pairs, drawn in blocks.

    Each block draws ``ARRIVAL_BLOCK`` inter-arrival gaps with
    ``rng.exponential(1 / law.rate, ARRIVAL_BLOCK)`` and then as many
    increments with ``law.sample(rng, ARRIVAL_BLOCK)``; :meth:`take` hands
    the pairs out left to right.  A block is drawn only when a read reaches
    it.  It is the one arrival sampler: :func:`sample_contender_stream` cuts
    its stream at a horizon, and the renewal sampler's rows read it in turn.
    """

    __slots__ = ("_rng", "law", "_gaps", "_incs", "_pos")

    def __init__(self, law: ContenderLaw, rng):
        self._rng = as_generator(rng)
        self.law = law
        self._gaps = self._incs = np.empty(0)
        self._pos = ARRIVAL_BLOCK

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` pairs as two arrays, gaps and increments."""
        gaps, incs = [], []
        while n > 0:
            pos = self._pos
            if pos == ARRIVAL_BLOCK:
                self._gaps = self._rng.exponential(1.0 / self.law.rate, ARRIVAL_BLOCK)
                self._incs = self.law.sample(self._rng, ARRIVAL_BLOCK)
                pos = 0
            k = min(n, ARRIVAL_BLOCK - pos)
            gaps.append(self._gaps[pos : pos + k])
            incs.append(self._incs[pos : pos + k])
            self._pos = pos + k
            n -= k
        if len(gaps) == 1:
            return gaps[0], incs[0]
        return np.concatenate([np.empty(0), *gaps]), np.concatenate([np.empty(0), *incs])


def contender_params(lam: float, gamma: IncrementDistribution) -> ContenderLaw:
    """Thinned-stream parameters for candidate rate ``lam`` and law ``gamma``.

    Returns the contender arrival rate ``lam * E[A/(1+A)]`` together with
    integration and sampling access to the size-biased increment law.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    rate = lam * _survival_weight(gamma)
    return ContenderLaw(rate=rate, base_rate=lam, base=gamma)


def sample_contender_stream(law: ContenderLaw, horizon: float, rng) -> list[InputEvent]:
    """Contender stream on ``[0, horizon)``; every event carries ``contender=True``.

    The stream is the horizon cut of an :class:`ArrivalBuffer`, so on the
    same generator state its arrivals are those the renewal sampler reads:
    the buffer is read a block at a time, its gaps summed in order
    (``np.add.accumulate`` adds left to right, as ``t += gap`` does), and
    the block holding the first arrival at or past ``horizon`` is the last
    one drawn.  Events are indexed from 1.  Driving the trajectory system
    with this stream is equivalent in law to driving it with the full
    candidate stream, because non-contenders never leave height zero.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    arrivals = ArrivalBuffer(law, rng)
    times, incs = [], []
    t = 0.0
    while t < horizon:
        gaps, a = arrivals.take(ARRIVAL_BLOCK)
        block = np.add.accumulate(np.concatenate(([t], gaps)))[1:]
        times.append(block)
        incs.append(a)
        t = block[-1]
    times, incs = np.concatenate(times), np.concatenate(incs)
    cut = int(np.searchsorted(times, horizon, side="left"))
    return [InputEvent(i, t, a, True)
            for i, (t, a) in enumerate(zip(times[:cut].tolist(), incs[:cut].tolist()), 1)]
