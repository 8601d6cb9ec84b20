"""Probability distributions used across the analytic and simulation code.

The paper assumes exponentially distributed signal durations (rate
``mu``) and iterative-computation times (rate ``nu``), and a Poisson
signal-occurrence process (hence uniform onset position over a cycle).
The SAN capacity model additionally needs deterministic timers, which
UltraSAN supported natively; we expose :class:`Deterministic` plus its
Erlang phase-type approximation (see :mod:`repro.san.assembled`).

Only the handful of methods the library needs are implemented (pdf,
cdf, survival, mean, variance, sampling); scipy is deliberately not
wrapped so that hot simulation loops stay allocation-free.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Distribution",
    "Exponential",
    "Deterministic",
    "Erlang",
    "Uniform",
    "Weibull",
    "HyperExponential",
]


class Distribution(ABC):
    """A non-negative continuous random variable."""

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Probability density at ``x``."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """``P(X <= x)``."""

    def survival(self, x: float) -> float:
        """``P(X > x)``."""
        return 1.0 - self.cdf(x)

    @abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @abstractmethod
    def variance(self) -> float:
        """Variance."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one sample using ``rng``."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples; subclasses may vectorise."""
        return np.array([self.sample(rng) for _ in range(n)])


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``).

    ``rate == 0`` is the degenerate "never fires" limit: the event has
    probability zero of ever completing (``cdf == 0`` everywhere,
    samples are ``inf``).  Marking-dependent SAN rates hit exactly zero
    on design-sweep boundaries (e.g. a repair rate swept down to 0.0),
    and the zero-rate activity must stay a *rate* value -- not a
    structural change -- so assembled topologies re-rate in place.
    Negative rates are still rejected.
    """

    def __init__(self, rate: float):
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def survival(self, x: float) -> float:
        if x <= 0:
            return 1.0
        return math.exp(-self.rate * x)

    def mean(self) -> float:
        if self.rate == 0.0:
            return math.inf
        return 1.0 / self.rate

    def variance(self) -> float:
        if self.rate == 0.0:
            return math.inf
        return 1.0 / (self.rate * self.rate)

    def sample(self, rng: np.random.Generator) -> float:
        if self.rate == 0.0:
            return math.inf
        return float(rng.exponential(1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.rate == 0.0:
            return np.full(n, math.inf)
        return rng.exponential(1.0 / self.rate, size=n)

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"


class Deterministic(Distribution):
    """Point mass at ``value`` (a deterministic timer)."""

    def __init__(self, value: float):
        if value < 0:
            raise ConfigurationError(f"value must be >= 0, got {value}")
        self.value = float(value)

    def pdf(self, x: float) -> float:
        return math.inf if x == self.value else 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def __repr__(self) -> str:
        return f"Deterministic(value={self.value!r})"


class Erlang(Distribution):
    """Erlang distribution: sum of ``shape`` iid exponentials of rate
    ``rate``.  ``Erlang(n, n/d)`` approximates ``Deterministic(d)`` with
    squared coefficient of variation ``1/n``."""

    def __init__(self, shape: int, rate: float):
        if shape < 1 or int(shape) != shape:
            raise ConfigurationError(f"shape must be a positive integer, got {shape}")
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self.shape = int(shape)
        self.rate = float(rate)

    @classmethod
    def approximating(cls, value: float, stages: int) -> "Erlang":
        """Erlang approximation of ``Deterministic(value)`` with the
        given number of stages (matching the mean)."""
        if value <= 0:
            raise ConfigurationError(f"value must be positive, got {value}")
        return cls(shape=stages, rate=stages / value)

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        k, lam = self.shape, self.rate
        return (lam**k) * x ** (k - 1) * math.exp(-lam * x) / math.factorial(k - 1)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        # 1 - sum_{i=0}^{k-1} e^{-lx} (lx)^i / i!
        lx = self.rate * x
        term = 1.0
        total = 1.0
        for i in range(1, self.shape):
            term *= lx / i
            total += term
        return 1.0 - math.exp(-lx) * total

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, 1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size=n)

    def __repr__(self) -> str:
        return f"Erlang(shape={self.shape!r}, rate={self.rate!r})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high)``."""

    def __init__(self, low: float, high: float):
        if high <= low:
            raise ConfigurationError(f"need low < high, got [{low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def pdf(self, x: float) -> float:
        if self.low <= x < self.high:
            return 1.0 / (self.high - self.low)
        return 0.0

    def cdf(self, x: float) -> float:
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x - self.low) / (self.high - self.low)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def __repr__(self) -> str:
        return f"Uniform(low={self.low!r}, high={self.high!r})"


class Weibull(Distribution):
    """Weibull distribution (shape ``k``, scale ``lam``) -- offered as an
    extension beyond the paper's exponential assumption, e.g. for
    wear-out satellite failures or heavy-tailed signal durations."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ConfigurationError(
                f"shape and scale must be positive, got {shape}, {scale}"
            )
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        k, lam = self.shape, self.scale
        z = x / lam
        return (k / lam) * z ** (k - 1) * math.exp(-(z**k))

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-((x / self.scale) ** self.shape))

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class HyperExponential(Distribution):
    """Mixture of exponentials: with probability ``weights[i]`` the
    variable is ``Exponential(rates[i])``.  Models high-variance signal
    durations (bursty emitters)."""

    def __init__(self, rates, weights):
        rates = [float(r) for r in rates]
        weights = [float(w) for w in weights]
        if len(rates) != len(weights) or not rates:
            raise ConfigurationError("rates and weights must be equal-length, non-empty")
        if any(r <= 0 for r in rates):
            raise ConfigurationError(f"all rates must be positive, got {rates}")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigurationError(f"weights must be a distribution, got {weights}")
        self.rates = rates
        self.weights = weights

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return sum(w * r * math.exp(-r * x) for r, w in zip(self.rates, self.weights))

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return sum(
            w * -math.expm1(-r * x) for r, w in zip(self.rates, self.weights)
        )

    def mean(self) -> float:
        return sum(w / r for r, w in zip(self.rates, self.weights))

    def variance(self) -> float:
        second = sum(2.0 * w / (r * r) for r, w in zip(self.rates, self.weights))
        return second - self.mean() ** 2

    def sample(self, rng: np.random.Generator) -> float:
        idx = rng.choice(len(self.rates), p=self.weights)
        return float(rng.exponential(1.0 / self.rates[idx]))

    def __repr__(self) -> str:
        return f"HyperExponential(rates={self.rates!r}, weights={self.weights!r})"
