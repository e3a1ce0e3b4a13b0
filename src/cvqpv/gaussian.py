"""Closed-form Gaussian-state and entropy arithmetic.

Conventions used throughout the package:

* vacuum quadrature variance is 1/2 (hbar*omega = 1),
* entropies are differential Shannon entropies in bits unless an
  :class:`EntropyValue` says otherwise,
* the two-mode squeezed vacuum that purifies a Gaussian modulation of
  standard deviation sigma has Schmidt coefficient
  lambda = tanh(asinh(sigma)) = sigma/sqrt(1+sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

LOG2_2PI = math.log2(2.0 * math.pi)
LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class EntropyValue:
    """A differential entropy tagged with its unit ('bits' or 'nats')."""

    value: float
    unit: str = "bits"

    def __post_init__(self):
        if self.unit not in ("bits", "nats"):
            raise ValueError(f"unknown entropy unit {self.unit!r}")

    @property
    def bits(self) -> float:
        return self.value if self.unit == "bits" else self.value / math.log(2.0)

    @property
    def nats(self) -> float:
        return self.value if self.unit == "nats" else self.value * math.log(2.0)

    def to(self, unit: str) -> "EntropyValue":
        if unit == "bits":
            return EntropyValue(self.bits, "bits")
        if unit == "nats":
            return EntropyValue(self.nats, "nats")
        raise ValueError(f"unknown entropy unit {unit!r}")


def lambda_of_sigma(sigma: float) -> float:
    """Schmidt parameter lambda = tanh(asinh(sigma)) = sigma/sqrt(1+sigma^2)."""
    if not (sigma > 0.0) or math.isnan(sigma):
        raise ValueError(f"sigma must be positive and finite-or-inf, got {sigma}")
    if math.isinf(sigma):
        return 1.0
    return sigma / math.hypot(1.0, sigma)


def neg_log_rho(sigma: float) -> float:
    """x = -ln(lambda^2) = log1p(1/sigma^2), without rounding lambda first.

    lambda itself rounds to 1.0 above sigma of about 7e7; x stays accurate
    for small and large sigma and is 0.0 at sigma = inf.
    """
    if not (sigma > 0.0):  # also rejects nan
        raise ValueError(f"sigma must be positive and finite-or-inf, got {sigma}")
    if sigma < 1.0:  # 1/sigma^2 leaves float range below about 1e-154
        return math.log1p(sigma * sigma) - 2.0 * math.log(sigma)
    return math.log1p(1.0 / (sigma * sigma))


def cutoff_log2(m0: int, log2_lam: float) -> float:
    """log2 lambda^(2^m0) = 2^m0 log2(lambda), saturating at -inf."""
    if m0 < 1 or int(m0) != m0:
        raise ValueError("m0 must be a positive integer")
    try:
        return math.ldexp(log2_lam, m0)
    except OverflowError:
        return -math.inf


@dataclass(frozen=True)
class ModulationParams:
    """Gaussian modulation of std sigma with phase-noise coefficient u0.

    Excess noise grows with the modulation as u = u0 * sigma^2.
    """

    sigma: float
    u0: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if self.u0 < 0.0:
            raise ValueError("u0 must be nonnegative")

    @property
    def lam(self) -> float:
        return lambda_of_sigma(self.sigma)

    @property
    def excess_noise(self) -> float:
        return self.u0 * self.sigma**2

    @classmethod
    def secure_regime(cls, sigma: float, u0: float = 0.0) -> "ModulationParams":
        # u > 0.25 renders the protocol insecure, so reject at construction.
        if u0 * sigma**2 >= 0.25:
            raise ValueError(
                f"u = u0*sigma^2 = {u0 * sigma ** 2:.4g} >= 0.25: outside the secure regime"
            )
        return cls(sigma, u0)


@dataclass(frozen=True)
class CutoffParams:
    """Photon-number cutoff at 2^m0 of the purifying two-mode squeezed state."""

    m0: int
    lam: float

    def __post_init__(self):
        if self.m0 < 1 or int(self.m0) != self.m0:
            raise ValueError("m0 must be a positive integer")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lambda must lie strictly in (0,1)")


def honest_sigma_sq(sigma: float, t: float, u: float) -> float:
    """Residual variance Sigma^2 = (1/sigma^2 + t/(1/2+u))^{-1}.

    This is the honest prover's posterior variance for the displacement r
    given his homodyne outcome. sigma may be math.inf (the sigma >> 1
    regime), in which case t must be positive.
    """
    if not (sigma > 0.0):
        raise ValueError("sigma must be positive")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0,1]")
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    inv_sig2 = 0.0 if math.isinf(sigma) else 1.0 / sigma**2
    precision = inv_sig2 + t / (0.5 + u)
    if precision <= 0.0:
        raise ValueError("Sigma^2 undefined: t = 0 with sigma = inf")
    return 1.0 / precision


def h_R_given_Rprime(sigma: float, t: float, u: float) -> EntropyValue:
    """h(R|R') = (1/2) log2(2*pi*e*Sigma^2) in bits."""
    s2 = honest_sigma_sq(sigma, t, u)
    return EntropyValue(0.5 * math.log2(2.0 * math.pi * math.e * s2), "bits")


def h_U_given_P_limit(t: float, u: float) -> EntropyValue:
    """Honest uncertainty h(U|P) = (1/2) log2(pi*e*(1+2u)/(2t)) in the sigma >> 1 limit."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    return EntropyValue(0.5 * math.log2(math.pi * math.e * (1.0 + 2.0 * u) / (2.0 * t)), "bits")


def entropy_scale(h: EntropyValue, beta: float) -> EntropyValue:
    """Differential entropy of a scaled variable: h(beta*X) = h(X) + log(beta)."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    shift = math.log2(beta) if h.unit == "bits" else math.log(beta)
    return EntropyValue(h.value + shift, h.unit)


def uncertainty_floor() -> EntropyValue:
    """Complementarity constant log2(2*pi): floor of h(Q|B) + h(P|C)."""
    return EntropyValue(LOG2_2PI, "bits")


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), endpoints 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def h_tilde(x: float) -> float:
    """Binary-entropy-like continuity function: h(x) for x <= 1/2, else 1."""
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x >= 0.5:
        return 1.0
    return binary_entropy(x)


class PurifiedDistance(NamedTuple):
    value: float
    log2: float
    saturated: bool  # true when the float value underflowed to 0


def cutoff_purified_distance(c: CutoffParams) -> PurifiedDistance:
    """Purified distance lambda^(2^m0) between the TMSV and its truncation.

    Computed in log-space; for large m0 the value underflows to 0.0 and the
    exact log2 is still reported, until 2^m0 log2(lambda) itself leaves
    float range and log2 saturates at -inf.
    """
    log2 = cutoff_log2(c.m0, math.log2(c.lam))
    value = 2.0**log2 if log2 > -1074 else 0.0
    return PurifiedDistance(value, log2, value == 0.0)


def _phi(y: float) -> float:
    """1/expm1(y) - 1/y + 1/2, from its Bernoulli series below y = 0.1."""
    if y >= 0.1:
        return 1.0 / math.expm1(y) - 1.0 / y + 0.5
    y2 = y * y
    return y * (1.0 / 12.0 - y2 * (1.0 / 720.0 - y2 * (1.0 / 30240.0 - y2 / 1209600.0)))


def cutoff_energy(c: CutoffParams, sigma: float) -> float:
    """Mean photon number of one arm of the truncated TMSV.

    Closed form sigma^2 - K rho^K / (1 - rho^K), K = 2^m0, rho = lambda^2 =
    exp(-x), x = log1p(1/sigma^2); where rho^K > 1/e that difference cancels
    and the equal form (K-1)/2 + phi(x) - K phi(K x) is used. Strictly below
    sigma^2; in floating point it equals sigma^2 once the deficit falls
    below half an ulp of sigma^2.
    """
    lam = lambda_of_sigma(sigma)
    if abs(lam - c.lam) > 1e-9 * max(1.0, abs(lam)):
        raise ValueError(f"inconsistent (lambda={c.lam}, sigma={sigma}) pair")
    x = neg_log_rho(sigma)
    try:
        y = math.ldexp(x, c.m0)  # -log(rho^K)
    except OverflowError:  # rho^K far below float range
        return sigma**2
    if y < 1.0:
        big = 2.0**c.m0
        return (big - 1.0) / 2.0 + _phi(x) - big * _phi(y)
    rho_pow = math.exp(-y)
    return sigma**2 - math.ldexp(rho_pow, c.m0) / (1.0 - rho_pow)
