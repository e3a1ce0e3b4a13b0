"""Attacker-side quantities: entropy gap, estimation-error floor, round count.

Any attacker constrained by the counting argument carries an extra eps/4 of
conditional entropy about the challenge displacement, which converts (via
the Gaussian estimation bound, tight for Gaussian statistics) into a
mean-squared-error floor of (1/2) e^(eps/2). The protocol then separates
honest and attacking samples once N Delta^2 exceeds the score variance over
the tolerated failure probability, by Chebyshev.

The eps/4 increment is interpreted in nats by default (this is the reading
under which the floor is exactly (1/2) e^(eps/2)); pass eps_unit='bits' for
the base-2 reading, giving (1/2) 2^(eps/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .gaussian import EntropyValue, h_U_given_P_limit
from .protocol import GaussianResponder, gamma_threshold

N_SEARCH_CAP = 10**9


class NoMarginError(ValueError):
    """Raised when no round count yields a positive honest/attacker margin."""


@dataclass(frozen=True)
class RoundPlan:
    N: int
    gamma: float
    delta: float
    score_variance: float


def attacker_entropy_floor(ch: ChannelParams, eps: float) -> EntropyValue:
    """Lower bound h(U|P) + eps/4 (bits) on the better attacker's uncertainty."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return EntropyValue(h_U_given_P_limit(ch.t, ch.u).bits + eps / 4.0, "bits")


def attacker_r_entropy_floor(eps: float) -> EntropyValue:
    """Ideal-channel floor (1/2) log2(pi e) + eps/4 bits on h(R|attacker).

    Attackers are granted the ideal channel t=1, u=0, for which the bound
    is smallest; this is the version the estimation floor is derived from.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return EntropyValue(0.5 * math.log2(math.pi * math.e) + eps / 4.0, "bits")


def fano_mse_floor(eps: float, eps_unit: str = "nats") -> float:
    """Estimation-error floor on E[(sqrt(t) R - r')^2] for any transmission t.

    (1/2) e^(eps/2) when the eps/4 entropy increment is in nats (default),
    (1/2) 2^(eps/2) when it is in bits. eps=0 gives the shot-noise floor 1/2,
    saturated by the honest ideal response.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    try:
        if eps_unit == "nats":
            return 0.5 * math.exp(eps / 2.0)
        if eps_unit == "bits":
            return 0.5 * 2.0 ** (eps / 2.0)
    except OverflowError:
        raise ValueError(f"eps = {eps!r} overflows the estimation-error floor") from None
    raise ValueError(f"unknown eps unit {eps_unit!r}")


def delta_margin(eps: float, u: float, gamma: float, eps_unit: str = "nats") -> float:
    """Score-mean gap Delta = mse_floor/(1/2+u) - gamma.

    Negative values are a valid 'no separation at these parameters'
    outcome (e.g. eps = 0, or excess noise eating the margin).
    """
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    return fano_mse_floor(eps, eps_unit) / (0.5 + u) - gamma


def attacker_score_variance(eps: float, u: float, eps_unit: str = "nats") -> float:
    """Exact variance 2 (v/(1/2+u))^2 of the pessimistic attacker's score term."""
    v = fano_mse_floor(eps, eps_unit)
    try:
        return 2.0 * (v / (0.5 + u)) ** 2
    except OverflowError:
        raise ValueError(f"eps = {eps!r} overflows the attacker's score variance") from None


def rounds_required(
    eps: float,
    u: float,
    eps_hon: float,
    score_variance: float | None = None,
    eps_unit: str = "nats",
    chebyshev_constant: float = 1.0,
) -> RoundPlan:
    """Smallest N with Delta(N) > 0 and N Delta(N)^2 >= c * var / eps_hon.

    gamma depends on N, so this is a fixed point; N Delta(N)^2 is monotone
    increasing once Delta is positive, enabling a doubling-plus-bisection
    search. score_variance defaults to the pessimistic attacker's exact
    score-term variance.
    """
    if not (0.0 < eps_hon < 1.0):
        raise ValueError("eps_hon must lie in (0,1)")
    if score_variance is None:
        score_variance = attacker_score_variance(eps, u, eps_unit)
    if score_variance <= 0.0:
        raise ValueError("score_variance must be positive")
    target = chebyshev_constant * score_variance / eps_hon

    def ok(N: int) -> bool:
        d = delta_margin(eps, u, gamma_threshold(N, eps_hon), eps_unit)
        return d > 0.0 and N * d * d >= target

    # Delta(inf) must be positive for any N to work
    if delta_margin(eps, u, 1.0, eps_unit) <= 0.0:
        raise NoMarginError(
            f"parameters give no margin: asymptotic Delta <= 0 for eps={eps}, u={u}"
        )
    hi = 1
    while not ok(hi):
        if hi >= N_SEARCH_CAP:
            raise NoMarginError(f"no N <= {N_SEARCH_CAP} satisfies the margin condition")
        hi = min(hi * 2, N_SEARCH_CAP)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    gamma = gamma_threshold(hi, eps_hon)
    return RoundPlan(
        N=hi,
        gamma=gamma,
        delta=delta_margin(eps, u, gamma, eps_unit),
        score_variance=score_variance,
    )


class PessimisticAttacker(GaussianResponder):
    """Gaussian attacker saturating the estimation-error floor.

    Responds r' = sqrt(t) r + N(0, fano_mse_floor(eps)), so its score terms
    have mean mse_floor/(1/2+u): the least-detectable behaviour compatible
    with the entropy gap.
    """

    def __init__(self, eps: float, ch: ChannelParams, eps_unit: str = "nats"):
        super().__init__("pessimistic-attacker", math.sqrt(ch.t), fano_mse_floor(eps, eps_unit))
        self.eps = eps
        self.eps_unit = eps_unit


def make_pessimistic_attacker(eps: float, ch: ChannelParams, eps_unit: str = "nats"):
    return PessimisticAttacker(eps, ch, eps_unit)


def score_variance_estimate(
    eps: float,
    u: float,
    samples: int,
    rng,
    eps_unit: str = "nats",
    check_tol: float = 0.05,
) -> float:
    """Empirical variance of the pessimistic attacker's score terms.

    Cross-checked against the closed form 2 (v/(1/2+u))^2; a deviation
    beyond check_tol indicates a broken sampler, not statistics (use
    samples >= 1e5 to keep estimator noise well inside the tolerance).
    """
    if samples < 10**4:
        raise ValueError("need samples >= 1e4")
    rng = np.random.default_rng(rng)
    v = fano_mse_floor(eps, eps_unit)
    noise = rng.normal(0.0, math.sqrt(v), size=samples)
    terms = noise**2 / (0.5 + u)
    empirical = float(terms.var(ddof=1))
    exact = attacker_score_variance(eps, u, eps_unit)
    if abs(empirical / exact - 1.0) > check_tol:
        raise AssertionError(
            f"empirical score variance {empirical:.4g} deviates from exact {exact:.4g}"
        )
    return empirical
