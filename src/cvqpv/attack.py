"""Attacker-side quantities: entropy gap, estimation-error floor, round count.

Any attacker constrained by the counting argument carries an extra eps/4 of
conditional entropy about the challenge displacement, which converts (via
the Gaussian estimation bound, tight for Gaussian statistics) into a
mean-squared-error floor of (1/2) e^(eps/2). The protocol then separates
honest and attacking samples once N Delta^2 exceeds the score variance over
the tolerated failure probability, by Chebyshev.

eps is in nats, under which the floor is exactly (1/2) e^(eps/2), in every
function here but attacker_entropy_floor, the one in bits: it adds eps/4 to
h(U|P) in bits. The CLI converts a gap given in bits once, to eps ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _first
from .channel import ChannelParams
from .gaussian import h_U_given_P_limit
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


def attacker_entropy_floor(ch: ChannelParams, eps: float) -> float:
    """Lower bound h(U|P) + eps/4 (bits) on the better attacker's uncertainty."""
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    return h_U_given_P_limit(ch.t, ch.u) + eps / 4.0


def fano_mse_floor(eps: float) -> float:
    """Estimation-error floor (1/2) e^(eps/2) on E[(sqrt(t) R - r')^2] for any t.

    eps is the entropy gap in nats. eps=0 gives the shot-noise floor 1/2,
    saturated by the honest ideal response.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    try:
        return 0.5 * math.exp(eps / 2.0)
    except OverflowError:
        raise ValueError(f"eps = {eps!r} overflows the estimation-error floor") from None


def delta_margin(eps: float, u: float, gamma: float) -> float:
    """Score-mean gap Delta = mse_floor/(1/2+u) - gamma.

    Negative values are a valid 'no separation at these parameters'
    outcome (e.g. eps = 0, or excess noise eating the margin).
    """
    if not (u >= 0.0):
        raise ValueError("u must be nonnegative")
    return fano_mse_floor(eps) / (0.5 + u) - gamma


def attacker_score_variance(eps: float, u: float) -> float:
    """Exact variance 2 (v/(1/2+u))^2 of the pessimistic attacker's score term."""
    v = fano_mse_floor(eps)
    try:
        var = 2.0 * (v / (0.5 + u)) ** 2  # 2.0 * a finite square can round to inf
    except OverflowError:
        var = math.inf
    if var == math.inf:
        raise ValueError(f"eps = {eps!r} overflows the attacker's score variance")
    return var


def _rounds_guess(d_inf: float, log_term: float, c: float) -> int:
    """ceil(s^2), clipped to [1, N_SEARCH_CAP], for the positive root s of
    d_inf s^2 - (2 sqrt(L) + c) s - 2 L = 0.

    With L = log_term, Delta(N) = d_inf - 2 sqrt(L/N) - 2 L/N, so s = sqrt(N)
    solves sqrt(N) Delta(N) = c there.
    """
    b = 2.0 * math.sqrt(log_term) + c
    s = (b + math.sqrt(b * b + 8.0 * d_inf * log_term)) / (2.0 * d_inf)
    return N_SEARCH_CAP if not s * s < N_SEARCH_CAP else max(1, math.ceil(s * s))


def rounds_required(eps: float, u: float, eps_hon: float) -> RoundPlan:
    """Smallest N with Delta(N) > 0 and N Delta(N)^2 >= var / eps_hon.

    gamma depends on N, so this is a fixed point. The test is monotone in N,
    as Delta(N) rises with N and N Delta(N)^2 rises once Delta > 0, which it
    checks first. var is the pessimistic attacker's exact score-term variance.

    The search starts at a closed-form guess. With D = Delta(inf) =
    delta_margin(eps, u, 1), L = ln(1/eps_hon) and c = sqrt(var / eps_hon),
    Delta(N) = D - 2 sqrt(L/N) - 2 L/N, so sqrt(N) Delta(N) = c is the
    quadratic D s^2 - (2 sqrt(L) + c) s - 2 L = 0 in s = sqrt(N), and
    ceil(s^2) of its positive root is the guess (_rounds_guess). The search
    (bounds._first) brackets the smallest N with steps that double from the
    guess and then halves; the test decides every step and the guess only
    where to look, so the result is the same wherever the guess lands. If
    the test fails at N_SEARCH_CAP, no N is found.

    The test is decided exactly on the float values of Delta(N), var and
    eps_hon, in integers. In floating point, where gamma is below an ulp of
    the estimation-error floor, N Delta^2 and var / eps_hon agree to within
    rounding at N = 2/eps_hon, so rounding would decide that N; and where
    var / eps_hon overflows, an N at which N Delta^2 overflows too would
    pass.
    """
    if not (0.0 < eps_hon < 1.0):
        raise ValueError("eps_hon must lie in (0,1)")
    # Delta(inf) must be positive for any N to work
    d_inf = delta_margin(eps, u, 1.0)
    if not (d_inf > 0.0):
        raise NoMarginError(
            f"parameters give no margin: asymptotic Delta <= 0 for eps={eps}, u={u}"
        )
    # 2 (v/(1/2+u))^2 > 2 wherever that margin is positive: it can overflow, not underflow to 0
    score_variance = attacker_score_variance(eps, u)
    # N d^2 >= var / eps_hon as N d_num^2 var_den hon_num >= var_num hon_den d_den^2
    var_num, var_den = score_variance.as_integer_ratio()
    hon_num, hon_den = eps_hon.as_integer_ratio()
    scale, target = var_den * hon_num, var_num * hon_den

    def ok(N: int) -> bool:
        d = delta_margin(eps, u, gamma_threshold(N, eps_hon))
        if d <= 0.0:
            return False
        d_num, d_den = d.as_integer_ratio()
        return N * d_num * d_num * scale >= target * d_den * d_den

    # index j stands for N = j + 1; _first never asks its last index, N = N_SEARCH_CAP + 1
    guess = _rounds_guess(d_inf, -math.log(eps_hon), math.sqrt(score_variance / eps_hon))
    N = 1 + _first(lambda j: ok(j + 1), N_SEARCH_CAP, guess - 1)
    if N > N_SEARCH_CAP:
        raise NoMarginError(f"no N <= {N_SEARCH_CAP} satisfies the margin condition")
    gamma = gamma_threshold(N, eps_hon)
    return RoundPlan(
        N=N,
        gamma=gamma,
        delta=delta_margin(eps, u, gamma),
        score_variance=score_variance,
    )


def make_pessimistic_attacker(eps: float, ch: ChannelParams) -> GaussianResponder:
    """Gaussian attacker saturating the estimation-error floor.

    Responds r' = sqrt(t) r + N(0, fano_mse_floor(eps)), so its score terms
    have mean mse_floor/(1/2+u): the least-detectable behaviour compatible
    with the entropy gap.
    """
    return GaussianResponder("pessimistic-attacker", math.sqrt(ch.t), fano_mse_floor(eps))
