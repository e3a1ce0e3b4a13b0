"""Closed-form Gaussian-state and entropy arithmetic.

Conventions used throughout the package:

* vacuum quadrature variance is 1/2 (hbar*omega = 1),
* entropies are differential Shannon entropies in bits,
* the two-mode squeezed vacuum that purifies a Gaussian modulation of
  standard deviation sigma has Schmidt coefficient
  lambda = tanh(asinh(sigma)) = sigma/sqrt(1+sigma^2).
"""

from __future__ import annotations

import math


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


def h_U_given_P_limit(t: float, u: float) -> float:
    """Honest uncertainty h(U|P) = (1/2) log2(pi*e*(1+2u)/(2t)) in the sigma >> 1 limit."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    return 0.5 * math.log2(math.pi * math.e * (1.0 + 2.0 * u) / (2.0 * t))


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


def cutoff_purified_distance(m0: int, sigma: float) -> float:
    """log2 of the purified distance lambda^(2^m0) between the TMSV and its truncation.

    This is the scale inside the O(.) of the imaginary-world substitution;
    the hidden constant is not known. It is 2^m0 log2(lambda) with
    log2 lambda = -x / (2 ln 2), x = neg_log_rho(sigma), not log2 of lambda
    itself, which rounds to 1.0 above sigma of about 7e7. Saturates at -inf
    once the product leaves float range.
    """
    if m0 < 1 or int(m0) != m0:
        raise ValueError("m0 must be a positive integer")
    try:
        return math.ldexp(neg_log_rho(sigma) / (-2.0 * math.log(2.0)), m0)
    except OverflowError:
        return -math.inf


def _phi(y: float) -> float:
    """1/expm1(y) - 1/y + 1/2, from its Bernoulli series below y = 0.1."""
    if y >= 0.1:
        return 1.0 / math.expm1(y) - 1.0 / y + 0.5
    y2 = y * y
    return y * (1.0 / 12.0 - y2 * (1.0 / 720.0 - y2 * (1.0 / 30240.0 - y2 / 1209600.0)))


def cutoff_energy(m0: int, sigma: float) -> float:
    """Mean photon number of one arm of the TMSV truncated at 2^m0 photons.

    Closed form sigma^2 - K rho^K / (1 - rho^K), K = 2^m0, rho = lambda^2 =
    exp(-x), x = log1p(1/sigma^2); where rho^K > 1/e that difference cancels
    and the equal form (K-1)/2 + phi(x) - K phi(K x) is used. Strictly below
    sigma^2; in floating point it equals sigma^2 once the deficit falls
    below half an ulp of sigma^2. Where K or sigma^2 is past float range
    (m0 >= 1024) the mean is scaled by powers of two; at sigma = inf it is
    2^1023 for m0 = 1024 and saturates at inf from m0 = 1025 up.
    """
    if m0 < 1 or int(m0) != m0:
        raise ValueError("m0 must be a positive integer")
    x = neg_log_rho(sigma)
    try:
        y = math.ldexp(x, m0)  # -log(rho^K)
    except OverflowError:  # rho^K far below float range
        y = math.inf
    rho_pow = math.exp(-y)
    try:
        if y < 1.0:
            big = 2.0**m0
            return (big - 1.0) / 2.0 + _phi(x) - big * _phi(y)
        return sigma**2 - math.ldexp(rho_pow, m0) / (1.0 - rho_pow)
    except OverflowError:  # K or sigma^2 past float range: the same forms, scaled
        try:
            if y < 1.0:  # phi(x) - 1/2 is below an ulp of the mean here
                return math.ldexp(0.5 - _phi(y), m0)
            deficit = math.ldexp(rho_pow, m0 - 1026) / (1.0 - rho_pow)
            return math.ldexp(math.ldexp(sigma, -513)**2 - deficit, 1026)
        except OverflowError:
            return math.inf
