"""Delta-net sizes, classical-rounding arithmetic and the attacker qubit budget.

The counting argument works entirely in log2 space: the probability that a
uniformly random 2n-bit function admits a good rounding is at most

    2^((2^(n+1)+1) k) * 2^(2^(2n) h(1/4)) * 2^(-2^(2n)),

with k = ceil(log2(1 + 4/(cbrt(4(2+et)) - 2))) * 2^(2q+2m0). Security needs
the log2 of that product below -2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import binary_entropy, cutoff_log2, neg_log_rho

# not called here: perfbench's tracer wraps cutoff_purified_distance by this name
from .gaussian import cutoff_purified_distance  # noqa: F401

N_MAX = 40  # 2^(2n) stays well inside float64 range up to here

#: strictly inside the open constraint delta < cbrt((2+et)/2) - 1
DELTA_SAFETY = 0.999

H_QUARTER = binary_entropy(0.25)


@dataclass(frozen=True)
class ResourceInputs:
    n: int
    m0: int
    q: int
    eps_tilde: float

    def __post_init__(self):
        if self.n < 1 or self.m0 < 1 or self.q < 0:
            raise ValueError("need n >= 1, m0 >= 1, q >= 0")
        if not (0.0 < self.eps_tilde < 1.0):
            raise ValueError("eps_tilde must lie in (0,1)")


@dataclass(frozen=True)
class ResourceReport:
    n: int
    m0: int
    eps_tilde: float
    k_factor_real: float
    k_factor_int: int
    q_max: int
    corollary_q: int | None
    log2_count_bound_at_qmax: float | None
    cutoff_error_log2: float | None


def delta_for(eps_tilde: float) -> float:
    """Net resolution delta just inside cbrt((2+et)/2) - 1."""
    if not (0.0 < eps_tilde < 1.0):
        raise ValueError("eps_tilde must lie in (0,1)")
    return DELTA_SAFETY * (((2.0 + eps_tilde) / 2.0) ** (1.0 / 3.0) - 1.0)


def net_cardinality_log2(delta: float, n0: int) -> float:
    """log2 of the delta-net cardinality bound (1 + 2/delta)^n0."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    return n0 * math.log2(1.0 + 2.0 / delta)


def net_approx_error(delta: float) -> float:
    """Composition error 3d + 3d^2 + d^3 = (1+d)^3 - 1 of net substitutions."""
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    return (1.0 + delta) ** 3 - 1.0


def rounding_size_logfactor(eps_tilde: float) -> float:
    """log2(1 + 4/(cbrt(4(2+et)) - 2)): the per-dimension rounding factor."""
    if not (0.0 < eps_tilde < 1.0):
        raise ValueError("eps_tilde must lie in (0,1)")
    # below about 1e-12, rounding decides both the net error (1+delta)^3 - 1
    # and the cube-root gap cbrt(4(2+et)) - 2
    net_error = net_approx_error(delta_for(eps_tilde))
    denom = (4.0 * (2.0 + eps_tilde)) ** (1.0 / 3.0) - 2.0
    if not (net_error < eps_tilde / 2.0 and denom > 0.0):
        raise ValueError(f"eps_tilde = {eps_tilde!r} is too small for a resolvable "
                         "rounding factor")
    return math.log2(1.0 + 4.0 / denom)


def count_bound_log2(n: int, m0: int, q: int, eps_tilde: float) -> float:
    """log2 of the counting bound with the ceiled rounding factor.

    Security against q-qubit attackers needs this below -2^n. A bound
    beyond float range is math.inf, so q_max treats it as insecure.
    """
    ResourceInputs(n, m0, q, eps_tilde)
    if n > N_MAX:
        raise ValueError(f"n > {N_MAX} not supported by float-scaled evaluation")
    return _count_bound_log2(n, m0, q, math.ceil(rounding_size_logfactor(eps_tilde)))


def _count_bound_log2(n: int, m0: int, q: int, k_factor: int) -> float:
    """count_bound_log2 for validated inputs and a ceiled rounding factor."""
    try:
        k = k_factor * 2.0 ** (2 * q + 2 * m0)
    except OverflowError:  # 2q + 2m0 >= 1024: the bound exceeds every float
        return math.inf
    return (2.0 ** (n + 1) + 1.0) * k + 2.0 ** (2 * n) * (H_QUARTER - 1.0)


def count_bound_normalized(n: int, m0: int, q: int, eps_tilde: float) -> float:
    """Counting bound log2 divided by 2^(2n); security needs < -2^(-n)."""
    return count_bound_log2(n, m0, q, eps_tilde) / 2.0 ** (2 * n)


def corollary_q(n: int, m0: int) -> int | None:
    """Closed-form budget floor(n/2) - m0 - 5, valid for n > 2(m0+5)."""
    if n <= 2 * (m0 + 5):
        return None
    return n // 2 - m0 - 5


def q_max(n: int, m0: int, eps_tilde: float) -> int:
    """Largest q with count_bound_log2 < -2^n; -1 when no q >= 0 qualifies."""
    threshold = -(2.0**n)
    if count_bound_log2(n, m0, 0, eps_tilde) >= threshold:  # also validates the inputs
        return -1
    k_factor = math.ceil(rounding_size_logfactor(eps_tilde))
    q = 0
    while _count_bound_log2(n, m0, q + 1, k_factor) < threshold:
        q += 1
    closed_form = corollary_q(n, m0)
    if closed_form is not None and eps_tilde >= 0.004 and closed_form > q:
        raise AssertionError("closed-form corollary budget exceeds the numeric q_max")
    return q


def cutoff_soundness(m0: int, sigma: float) -> float:
    """log2 of the honest-acceptance perturbation scale lambda^(2^m0).

    This is the scale inside the O(.) of the imaginary-world substitution;
    the hidden constant is not known. log2 lambda = -x / (2 ln 2) with
    x = neg_log_rho(sigma), not log2 of lambda itself, which rounds to 1.0
    above sigma of about 7e7. Saturates at -inf like
    cutoff_purified_distance.
    """
    return cutoff_log2(m0, neg_log_rho(sigma) / (-2.0 * math.log(2.0)))


def resource_report(n: int, m0: int, eps_tilde: float, sigma: float | None = None) -> ResourceReport:
    factor = rounding_size_logfactor(eps_tilde)
    qm = q_max(n, m0, eps_tilde)
    return ResourceReport(
        n=n,
        m0=m0,
        eps_tilde=eps_tilde,
        k_factor_real=factor,
        k_factor_int=math.ceil(factor),
        q_max=qm,
        corollary_q=corollary_q(n, m0),
        log2_count_bound_at_qmax=(count_bound_log2(n, m0, qm, eps_tilde) if qm >= 0 else None),
        cutoff_error_log2=(cutoff_soundness(m0, sigma) if sigma is not None else None),
    )
