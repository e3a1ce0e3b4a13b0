"""Classical-rounding arithmetic and the attacker qubit budget.

The counting argument works entirely in log2 space: the probability that a
uniformly random 2n-bit function admits a good rounding is at most

    2^((2^(n+1)+1) k) * 2^(2^(2n) h(1/4)) * 2^(-2^(2n)),

with k = ceil(log2(1 + 4/(cbrt(4(2+et)) - 2))) * 2^(2q+2m0). Security needs
the log2 of that product below -2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import binary_entropy, cutoff_purified_distance

# the protocol's longest input string (drawn as uint64 values below 1 << n); up to
# here the float decision count_bound_log2 < -2^n equals exact integer arithmetic
# for every ceiled rounding factor (4 to 1024) and every q + m0
N_MAX = 63

H_QUARTER = binary_entropy(0.25)


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


def _cbrt_gap(eps_tilde: float) -> float:
    """cbrt((2+et)/2) - 1, as expm1(log1p(et/2)/3) so that small et does not cancel.

    It is the supremum of the net resolution delta with (1+delta)^3 - 1 < et/2.
    """
    return math.expm1(math.log1p(eps_tilde / 2.0) / 3.0)


def rounding_size_logfactor(eps_tilde: float) -> float:
    """log2(1 + 4/(cbrt(4(2+et)) - 2)): the per-dimension rounding factor.

    The gap cbrt(4(2+et)) - 2 is taken as 2 (cbrt((2+et)/2) - 1), without
    cancellation. Only below eps_tilde of about 7e-308, where et/2
    underflows or 4/gap overflows, is there no finite factor.
    """
    if not (0.0 < eps_tilde < 1.0):
        raise ValueError("eps_tilde must lie in (0,1)")
    gap = 2.0 * _cbrt_gap(eps_tilde)
    factor = math.log2(1.0 + 4.0 / gap) if gap > 0.0 else math.inf
    if not math.isfinite(factor):
        raise ValueError(f"eps_tilde = {eps_tilde!r} is too small for a resolvable "
                         "rounding factor")
    return factor


def _checked_k_factor(n: int, m0: int, q: int, eps_tilde: float) -> int:
    """Validate the counting-bound inputs; return the ceiled rounding factor."""
    if n < 1 or m0 < 1 or q < 0:
        raise ValueError("need n >= 1, m0 >= 1, q >= 0")
    if n > N_MAX:
        raise ValueError(f"n > {N_MAX}: the float decision is checked against exact "
                         f"arithmetic only up to n = {N_MAX}")
    return math.ceil(rounding_size_logfactor(eps_tilde))  # also checks eps_tilde


def count_bound_log2(n: int, m0: int, q: int, eps_tilde: float) -> float:
    """log2 of the counting bound with the ceiled rounding factor.

    Security against q-qubit attackers needs this below -2^n. A bound
    beyond float range is math.inf, so q_max treats it as insecure.
    """
    return _count_bound_log2(n, m0, q, _checked_k_factor(n, m0, q, eps_tilde))


def _count_bound_log2(n: int, m0: int, q: int, k_factor: int) -> float:
    """count_bound_log2 for validated inputs and a ceiled rounding factor."""
    try:
        k = k_factor * 2.0 ** (2 * q + 2 * m0)
    except OverflowError:  # 2q + 2m0 >= 1024: the bound exceeds every float
        return math.inf
    return (2.0 ** (n + 1) + 1.0) * k + 2.0 ** (2 * n) * (H_QUARTER - 1.0)


def corollary_q(n: int, m0: int) -> int | None:
    """Closed-form budget floor(n/2) - m0 - 5, valid for n > 2(m0+5)."""
    if n <= 2 * (m0 + 5):
        return None
    return n // 2 - m0 - 5


def q_max(n: int, m0: int, eps_tilde: float) -> int:
    """Largest q with count_bound_log2 < -2^n; -1 when no q >= 0 qualifies."""
    k_factor = _checked_k_factor(n, m0, 0, eps_tilde)
    threshold = -(2.0**n)
    q = -1
    while _count_bound_log2(n, m0, q + 1, k_factor) < threshold:
        q += 1
    closed_form = corollary_q(n, m0)
    if closed_form is not None and eps_tilde >= 0.004 and closed_form > q:
        raise AssertionError("closed-form corollary budget exceeds the numeric q_max")
    return q


def resource_report(n: int, m0: int, eps_tilde: float, sigma: float | None = None) -> ResourceReport:
    factor = rounding_size_logfactor(eps_tilde)
    k_factor = math.ceil(factor)
    qm = q_max(n, m0, eps_tilde)  # validates n and m0 as count_bound_log2 would
    return ResourceReport(
        n=n,
        m0=m0,
        eps_tilde=eps_tilde,
        k_factor_real=factor,
        k_factor_int=k_factor,
        q_max=qm,
        corollary_q=corollary_q(n, m0),
        log2_count_bound_at_qmax=(_count_bound_log2(n, m0, qm, k_factor) if qm >= 0 else None),
        cutoff_error_log2=(cutoff_purified_distance(m0, sigma) if sigma is not None else None),
    )
