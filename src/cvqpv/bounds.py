"""Energy-constrained entropy-continuity bound and the separation condition.

The security gap requires, for attacker states of energy at most E,

    eps < (1/2) log2(4t / (e (1+2u)))
          - ((1+a)/(2(1-a)) + a) * B(E, a, et)

with the continuity bracket

    B(E, a, et) = 2 et (log2(E+1) + log2(e / (a (1-et)))) + 6 htilde((1+a)/(1-a) et).

All logs are base 2 (checked empirically against the reference parameter
tables; a natural-log reading does not reproduce them). The right-hand side
is increasing in et, so for fixed a the largest admissible et is found by
bisection; the outer maximization over a takes the best point of a
log-spaced grid. The optimizer bisects one candidate alpha with scalar
separation_rhs calls, then checks every grid alpha at the end of that path
in one array call; an alpha that would bisect higher becomes the next
candidate (max_eps_tilde). What the term needs of each alpha, (1+a)/(1-a)
and the prefactor, is computed once per grid of alphas (_alpha_factors), and
one array form of the term serves both those checks and condition_surface.
Everything is deterministic.

Of the reference parameter table, the eps_tilde column is what this module
reproduces; the alpha column is not. The objective is flat in a near its
maximum, and at the published alpha values the condition admits a smaller
eps_tilde than the published one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .gaussian import h_tilde

ALPHA_MIN = 1e-4  # bracket diverges as a -> 0, safe lower cutoff
ALPHA_MAX = 0.5
N_ALPHA = 240  # log-spaced grid alphas in [ALPHA_MIN, ALPHA_MAX]
BISECT_TOL = 1e-8  # final bisection width in eps_tilde
_ALPHAS = np.logspace(math.log10(ALPHA_MIN), math.log10(ALPHA_MAX), N_ALPHA)


@dataclass(frozen=True)
class BoundInputs:
    eps: float
    E: float
    t: float
    u: float
    alpha: float
    eps_tilde: float

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if self.E <= 0.0:
            raise ValueError("E must be positive")
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError("alpha must lie in (0, 1/2]")
        if not (0.0 < self.eps_tilde < 1.0):
            raise ValueError("eps_tilde must lie in (0,1)")


@dataclass(frozen=True)
class BoundResult:
    eps_tilde_max: float
    alpha_star: float
    feasible: bool
    rhs_at_opt: float


def _bracket(E: float, alpha: float, eps_tilde: float) -> float:
    if not (0.0 < alpha <= 0.5):
        raise ValueError("alpha must lie in (0, 1/2]")
    if not (0.0 <= eps_tilde < 1.0):
        raise ValueError("eps_tilde must lie in [0,1)")
    if eps_tilde == 0.0:
        return 0.0
    log_term = math.log2(E + 1.0) + math.log2(math.e / (alpha * (1.0 - eps_tilde)))
    return 2.0 * eps_tilde * log_term + 6.0 * h_tilde((1.0 + alpha) / (1.0 - alpha) * eps_tilde)


def separation_rhs(E: float, alpha: float, eps_tilde: float) -> float:
    """Halved-prefactor form (1+a)/(2(1-a)) + a used in the eps condition."""
    if E <= 0.0:
        raise ValueError("E must be positive")
    return ((1.0 + alpha) / (2.0 * (1.0 - alpha)) + alpha) * _bracket(E, alpha, eps_tilde)


def eps_cap(t: float, u: float) -> float:
    """Upper cap (1/2) log2(4t / (e (1+2u))); negative means infeasible channel.

    -inf where the ratio is 0: at t = 0, or where it underflows.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    ratio = 4.0 * t / (math.e * (1.0 + 2.0 * u))
    return -math.inf if ratio == 0.0 else 0.5 * math.log2(ratio)


def condition_margin(b: BoundInputs) -> float:
    """eps_cap - separation term - eps; the condition holds iff this is > 0."""
    return eps_cap(b.t, b.u) - separation_rhs(b.E, b.alpha, b.eps_tilde) - b.eps


def condition_holds(b: BoundInputs) -> bool:
    return ChannelParams(b.t, b.u).feasible() and condition_margin(b) > 0.0


def _alpha_factors(alphas) -> np.ndarray:
    """Rows (a, (1+a)/(1-a), (1+a)/(2(1-a)) + a): all the separation term needs of each alpha.

    Each row is computed as separation_rhs computes it, so it carries the
    same bits; the rows keep the shape of alphas.
    """
    alphas = np.asarray(alphas, dtype=float)
    return np.stack([alphas, (1.0 + alphas) / (1.0 - alphas),
                     (1.0 + alphas) / (2.0 * (1.0 - alphas)) + alphas])


def _separation_rhs_array(E, factors, eps_tilde, log2=np.log2):
    """separation_rhs at the alphas whose _alpha_factors rows are factors, over eps_tilde.

    The rows and eps_tilde broadcast together. The one array form of the
    separation term, for the optimizer and for condition_surface alike: it
    follows _bracket and separation_rhs op for op, up to exact negations,
    with htilde(x) taken as the binary entropy of min(x, 1/2), which is
    exactly 1.0 at 1/2. np.log2 may differ from math.log2 in the last ulp,
    so with the default log2 the result serves only sign decisions and the
    choice of a candidate alpha; with _math_log2 it equals separation_rhs
    bit for bit.
    """
    alphas, ratio, prefactor = factors
    x = np.minimum(ratio * eps_tilde, 0.5)
    # x = 0 only where eps_tilde = 0, whose bracket is 0; any p there keeps log2 finite
    positive = x > 0.0
    p = np.where(positive, x, 0.5)
    q = 1.0 - p
    minus_h = p * log2(p) + q * log2(q)  # -p log2 p - q log2 q, negated exactly
    log_term = math.log2(E + 1.0) + log2(math.e / (alphas * (1.0 - eps_tilde)))
    bracket = np.where(positive, 2.0 * eps_tilde * log_term - 6.0 * minus_h, 0.0)
    return prefactor * bracket


def _math_log2(x: np.ndarray) -> np.ndarray:
    """math.log2 of each element, so array results match the scalar forms exactly."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


_GRID = _alpha_factors(_ALPHAS)
# the rows (1+a)/(1-a) + 2a and log2(e/a) of _no_margin_above's bound, for the grid
_SLOPE, _LOG2_E_OVER_A = _GRID[1] + 2.0 * _ALPHAS, np.log2(math.e / _ALPHAS)


def _no_margin_above(cap_margin: float, E: float) -> float:
    """An eps_tilde above which no grid alpha has a positive margin.

    The bracket is at least its 2 et (log2(E+1) + log2(e/a)) part, since
    htilde >= 0 and log2(1/(1-et)) > 0; the factor 1 + 1e-6 covers rounding.
    """
    slope = _SLOPE * (math.log2(E + 1.0) + _LOG2_E_OVER_A)
    return cap_margin / float(slope.min()) * (1.0 + 1e-6)


def _bisect(E: float, alpha: float, cap_margin: float, top: float) -> tuple[float, float]:
    """(lo, hi) of the bisection of alpha's boundary, on scalar separation_rhs calls.

    It starts on [0, 1 - 1e-12] and halves until the width is at most
    BISECT_TOL, going up where the margin at the midpoint is positive; a
    midpoint above top is taken down unevaluated.
    """
    lo, hi = 0.0, 1.0 - 1e-12
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        # rhs < cap_margin decides exactly as cap_margin - rhs > 0.0: subnormals keep it so
        if mid <= top and separation_rhs(E, alpha, mid) < cap_margin:
            lo = mid
        else:
            hi = mid
    return lo, hi


def max_eps_tilde(eps: float, E: float, t: float, u: float) -> BoundResult:
    """Maximize eps_tilde over N_ALPHA log-spaced alphas in [ALPHA_MIN, 1/2].

    The result is the largest of the grid alphas' bisections (_bisect), and
    alpha_star the first alpha that reaches it: one maximizer, fixed only to
    within the flat top of the objective (at the reference points eps_tilde
    stays within 1% of its maximum from about alpha = 0.002 to 0.012).
    Rather than bisect every alpha, it

    1. takes as candidate the grid alpha with the largest margin at top,
       the _no_margin_above bound, from one array call;
    2. bisects the candidate alone, with scalar separation_rhs calls, to
       (lo, hi);
    3. checks every grid alpha's margin at hi in one array call: if none is
       positive, lo is the optimum; else the alpha with the largest margin
       there becomes the candidate and step 2 repeats;
    4. takes alpha_star as the first grid alpha whose margin at lo is
       positive, from one more array call.

    Why that is the largest bisection: the margin decreases in eps_tilde,
    and every bisection walks the same tree of midpoints, so where two part,
    the one going up ends strictly higher. An alpha therefore ends strictly
    above the candidate exactly when its margin at the candidate's hi is
    positive, and ties with it when its margin is positive at lo but not at
    hi. Each repeat raises the candidate's end strictly, so no alpha is a
    candidate twice and there are at most N_ALPHA rounds; two is usual.

    The checks use np.log2, which may differ from math.log2 in the last ulp:
    only an alpha whose margin at hi or lo lies that close to zero, a window
    under 1e-16 wide in eps_tilde, could be judged differently from the
    scalar separation_rhs. So an alpha is bisected at most once, a repeat
    that ends no higher keeps the candidate, and the candidate always counts
    as positive at lo.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if E <= 0.0:
        raise ValueError("E must be positive")
    if not ChannelParams(t, u).feasible() or eps >= eps_cap(t, u):
        return BoundResult(0.0, math.nan, False, math.nan)

    # the margin is cap_margin > 0 at eps_tilde = 0 and, as t <= 1, negative at the top
    cap_margin = eps_cap(t, u) - eps
    top = _no_margin_above(cap_margin, E)
    k = int(np.argmin(_separation_rhs_array(E, _GRID, top)))
    lo, hi = _bisect(E, float(_ALPHAS[k]), cap_margin, top)
    tried = np.zeros(N_ALPHA, dtype=bool)
    tried[k] = True
    while True:
        rhs = _separation_rhs_array(E, _GRID, hi)
        rhs[tried] = math.inf
        j = int(np.argmin(rhs))
        if not rhs[j] < cap_margin:
            break
        tried[j] = True
        j_lo, j_hi = _bisect(E, float(_ALPHAS[j]), cap_margin, top)
        if j_hi > hi:
            k, lo, hi = j, j_lo, j_hi
    if lo == 0.0:
        return BoundResult(0.0, math.nan, False, math.nan)
    up = _separation_rhs_array(E, _GRID, lo) < cap_margin
    up[k] = True
    alpha_star = float(_ALPHAS[int(np.argmax(up))])
    return BoundResult(lo, alpha_star, True, separation_rhs(E, alpha_star, lo))


def condition_surface(eps: float, E: float, t: float, u: float, alphas, eps_tildes):
    """Margin eps_cap(t, u) - separation_rhs over the (alpha, eps_tilde) grid.

    Row i, column j holds the value at alphas[i], eps_tildes[j], equal bit
    for bit to eps_cap(t, u) - separation_rhs(E, alphas[i], eps_tildes[j]).
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 1)
    eps_tildes = np.asarray(eps_tildes, dtype=float).reshape(1, -1)
    if E <= 0.0:
        raise ValueError("E must be positive")
    if not ((alphas > 0.0) & (alphas <= 0.5)).all():
        raise ValueError("alpha must lie in (0, 1/2]")
    if not ((eps_tildes >= 0.0) & (eps_tildes < 1.0)).all():
        raise ValueError("eps_tilde must lie in [0,1)")
    return eps_cap(t, u) - _separation_rhs_array(E, _alpha_factors(alphas), eps_tildes,
                                                 log2=_math_log2)
