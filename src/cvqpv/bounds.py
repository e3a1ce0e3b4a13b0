"""Energy-constrained entropy-continuity bound and the separation condition.

The security gap requires, for attacker states of energy at most E,

    eps < (1/2) log2(4t / (e (1+2u)))
          - ((1+a)/(2(1-a)) + a) * B(E, a, et)

with the continuity bracket

    B(E, a, et) = 2 et (log2(E+1) + log2(e / (a (1-et)))) + 6 htilde((1+a)/(1-a) et).

All logs are base 2 (checked empirically against the reference parameter
tables; a natural-log reading does not reproduce them). The right-hand side
is increasing in et, so for fixed a the largest admissible et is found by
bisection, whose midpoints a known bracket and regula falsi probes decide
without a call where they can (_bisect); the outer maximization over a
takes the best point of a log-spaced grid, starting from a closed-form
guess (_alpha_guess) and correcting it by binary searches that start from
the last candidate and rely on the term being strictly unimodal in a
(max_eps_tilde). The formula is written once, in
separation_rhs; the optimizer and condition_surface make only scalar calls
to it. The grid is computed with plain float arithmetic (log_grid), so no
result depends on numpy's vector loops. Everything is deterministic.

Of the reference parameter table, the eps_tilde column is what this module
reproduces; the alpha column is not. The objective is flat in a near its
maximum, and at the published alpha values the condition admits a smaller
eps_tilde than the published one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .channel import ChannelParams
from .gaussian import h_tilde

ALPHA_MIN = 1e-4  # bracket diverges as a -> 0, safe lower cutoff
ALPHA_MAX = 0.5
N_ALPHA = 240  # log-spaced grid alphas in [ALPHA_MIN, ALPHA_MAX]
BISECT_TOL = 1e-8  # final bisection width in eps_tilde
_PROBES = 8  # most Illinois probes before a bisection's walk


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 1 evenly spaced floats from start to stop, bit for bit those of np.linspace.

    Each is start + i * step with step = (stop - start) / (num - 1), as numpy
    computes them, and the last is stop itself; one float is start alone.
    """
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def log_grid(lo: float, hi: float, num: int) -> list[float]:
    """num log-spaced floats from lo to hi: 10.0 ** v over linspace(log10 lo, log10 hi, num).

    Python's float power calls the C library's pow whatever the CPU, whereas
    np.logspace's bits depend on which vector loop numpy dispatches to: with
    AVX-512 it differs from this grid in the last ulp at 20 of 240 alphas.
    """
    return [10.0 ** v for v in linspace(math.log10(lo), math.log10(hi), num)]


_ALPHAS = log_grid(ALPHA_MIN, ALPHA_MAX, N_ALPHA)
_LOG_ALPHA_MIN = math.log10(ALPHA_MIN)
_LOG_ALPHA_STEP = (math.log10(ALPHA_MAX) - _LOG_ALPHA_MIN) / (N_ALPHA - 1)


@dataclass(frozen=True)
class BoundInputs:
    eps: float
    E: float
    t: float
    u: float
    alpha: float
    eps_tilde: float

    def __post_init__(self):
        if not (self.eps >= 0.0):
            raise ValueError("eps must be nonnegative")
        if not (self.E > 0.0):
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
    if not (E > 0.0):
        raise ValueError("E must be positive")
    return ((1.0 + alpha) / (2.0 * (1.0 - alpha)) + alpha) * _bracket(E, alpha, eps_tilde)


def eps_cap(t: float, u: float) -> float:
    """Upper cap (1/2) log2(4t / (e (1+2u))); negative means infeasible channel.

    -inf where the ratio is 0: at t = 0, or where it underflows.
    """
    if not (t >= 0.0):
        raise ValueError("t must be nonnegative")
    if not (u >= 0.0):
        raise ValueError("u must be nonnegative")
    ratio = 4.0 * t / (math.e * (1.0 + 2.0 * u))
    return -math.inf if ratio == 0.0 else 0.5 * math.log2(ratio)


def condition_margin(b: BoundInputs) -> float:
    """eps_cap - separation term - eps; the condition holds iff this is > 0."""
    return eps_cap(b.t, b.u) - separation_rhs(b.E, b.alpha, b.eps_tilde) - b.eps


def condition_holds(b: BoundInputs) -> bool:
    return ChannelParams(b.t, b.u).feasible() and condition_margin(b) > 0.0


# (1+a)/(1-a) + 2a and log2(e/a) at each grid alpha: the terms of _no_margin_above's bound
_SLOPE_TERMS = [((1.0 + a) / (1.0 - a) + 2.0 * a, math.log2(math.e / a)) for a in _ALPHAS]


def _first(holds, last: int, start: int | None = None) -> int:
    """The first j in [0, last] with holds(j), where holds is false and then
    true along j and is taken to hold at last unevaluated.

    A binary search (bisect_left) finds it. From a start index, steps that
    double first bracket it, so that a start near the answer costs a few
    calls. As last is never asked, rounds_required uses it as the sentinel
    for "no N up to the cap".
    """
    lo, hi = 0, last
    if start is not None:
        step = 1
        if start == last or holds(start):
            hi = start
            while start - step > 0:
                if not holds(start - step):
                    lo = start - step + 1
                    break
                hi = start - step
                step *= 2
        else:
            lo = start + 1
            while start + step < last:
                if holds(start + step):
                    hi = start + step
                    break
                lo = start + step + 1
                step *= 2
    return lo + bisect_left(range(lo, hi), True, key=holds)


def _no_margin_above(cap_margin: float, E: float) -> float:
    """An eps_tilde above which no grid alpha has a positive margin.

    The bracket is at least its 2 et (log2(E+1) + log2(e/a)) part, since
    htilde >= 0 and log2(1/(1-et)) > 0; the factor 1 + 1e-6 covers rounding.
    The slope falls and then rises along the grid, so the least is at the
    first j whose slope is no more than the next one's.
    """
    log_energy = math.log2(E + 1.0)

    def slope(j: int) -> float:
        factor, log_e_over_a = _SLOPE_TERMS[j]
        return factor * (log_energy + log_e_over_a)

    least = slope(_first(lambda j: slope(j) <= slope(j + 1), N_ALPHA - 1))
    return cap_margin / least * (1.0 + 1e-6)


def _bisect(E: float, alpha: float, cap_margin: float, top: float,
            pos: float = 0.0, rhs_at_pos: float = 0.0) -> tuple[float, float]:
    """(lo, hi) of the bisection of alpha's boundary, on scalar separation_rhs calls.

    It starts on [0, 1 - 1e-12] and halves until the width is at most
    BISECT_TOL, going up where the margin at the midpoint is positive. The
    margin is known positive at pos, where the term is rhs_at_pos. A
    midpoint at or below pos goes up unevaluated; one at or above the least
    point found non-positive (top, until a probe finds a lower one) goes
    down unevaluated.

    Before the walk, up to _PROBES Illinois (regula falsi) probes between
    pos and top narrow that bracket. As the margin decreases in eps_tilde,
    a skipped midpoint goes the way its evaluation would, so the walk ends
    where it would without them; they only save its calls.
    """
    neg = top  # a midpoint at or above neg goes down unevaluated
    rhs = separation_rhs(E, alpha, top)
    if rhs < cap_margin:  # top bounds the grid alphas' boundaries from above: not expected
        pos = top
    else:
        a, fa, b, fb = pos, cap_margin - rhs_at_pos, top, cap_margin - rhs
        side = 0  # the end the last probe moved: +1 the positive one, -1 the other
        for _ in range(_PROBES):
            x = (a * fb - b * fa) / (fb - fa)  # where the chord crosses zero
            if b - a <= BISECT_TOL or not a < x < b:
                break
            rhs = separation_rhs(E, alpha, x)
            # a second move of the same end halves the other end's value (Illinois)
            if rhs < cap_margin:
                a, fa = x, cap_margin - rhs
                if side > 0:
                    fb *= 0.5
                side = 1
            else:
                b, fb = x, cap_margin - rhs
                if side < 0:
                    fa *= 0.5
                side = -1
        pos, neg = a, b
    lo, hi = 0.0, 1.0 - 1e-12
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= pos:
            lo = mid
        elif mid >= neg:
            hi = mid
        # rhs < cap_margin decides exactly as cap_margin - rhs > 0.0: subnormals keep it so
        elif separation_rhs(E, alpha, mid) < cap_margin:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _best_alpha(E: float, eps_tilde: float, start: int | None = None) -> tuple[int, float]:
    """Index and term of the grid alpha with the smallest separation term at eps_tilde.

    The term falls strictly and then rises strictly along the grid, so the
    least is at the first j whose term is no more than the next one's
    (_first, from start when given). Each term is computed once a call.
    """
    terms = {}

    def term(j: int) -> float:
        if j not in terms:
            terms[j] = separation_rhs(E, _ALPHAS[j], eps_tilde)
        return terms[j]

    j = _first(lambda j: term(j) <= term(j + 1), N_ALPHA - 1, start)
    return j, term(j)


def _alpha_guess(E: float, eps_tilde: float) -> int:
    """Grid index nearest the alpha of least separation term at eps_tilde, to first order in a.

    With the prefactor as 1/2 + 2a and htilde((1+a)/(1-a) et) as htilde(et)
    + 2a et htilde'(et), the term's derivative in a vanishes where
    a = 1 / (ln 2 (2 B / et + 6 log2((1-et)/et))), B the bracket at a with
    htilde(et) and without its log2(1/(1-et)); two fixed-point steps from
    a = 0.01 solve it. Any index is a valid first candidate, so where a step
    leaves float range (eps_tilde 0, as at E = inf, or subnormal) it gives
    the grid's middle one.
    """
    a = 0.01
    try:
        rest = (4.0 * math.log2(E + 1.0) + 12.0 * h_tilde(eps_tilde) / eps_tilde
                + 6.0 * math.log2((1.0 - eps_tilde) / eps_tilde))
        for _ in range(2):
            a = 1.0 / (math.log(2.0) * (rest + 4.0 * math.log2(math.e / a)))
        j = round((math.log10(a) - _LOG_ALPHA_MIN) / _LOG_ALPHA_STEP)
    except (ArithmeticError, ValueError):  # 0 or inf met a division, a log or round
        return N_ALPHA // 2
    return min(max(j, 0), N_ALPHA - 1)


def max_eps_tilde(eps: float, E: float, t: float, u: float) -> BoundResult:
    """Maximize eps_tilde over N_ALPHA log-spaced alphas in [ALPHA_MIN, 1/2].

    The result is the largest of the grid alphas' bisections (_bisect), and
    alpha_star the first alpha that reaches it: one maximizer, fixed only to
    within the flat top of the objective (at the reference points eps_tilde
    stays within 1% of its maximum from about alpha = 0.002 to 0.012).
    Rather than bisect every alpha, it

    1. takes as candidate the grid alpha nearest the closed-form minimizer
       of the term at top, the _no_margin_above bound (_alpha_guess): no
       call, and within one grid step of the largest margin there on the
       calc_table grid, but any index would do;
    2. bisects the candidate alone to (lo, hi); in a repeat, the margin is
       known positive at the previous hi, and the bisection takes every
       midpoint up to it up without a call (_bisect);
    3. finds the grid alpha with the largest margin at hi, searching out
       from the candidate: if that margin is not positive, lo is the
       optimum; else that alpha becomes the candidate and step 2 repeats;
    4. takes alpha_star as the first grid alpha whose margin at lo is
       positive, searching down from the candidate.

    Why that is the largest bisection: the margin decreases in eps_tilde,
    and every bisection walks the same tree of midpoints, so where two part,
    the one going up ends strictly higher. An alpha therefore ends strictly
    above the candidate exactly when its margin at the candidate's hi is
    positive, and ties with it when its margin is positive at lo but not at
    hi. Each repeat raises the candidate's end strictly, so there are at
    most N_ALPHA rounds; two is usual. The first candidate thus sets only
    how many rounds and calls there are, not the result. Steps 3 and 4 rely
    on the margin being strictly unimodal along the grid at a fixed
    eps_tilde: the alphas positive at lo are then one run of the grid that
    holds the candidate.
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    if not (E > 0.0):
        raise ValueError("E must be positive")
    if not ChannelParams(t, u).feasible() or eps >= eps_cap(t, u):
        return BoundResult(0.0, math.nan, False, math.nan)

    # the margin is cap_margin > 0 at eps_tilde = 0 and, as t <= 1, negative at the top
    cap_margin = eps_cap(t, u) - eps
    top = _no_margin_above(cap_margin, E)
    k = _alpha_guess(E, top)
    lo, hi = _bisect(E, _ALPHAS[k], cap_margin, top)
    while True:
        j, rhs = _best_alpha(E, hi, k)
        if not rhs < cap_margin:
            break
        k = j
        lo, hi = _bisect(E, _ALPHAS[k], cap_margin, top, hi, rhs)
    if lo == 0.0:
        return BoundResult(0.0, math.nan, False, math.nan)
    # the first alpha positive at lo lies at or below the candidate
    first = _first(lambda j: separation_rhs(E, _ALPHAS[j], lo) < cap_margin, k, k)
    alpha_star = _ALPHAS[first]
    return BoundResult(lo, alpha_star, True, separation_rhs(E, alpha_star, lo))


def condition_surface(E: float, t: float, u: float, alphas, eps_tildes):
    """Margin eps_cap(t, u) - separation_rhs over the (alpha, eps_tilde) grid.

    Row i, column j holds the value at alphas[i], eps_tildes[j]; each cell is
    one separation_rhs call, which raises ValueError for an E, alpha or
    eps_tilde outside its domain.
    """
    cap = eps_cap(t, u)
    return [[cap - separation_rhs(E, a, et) for et in eps_tildes] for a in alphas]
