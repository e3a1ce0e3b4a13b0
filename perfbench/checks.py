"""Correctness checks used by the benchmark.

Each check returns a list of problem strings (empty when the check passes),
so the self-tests can feed it a deliberately wrong value and see it fail.
Monte Carlo results are checked against exact distributions rather than
golden bytes, so the checks stay valid when the seeded streams change.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

#: false-failure rate of each binomial acceptance check
BINOMIAL_ALPHA = 1e-6

#: published (eps, t, u) -> (alpha, eps_tilde) optima at E = 1e3
PUBLISHED = {
    (0.03, 0.8, 0.05): (0.013, 0.00031),
    (0.03, 0.9, 0.12): (0.013, 0.00029),
    (0.07, 0.95, 0.075): (0.025, 0.00131),
    (0.1, 1.0, 0.0): (0.036, 0.0037),
}
EPS_TILDE_REL_TOL = 0.10
EPS_TILDE_ABS_TOL = 5e-5

#: Chebyshev round count of the default plan (eps=0.1, u=0, eps_hon=0.01)
DEFAULT_PLAN_N = 139_999


def exact_acceptance(N: int, gamma: float, u: float, noise_var: float) -> float:
    """P[chi2_N < N gamma (1/2+u) / v] for a Gaussian responder.

    With r' = sqrt(t) r + N(0, v), r cancels out of the score and the
    session mean is v/(1/2+u) * chi2_N / N.
    """
    from scipy.special import gammainc

    x = N * gamma * (0.5 + u) / noise_var
    return float(gammainc(N / 2.0, x / 2.0))


def binomial_region(n: int, p: float, alpha: float = BINOMIAL_ALPHA) -> tuple[int, int]:
    """Two-sided acceptance region [lo, hi] for a Binomial(n, p) count.

    P[X < lo] + P[X > hi] <= alpha.
    """
    from scipy.stats import binom

    return int(binom.ppf(alpha / 2.0, n, p)), int(binom.isf(alpha / 2.0, n, p))


def check_acceptance(label: str, accepted: int, sessions: int, p_exact: float,
                     alpha: float = BINOMIAL_ALPHA) -> list[str]:
    lo, hi = binomial_region(sessions, p_exact, alpha)
    if lo <= accepted <= hi:
        return []
    return [f"{label}: {accepted}/{sessions} sessions accepted, outside the binomial "
            f"region [{lo}, {hi}] for exact p={p_exact:.6g} at alpha={alpha:g}"]


def check_session(gamma: float, mean_score: float, expected_gamma: float) -> list[str]:
    problems = []
    if gamma != expected_gamma:
        problems.append(f"session gamma {gamma!r} != gamma_threshold {expected_gamma!r}")
    if not math.isfinite(mean_score):
        problems.append(f"session score {mean_score!r} is not finite")
    return problems


def check_optimum(condition_holds, BoundInputs, point, alpha_star, eps_tilde) -> list[str]:
    """The condition holds at (alpha*, et*) and fails just above et*."""
    eps, t, u, E = point
    problems = []
    if not condition_holds(BoundInputs(eps, E, t, u, alpha_star, eps_tilde)):
        problems.append(f"{point}: condition fails at the optimum "
                        f"(alpha={alpha_star!r}, eps_tilde={eps_tilde!r})")
    above = eps_tilde * (1.0 + 1e-3)
    if above < 1.0 and condition_holds(BoundInputs(eps, E, t, u, alpha_star, above)):
        problems.append(f"{point}: condition still holds at eps_tilde*(1+1e-3)={above!r}")
    return problems


def check_published(point, eps_tilde: float) -> list[str]:
    eps, t, u, E = point
    expected = PUBLISHED[(eps, t, u)][1]
    if abs(eps_tilde - expected) <= max(EPS_TILDE_REL_TOL * expected, EPS_TILDE_ABS_TOL):
        return []
    return [f"{point}: eps_tilde {eps_tilde:.6g} misses the published {expected}"]


def check_budget(point, q_max: int, corollary_q) -> list[str]:
    if corollary_q is None or q_max >= corollary_q:
        return []
    return [f"{point}: q_max {q_max} below the corollary budget {corollary_q}"]


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def check_digests(reference: dict, got: dict) -> list[str]:
    if got == reference:
        return []
    changed = sorted(set(reference) ^ set(got)) + sorted(
        name for name in set(reference) & set(got) if reference[name] != got[name])
    return [f"outputs differ from the first pass: {', '.join(changed)}"]


def check_parses(path: Path) -> list[str]:
    """A .json file loads; a .csv file has a header and equal-width rows."""
    try:
        if path.suffix == ".json":
            json.loads(path.read_text())
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = csv.reader(fh)
                width = len(next(rows))
                if any(len(row) != width for row in rows):
                    return [f"{path.name}: ragged CSV rows"]
        else:
            return [f"{path.name}: unexpected output file"]
    except (ValueError, StopIteration, csv.Error) as exc:
        return [f"{path.name}: does not parse ({exc})"]
    return []


def check_trace_csv(path: Path, N: int, t: float, u: float, sample) -> list[str]:
    """The per-round trace has N rows and score_term recomputes from r, r'."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["index", "theta", "r", "r_prime", "score_term"]]:
        return [f"{path.name}: unexpected header {rows[:1]}"]
    body = rows[1:]
    if len(body) != N:
        return [f"{path.name}: {len(body)} rows, expected N={N}"]
    problems = []
    scale = math.sqrt(t)
    for i in sample:
        index, _theta, r, r_prime, term = body[i]
        expected = (float(r_prime) - scale * float(r)) ** 2 / (0.5 + u)
        if int(index) != i or not math.isclose(float(term), expected, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"{path.name}: row {i} score_term {term} != recomputed {expected!r}")
    return problems
