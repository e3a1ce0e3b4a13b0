"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line
under ``pytest -v``) per criterion. Each test prints its measured numbers so
a failing criterion is diagnosable from the log alone.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from cvqpv.attack import attacker_entropy_floor, make_pessimistic_attacker, rounds_required
from cvqpv.bounds import (
    ALPHA_MAX,
    ALPHA_MIN,
    BISECT_TOL,
    BoundInputs,
    condition_holds,
    condition_margin,
    eps_cap,
    max_eps_tilde,
)
from cvqpv.channel import ChannelParams
from cvqpv.cli import main
from cvqpv.gaussian import cutoff_energy, h_U_given_P_limit
from cvqpv.protocol import HonestProver, ProtocolParams, acceptance_rate
from cvqpv.resources import corollary_q, count_bound_log2, rounding_size_logfactor

ENERGY = 1e3
EPS_TILDE_REL_TOL = 0.10
EPS_TILDE_ABS_TOL = 5e-5
ORACLE_N_ALPHA = 500
ORACLE_BISECT_TOL = 1e-12
ORACLE_REL_TOL = 1e-4


class PointCheck(NamedTuple):
    et_ok: bool
    admissible: bool
    dominates: bool
    oracle_ok: bool
    elapsed: float


def _oracle_eps_tilde(eps, t, u, alpha):
    """Largest eps_tilde the condition admits at alpha, by bisection on the
    public condition_margin (0 if it admits none)."""
    lo, hi = 0.0, 1.0
    while hi - lo > ORACLE_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if condition_margin(BoundInputs(eps, ENERGY, t, u, alpha, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _check_point(eps, t, u, published_alpha, published_et):
    """Check max_eps_tilde at one reference point.

    eps_tilde is compared with the published value. The published alpha is
    not: the objective is flat in alpha (within 1% of its maximum from about
    alpha = 0.002 to 0.012) and the condition admits a smaller eps_tilde at
    the published alpha than at the optimizer's. Instead the optimizer's
    pair must satisfy the condition, reach at least the eps_tilde admitted
    at the published alpha, and match a dense-grid maximum over alpha. The
    published pair's margin is printed so the mismatch stays visible.
    """
    start = time.perf_counter()
    res = max_eps_tilde(eps, ENERGY, t, u)
    elapsed = time.perf_counter() - start
    et_err = abs(res.eps_tilde_max - published_et)
    et_ok = et_err <= max(EPS_TILDE_REL_TOL * published_et, EPS_TILDE_ABS_TOL)
    admissible = condition_holds(
        BoundInputs(eps, ENERGY, t, u, res.alpha_star, res.eps_tilde_max))
    et_at_published_alpha = _oracle_eps_tilde(eps, t, u, published_alpha)
    dominates = res.eps_tilde_max >= et_at_published_alpha - BISECT_TOL
    alphas = np.logspace(math.log10(ALPHA_MIN), math.log10(ALPHA_MAX), ORACLE_N_ALPHA)
    oracle_max = max(_oracle_eps_tilde(eps, t, u, a) for a in alphas)
    oracle_rel_err = abs(res.eps_tilde_max - oracle_max) / oracle_max
    oracle_ok = oracle_rel_err <= ORACLE_REL_TOL
    published_margin = condition_margin(
        BoundInputs(eps, ENERGY, t, u, published_alpha, published_et))
    print(f"  (eps={eps}, t={t}, u={u}): eps_tilde={res.eps_tilde_max:.6g} "
          f"(published {published_et}, ok={et_ok}), {elapsed:.2f}s\n"
          f"    alpha_star={res.alpha_star:.4g} (admissible={admissible}); "
          f"published alpha={published_alpha} admits eps_tilde="
          f"{et_at_published_alpha:.6g} (dominated={dominates}); "
          f"margin at published pair={published_margin:+.2g}\n"
          f"    dense-grid oracle max={oracle_max:.6g} over {ORACLE_N_ALPHA} alphas "
          f"(rel err {oracle_rel_err:.2g}, ok={oracle_ok})")
    return PointCheck(et_ok, admissible, dominates, oracle_ok, elapsed)


def _assert_points(results):
    assert all(r.elapsed < 10.0 for r in results)
    assert all(r.et_ok for r in results)
    assert all(r.admissible for r in results)
    assert all(r.dominates for r in results)
    assert all(r.oracle_ok for r in results)


def test_criterion_01_table_reproduction():
    rows = [
        (0.03, 0.8, 0.05, 0.013, 0.00031),
        (0.03, 0.9, 0.12, 0.013, 0.00029),
        (0.07, 0.95, 0.075, 0.025, 0.00131),
    ]
    print("criterion 1: channel table reproduction")
    _assert_points([_check_point(e, t, u, a, et) for (e, t, u, a, et) in rows])


def test_criterion_02_perfect_channel_point():
    print("criterion 2: perfect-channel optimum")
    _assert_points([_check_point(0.1, 1.0, 0.0, 0.036, 0.0037)])


def test_criterion_03_constants():
    cap = eps_cap(1.0, 0.0)
    honest = h_U_given_P_limit(1.0, 0.0)
    floor = attacker_entropy_floor(ChannelParams(1.0, 0.0), 0.1)
    print(f"criterion 3: eps_cap={cap:.6f}, honest={honest:.4f}, attacker floor={floor:.4f}")
    assert cap == pytest.approx(0.278652, abs=1e-5)
    assert honest == pytest.approx(1.0471, abs=1e-4)
    assert floor == pytest.approx(1.0721, abs=1e-4)


def test_criterion_04_rounding_factor():
    factor = rounding_size_logfactor(0.004)
    print(f"criterion 4: rounding factor = {factor:.4f}, ceiling = {math.ceil(factor)}")
    assert 11.0 < factor <= 12.0
    assert math.ceil(factor) == 12


def test_criterion_05_corollary_scan():
    start = time.perf_counter()
    checked = 0
    for m0 in range(1, 11):
        for n in range(2 * (m0 + 5) + 1, 41):
            q = corollary_q(n, m0)
            assert q == n // 2 - m0 - 5
            if q < 0:
                continue
            assert count_bound_log2(n, m0, q, 0.004) < -(2**n)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 5: {checked} (n, m0) points verified in {elapsed:.2f}s")
    assert checked > 0
    assert elapsed < 5.0


def test_criterion_06_energy_stability():
    # relative spread: population std over mean of eps_tilde across the energies
    values = [max_eps_tilde(0.1, E, 1.0, 0.0).eps_tilde_max for E in [10.0, 1e2, 1e3, 1e4]]
    spread = float(np.std(values) / np.mean(values))
    print(f"criterion 6: eps_tilde over E grid = {values}, relative spread = {spread:.3f}")
    assert spread < 0.15
    assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_07_cutoff_energy_oracle():
    worst = 0.0
    for sigma in [1.0, 2.0, 5.0, 10.0]:
        lam = sigma / math.hypot(1.0, sigma)
        for m0 in range(1, 13):
            m = np.arange(2**m0, dtype=np.float64)
            w = np.exp(2.0 * m * math.log(lam))
            oracle = float(np.sum(m * w) / np.sum(w))
            closed = cutoff_energy(m0, sigma)
            worst = max(worst, abs(closed / oracle - 1.0))
    print(f"criterion 7: worst relative deviation from Fock-sum oracle = {worst:.3g}")
    assert worst < 1e-10


def test_criterion_08_monte_carlo_separation():
    start = time.perf_counter()
    plan = rounds_required(0.1, 0.0, 0.01)
    ch = ChannelParams(1.0, 0.0)
    params = ProtocolParams(sigma=10.0, n=8, N=plan.N, eps_hon=0.01)
    sessions = 2000
    honest = acceptance_rate(params, ch, HonestProver(ch), sessions, 1234)
    attacker = acceptance_rate(params, ch, make_pessimistic_attacker(0.1, ch), sessions, 5678)
    elapsed = time.perf_counter() - start
    binom_sigma = math.sqrt(0.99 * 0.01 / sessions)
    print(f"criterion 8: N={plan.N}, honest={honest:.4f} "
          f"(floor {0.99 - 2 * binom_sigma:.4f}), attacker={attacker:.4f}, {elapsed:.1f}s")
    assert honest >= 0.99 - 2.0 * binom_sigma
    assert attacker <= 0.05
    assert elapsed < 60.0


def test_criterion_09_fano_saturation():
    ch = ChannelParams(1.0, 0.0)
    rng = np.random.default_rng(7)
    r = rng.normal(0.0, 10.0, size=10**6)
    r_prime = HonestProver(ch).respond(r, rng)
    mse = float(np.mean((r_prime - r) ** 2))
    print(f"criterion 9: honest ideal MSE over 1e6 rounds = {mse:.5f}")
    assert mse == pytest.approx(0.5, rel=0.01)


def test_criterion_10_determinism(tmp_path):
    cases = [
        ["bounds", "--seed", "3"],
        ["resources", "--seed", "3"],
        ["rounds", "--seed", "3"],
        ["simulate", "--rounds", "5000", "--sessions", "40", "--seed", "3", "--trace"],
        ["sweep", "--n-lo", "28", "--n-hi", "30", "--seed", "3"],
        ["feasibility", "--seed", "3"],
    ]
    for args in cases:
        d1 = tmp_path / (args[0] + "_a")
        d2 = tmp_path / (args[0] + "_b")
        assert main(args + ["--out", str(d1)]) == main(args + ["--out", str(d2)])
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    print(f"criterion 10: {len(cases)} commands byte-identical across repeated seeded runs")
