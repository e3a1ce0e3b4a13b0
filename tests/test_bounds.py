import functools
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

from cvqpv import bounds
from cvqpv.attack import (
    attacker_entropy_floor,
    delta_margin,
    fano_mse_floor,
    rounds_required,
)
from cvqpv.bounds import (
    ALPHA_MAX,
    ALPHA_MIN,
    BISECT_TOL,
    N_ALPHA,
    BoundInputs,
    _no_margin_above,
    condition_holds,
    condition_margin,
    condition_surface,
    eps_cap,
    max_eps_tilde,
    separation_rhs,
)
from cvqpv.channel import ChannelParams
from cvqpv.gaussian import h_tilde


class TestWinterRhs:
    """Winter's energy-constrained continuity term, in the halved-prefactor
    form (1+a)/(2(1-a)) + a that the separation condition uses."""

    def test_vanishes_at_zero(self):
        assert separation_rhs(1e3, 0.036, 1e-12) == pytest.approx(0.0, abs=1e-8)

    def test_monotone_in_energy(self):
        assert separation_rhs(1e4, 0.036, 0.003) > separation_rhs(10.0, 0.036, 0.003)

    def test_monotone_in_eps_tilde_and_energy_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(1e-3, 0.5)
            et = rng.uniform(1e-5, 0.2)
            E = rng.uniform(5.0, 1e5)
            assert separation_rhs(E, a, et * 1.1) > separation_rhs(E, a, et)
            assert separation_rhs(E * 2.0, a, et) > separation_rhs(E, a, et)

    def test_factor_two_relation_to_separation_form(self):
        # Winter's full prefactor (1+a)/(1-a) + 2a is exactly twice the halved one
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.uniform(1e-3, 0.5)
            et = rng.uniform(1e-5, 0.3)
            # the paper's bracket B(E, a, et)
            bracket = (2.0 * et * (math.log2(1e3 + 1.0) + math.log2(math.e / (a * (1.0 - et))))
                       + 6.0 * h_tilde((1.0 + a) / (1.0 - a) * et))
            winter = ((1.0 + a) / (1.0 - a) + 2.0 * a) * bracket
            assert winter == pytest.approx(2.0 * separation_rhs(1e3, a, et), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            separation_rhs(1e3, 0.6, 0.01)
        with pytest.raises(ValueError):
            separation_rhs(1e3, 0.1, 1.0)
        with pytest.raises(ValueError):
            separation_rhs(-1.0, 0.1, 0.01)

    def test_half_rhs_near_optimum_matches_budget(self):
        # at the perfect-channel optimum the separation term eats the whole
        # budget eps_cap - eps ~ 0.1787
        res = max_eps_tilde(0.1, 1e3, 1.0, 0.0)
        budget = eps_cap(1.0, 0.0) - 0.1
        assert separation_rhs(1e3, res.alpha_star, res.eps_tilde_max) == pytest.approx(
            budget, abs=1e-4
        )


class TestEpsCap:
    def test_ideal(self):
        assert eps_cap(1.0, 0.0) == pytest.approx(0.278652, abs=1e-6)

    def test_boundary(self):
        assert eps_cap(math.e / 4.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_noisy(self):
        assert eps_cap(0.9, 0.12) == pytest.approx(0.0466, abs=1e-3)

    def test_positive_iff_feasible(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            t = rng.uniform(0.01, 1.0)
            u = rng.uniform(0.0, 0.4)
            assert (eps_cap(t, u) > 0.0) == ChannelParams(t, u).feasible()

    @pytest.mark.parametrize("t,u", [(0.0, 0.0), (0.0, 0.3), (5e-324, 7.736917479332954e307),
                                     (1.0, 1e308)])
    def test_zero_ratio_is_minus_inf(self, t, u):
        # 4t / (e(1+2u)) is 0 at t = 0 and underflows to 0 at the other points
        assert eps_cap(t, u) == -math.inf

    def test_negative_transmission_rejected(self):
        with pytest.raises(ValueError, match="t must"):
            eps_cap(-0.1, 0.0)


class TestConditionHolds:
    def test_interior_point(self):
        b = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=0.036, eps_tilde=0.003)
        assert condition_holds(b)

    def test_eps_above_cap(self):
        for alpha, et in [(0.01, 0.001), (0.1, 0.0001), (0.4, 0.01)]:
            b = BoundInputs(eps=0.3, E=1e3, t=1.0, u=0.0, alpha=alpha, eps_tilde=et)
            assert not condition_holds(b)

    def test_table_boundary_point(self):
        b = BoundInputs(eps=0.03, E=1e3, t=0.8, u=0.05, alpha=0.013, eps_tilde=0.00031)
        assert condition_holds(b)
        assert condition_margin(b) == pytest.approx(0.0, abs=1e-3)

    def test_infeasible_channel_is_false_not_error(self):
        b = BoundInputs(eps=0.01, E=1e3, t=0.5, u=0.0, alpha=0.036, eps_tilde=0.001)
        assert not condition_holds(b)

    def test_monotone_in_eps_tilde(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.uniform(1e-3, 0.5)
            et = rng.uniform(1e-5, 0.05)
            b = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=a, eps_tilde=et)
            if condition_holds(b):
                smaller = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=a,
                                      eps_tilde=et * rng.uniform(0.1, 0.99))
                assert condition_holds(smaller)


class TestMaxEpsTilde:
    def test_perfect_channel(self):
        res = max_eps_tilde(0.1, 1e3, 1.0, 0.0)
        assert res.feasible
        assert res.eps_tilde_max == pytest.approx(0.00366, abs=2e-5)

    @pytest.mark.parametrize(
        "eps,t,u,expected_et",
        [(0.03, 0.8, 0.05, 0.000317), (0.03, 0.9, 0.12, 0.000291), (0.07, 0.95, 0.075, 0.001327)],
    )
    def test_imperfect_channels(self, eps, t, u, expected_et):
        res = max_eps_tilde(eps, 1e3, t, u)
        assert res.eps_tilde_max == pytest.approx(expected_et, abs=5e-6)

    def test_optimum_is_on_boundary(self):
        res = max_eps_tilde(0.1, 1e3, 1.0, 0.0)
        at = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=res.alpha_star,
                         eps_tilde=res.eps_tilde_max)
        above = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=res.alpha_star,
                            eps_tilde=res.eps_tilde_max + 1e-5)
        assert condition_holds(at)
        assert not condition_holds(above)

    def test_infeasible_channel(self):
        res = max_eps_tilde(0.01, 1e3, 0.5, 0.0)
        assert not res.feasible
        assert res.eps_tilde_max == 0.0

    def test_eps_above_cap_infeasible(self):
        assert not max_eps_tilde(0.3, 1e3, 1.0, 0.0).feasible

    def test_eps_just_below_cap_infeasible(self):
        # the margin is positive at eps_tilde = 0 but at no bisection midpoint
        res = max_eps_tilde(eps_cap(1.0, 0.0) - 1e-7, 1e3, 1.0, 0.0)
        assert not res.feasible
        assert res.eps_tilde_max == 0.0 and math.isnan(res.alpha_star)

    @pytest.mark.parametrize("point,cap,expected", [
        # E = inf: top is 0, where the first candidate's guess divides by zero
        ((0.1, math.inf, 1.0, 0.0), None, "BoundResult(eps_tilde_max=0.0, alpha_star=nan, "
                                          "feasible=False, rhs_at_opt=nan)"),
        ((0.1, 5e-324, 1.0, 0.0), None, "BoundResult(eps_tilde_max=0.004777200520033827, "
         "alpha_star=0.007729958405789321, feasible=True, rhs_at_opt=0.17865241518947536)"),
        # no t and u give a cap this small, so eps_cap is replaced: top is 5.4e-302
        ((0.0, 1e3, 1.0, 0.0), 1e-300, "BoundResult(eps_tilde_max=0.0, alpha_star=nan, "
                                       "feasible=False, rhs_at_opt=nan)"),
    ])
    def test_extreme_inputs(self, monkeypatch, point, cap, expected):
        # recorded from the cold grid search at top that the guess replaced
        if cap is not None:
            monkeypatch.setattr(bounds, "eps_cap", lambda t, u: cap)
        assert repr(max_eps_tilde(*point)) == expected

    # E = inf, eps_tilde 0 or 5e-324, and 0.99 at E = 5e-324 leave float range, and no
    # top is any of them: max_eps_tilde returns before the search at E = inf
    @pytest.mark.parametrize("et,E", [(et, E) for et in [1e-300, 1e-3, 0.49, 0.5, 0.99]
                                      for E in [5e-324, 1e3, 1e300] if (et, E) != (0.99, 5e-324)])
    def test_alpha_guess_is_a_grid_index(self, E, et):
        assert 0 <= bounds._alpha_guess(E, et) < N_ALPHA

    def test_alpha_guess_is_a_grid_index_at_every_top(self):
        # top rises with cap_margin and falls with E. The least cap margin is the float
        # spacing below the least positive cap, where 4t / (e(1+2u)) is the float after 1
        least_cap = 0.5 * math.log2(math.nextafter(1.0, 2.0))
        margins = [least_cap - math.nextafter(least_cap, 0.0),
                   *(10.0 ** k for k in range(-31, 0)), eps_cap(1.0, 0.0)]
        energies = [5e-324, *(10.0 ** k for k in range(-320, 309, 4)), sys.float_info.max]
        for cap_margin in margins:
            for E in energies:
                top = _no_margin_above(cap_margin, E)
                assert 2e-35 < top < 0.042, (cap_margin, E)
                assert 0 <= bounds._alpha_guess(E, top) < N_ALPHA, (cap_margin, E)

    def test_calc_table_grid_golden(self):
        text = "\n".join(repr(max_eps_tilde(*point)) for point in CALC_TABLE_GRID)
        # every result's repr, so a change to any bit of any optimum shows
        assert hashlib.sha256(text.encode()).hexdigest() == CALC_TABLE_DIGEST


VALID = {"eps": 0.1, "E": 1e3, "t": 1.0, "u": 0.0, "alpha": 0.036, "eps_tilde": 0.003}


@pytest.mark.parametrize("fn,args,message", [
    (BoundInputs, {**VALID, "eps": -0.1}, "eps must be nonnegative"),
    (BoundInputs, {**VALID, "E": 0.0}, "E must be positive"),
    (BoundInputs, {**VALID, "alpha": 0.6}, "alpha must lie in"),
    (BoundInputs, {**VALID, "eps_tilde": 0.0}, "eps_tilde must lie in"),
    (eps_cap, {"t": 1.0, "u": -0.1}, "u must be nonnegative"),
    (max_eps_tilde, {"eps": -0.1, "E": 1e3, "t": 1.0, "u": 0.0}, "eps must be nonnegative"),
    # log2(E + 1) would fail on its own, with a math domain error
    (max_eps_tilde, {"eps": 0.1, "E": -2.0, "t": 1.0, "u": 0.0}, "E must be positive"),
    # checked before an infeasible channel returns early
    (max_eps_tilde, {"eps": 0.1, "E": 0.0, "t": 0.5, "u": 0.0}, "E must be positive"),
])
def test_input_checks(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(**args)


@pytest.mark.parametrize("fn,args,message", [
    (max_eps_tilde, (math.nan, 1e3, 1.0, 0.0), "eps must be nonnegative"),
    (max_eps_tilde, (0.1, math.nan, 1.0, 0.0), "E must be positive"),
    (max_eps_tilde, (0.1, 1e3, math.nan, 0.0), "t must lie in"),
    (max_eps_tilde, (0.1, 1e3, 1.0, math.nan), "u must be nonnegative"),
    (separation_rhs, (math.nan, 0.01, 1e-3), "E must be positive"),
    (separation_rhs, (1e3, math.nan, 1e-3), "alpha must lie in"),
    (separation_rhs, (1e3, 0.01, math.nan), "eps_tilde must lie in"),
    (eps_cap, (math.nan, 0.0), "t must be nonnegative"),
    (eps_cap, (1.0, math.nan), "u must be nonnegative"),
    (BoundInputs, (math.nan, 1e3, 1.0, 0.0, 0.036, 0.003), "eps must be nonnegative"),
    (BoundInputs, (0.1, math.nan, 1.0, 0.0, 0.036, 0.003), "E must be positive"),
    (attacker_entropy_floor, (ChannelParams(1.0, 0.0), math.nan), "eps must be nonnegative"),
    (fano_mse_floor, (math.nan,), "eps must be nonnegative"),
    (delta_margin, (0.1, math.nan, 1.0), "u must be nonnegative"),
    (rounds_required, (math.nan, 0.0, 0.01), "eps must be nonnegative"),
    (rounds_required, (0.1, math.nan, 0.01), "u must be nonnegative"),
    (rounds_required, (0.1, 0.0, math.nan), "eps_hon must lie in"),
])
def test_nan_inputs_are_rejected(fn, args, message):
    # each check is written so that NaN fails it, with the message of its parameter
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_zero_eps_is_a_valid_input():
    assert BoundInputs(**{**VALID, "eps": 0.0}).eps == 0.0


def test_first_finds_every_threshold_from_every_start():
    # holds is false below k and true from k; last is taken to hold and never asked
    for last in range(41):
        for k in range(last + 1):
            for start in [None, *range(last + 1)]:
                asked = []

                def holds(j):
                    asked.append(j)
                    return j >= k

                assert bounds._first(holds, last, start) == k, (last, k, start)
                assert all(0 <= j < last for j in asked), (last, k, start)


PUBLISHED = [(0.03, 1e3, 0.8, 0.05), (0.03, 1e3, 0.9, 0.12), (0.07, 1e3, 0.95, 0.075),
             (0.1, 1e3, 1.0, 0.0)]  # the last one is also the CLI default
# the benchmark's 244-point calculator grid as (eps, E, t, u): (eps, t, u, E) over
# the product below, then the four published points at E = 1e3
CALC_TABLE_GRID = [(eps, E, t, u) for (eps, t, u, E) in itertools.product(
    (0.03, 0.05, 0.07, 0.1), (0.8, 0.85, 0.9, 0.95, 1.0), (0.0, 0.05, 0.1), (10.0, 1e2, 1e3, 1e4))]
CALC_TABLE_GRID += [(eps, 1e3, t, u) for (eps, E, t, u) in PUBLISHED]
CALC_TABLE_DIGEST = "30f9ea911f44917dca4752671531338b31a2add1ad744357c42d0f9a79a4b2b9"
# max_eps_tilde's grid: the C library's pow at numpy's linspace points, not
# np.logspace, whose bits depend on the vector loop numpy dispatches to
GRID_ALPHAS = [10.0 ** v for v in
               np.linspace(math.log10(ALPHA_MIN), math.log10(ALPHA_MAX), N_ALPHA).tolist()]


def scalar_eps_tilde(eps, E, t, u, alpha):
    """Oracle: largest eps_tilde the condition admits at one alpha (0 if none),
    by scalar bisection on separation_rhs with the grid's start, midpoint,
    test and stopping rule."""
    cap_margin = eps_cap(t, u) - eps

    def margin(et):
        return cap_margin - separation_rhs(E, alpha, et)

    if margin(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-12
    if margin(hi) > 0.0:
        return hi
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@functools.cache
def scalar_grid(eps, E, t, u):
    """scalar_eps_tilde at every grid alpha."""
    return [scalar_eps_tilde(eps, E, t, u, a) for a in GRID_ALPHAS]


class TestEpsTildeGrid:
    """max_eps_tilde's candidate bisections, checked against the grid, equal
    the first argmax of the per-alpha scalar bisections bit for bit."""

    @pytest.mark.parametrize("eps,E,t,u", PUBLISHED + [
        (0.05, 10.0, 0.9, 0.05),
        (0.27865, 1e3, 1.0, 0.0),  # just under the cap: some alphas admit no eps_tilde
        (eps_cap(1.0, 0.0), 1e3, 1.0, 0.0),  # no margin at eps_tilde = 0 for any alpha
    ])
    def test_equals_scalar_bisection(self, eps, E, t, u):
        best = max(scalar_grid(eps, E, t, u))
        res = max_eps_tilde(eps, E, t, u)
        assert res.eps_tilde_max == best
        assert res.feasible == (best > 0.0)

    @pytest.mark.parametrize("eps,E,t,u", PUBLISHED + [
        (0.05, 10.0, 0.9, 0.05),
        (0.27865, 1e3, 1.0, 0.0),
    ])
    def test_max_eps_tilde_is_first_argmax_of_scalar_oracle(self, eps, E, t, u):
        scalar = scalar_grid(eps, E, t, u)
        res = max_eps_tilde(eps, E, t, u)
        assert res.alpha_star == GRID_ALPHAS[scalar.index(max(scalar))]
        assert res.rhs_at_opt == separation_rhs(E, res.alpha_star, res.eps_tilde_max)

    def test_grid_is_pow_at_numpy_linspace(self):
        assert [a.hex() for a in bounds._ALPHAS] == [a.hex() for a in GRID_ALPHAS]

    def test_branches_reached(self, monkeypatch):
        # near the cap some alphas admit nothing, and the search still finds the best
        partial = scalar_grid(0.27865, 1e3, 1.0, 0.0)
        assert 0 < partial.count(0.0) < len(GRID_ALPHAS)
        assert max_eps_tilde(0.27865, 1e3, 1.0, 0.0).eps_tilde_max == max(partial) > 0.0
        # at the default point the first candidate ends below the optimum, so
        # the grid search at its hi starts a second round, whose alpha is alpha_star
        original_bisect, original_best = bounds._bisect, bounds._best_alpha
        original_rhs = bounds.separation_rhs
        top = _no_margin_above(eps_cap(1.0, 0.0) - 0.1, 1e3)
        probes = bounds._PROBES

        def traced(probes):
            rounds, searched, evaluated = [], [], []

            def bisect(E, alpha, cap_margin, top, *known):
                start = len(evaluated)
                lo, hi = original_bisect(E, alpha, cap_margin, top, *known)
                rounds.append((alpha, known, lo, hi, evaluated[start:]))
                return lo, hi

            monkeypatch.setattr(bounds, "_PROBES", probes)
            monkeypatch.setattr(bounds, "_bisect", bisect)
            monkeypatch.setattr(bounds, "_best_alpha", lambda E, et, *start:
                                searched.append((et, start)) or original_best(E, et, *start))
            monkeypatch.setattr(bounds, "separation_rhs", lambda E, alpha, et:
                                evaluated.append(et) or original_rhs(E, alpha, et))
            res = max_eps_tilde(*PUBLISHED[3])
            assert len(rounds) == 2
            (first, known, first_lo, first_hi, first_calls), \
                (second, second_known, second_lo, second_hi, second_calls) = rounds
            assert known == ()
            assert first != res.alpha_star and first_lo < res.eps_tilde_max
            assert second == res.alpha_star and second_lo == res.eps_tilde_max
            # round 2 knows its margin is positive at round 1's hi, and evaluates nothing at
            # or below it
            assert second_known == (first_hi, original_rhs(1e3, second, first_hi))
            assert min(second_calls) > first_hi
            # each round evaluates top first, and nothing is evaluated above it
            assert first_calls[0] == second_calls[0] == top
            assert max(evaluated) <= top
            # the first candidate is the closed-form guess at top (the cold search there took
            # 119), and the grid is searched at each round's hi from the candidate
            guess = bounds._alpha_guess(1e3, top)
            assert guess == 118 and first == GRID_ALPHAS[guess]
            assert searched == [(first_hi, (guess,)), (second_hi, (GRID_ALPHAS.index(second),))]
            return res, len(first_calls), len(second_calls)

        # without probes, round 1 evaluates top and then every midpoint at or below it:
        # a bisection to BISECT_TOL takes 27 steps, the first evaluated being the 7th
        # midpoint; round 2 takes round 1's path unevaluated up to where the two part
        walked, first_calls, second_calls = traced(0)
        assert (first_calls, second_calls) == (1 + 27 - 6, 1 + 12)
        # the probes end where the walk does, with fewer calls: top, then 6 and 3 probes
        assert traced(probes) == (walked, 7, 4)

    @pytest.mark.parametrize("eps,E,t,u", PUBLISHED + [
        (0.05, 10.0, 0.9, 0.05),
        (0.27865, 1e3, 1.0, 0.0),
        (0.0, 1e-6, 1.0, 0.0),
        (0.0, 1e300, 1.0, 0.0),
        (0.005, 1e3, 0.7, 0.01),  # cap margin 2.1e-3
    ])
    def test_skipped_midpoints_admit_nothing(self, eps, E, t, u):
        # every midpoint the path takes down unevaluated, the leading ones and
        # the first float above the bound, has no positive margin at any grid alpha
        cap_margin = eps_cap(t, u) - eps
        assert cap_margin > 0.0
        top = _no_margin_above(cap_margin, E)
        skipped, hi = [math.nextafter(top, 1.0)], 1.0 - 1e-12
        while 0.5 * hi > top:
            hi *= 0.5
            skipped.append(hi)
        assert len(skipped) > 1
        for et in skipped:
            assert all(cap_margin - separation_rhs(E, a, et) <= 0.0 for a in GRID_ALPHAS), et

    @pytest.mark.parametrize("point,eps_tilde_max,alpha_star", [
        (PUBLISHED[0], 0.0003167763352390937, 0.0046935461212164725),
        (PUBLISHED[1], 0.0002905577421185449, 0.0046935461212164725),
        (PUBLISHED[2], 0.0013268515467630467, 0.005412632458574202),
        (PUBLISHED[3], 0.003657817840572514, 0.006023364200565755),
    ])
    def test_optimum_unchanged(self, point, eps_tilde_max, alpha_star):
        # recorded from max_eps_tilde's grid optimum
        res = max_eps_tilde(*point)
        assert res.eps_tilde_max == eps_tilde_max
        assert res.alpha_star == alpha_star


class TestConditionSurface:
    def test_grid_shape_and_consistency(self):
        alphas = bounds.log_grid(1e-3, 0.5, 12)
        ets = bounds.linspace(1e-4, 0.01, 10)
        grid = condition_surface(1e3, 1.0, 0.0, alphas, ets)
        assert [len(row) for row in grid] == [10] * 12
        # the margin-vs-zero grid crosses eps=0.1 exactly where the
        # condition flips
        b = BoundInputs(eps=0.1, E=1e3, t=1.0, u=0.0, alpha=alphas[3], eps_tilde=ets[2])
        assert (grid[3][2] > 0.1) == condition_holds(b)

    @pytest.mark.parametrize("E,alphas,ets,match", [
        (0.0, [0.1], [0.01], "E must"),
        (1e3, [0.1, 0.6], [0.01], "alpha must"),
        (1e3, [0.1], [0.01, 1.0], "eps_tilde must"),
    ])
    def test_domain_errors(self, E, alphas, ets, match):
        with pytest.raises(ValueError, match=match):
            condition_surface(E, 1.0, 0.0, alphas, ets)
