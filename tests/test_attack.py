import math
from fractions import Fraction

import numpy as np
import pytest

from cvqpv import attack
from cvqpv.attack import (
    N_SEARCH_CAP,
    NoMarginError,
    attacker_entropy_floor,
    attacker_score_variance,
    delta_margin,
    fano_mse_floor,
    make_pessimistic_attacker,
    rounds_required,
)
from cvqpv.channel import ChannelParams
from cvqpv.gaussian import h_U_given_P_limit
from cvqpv.protocol import HonestProver, gamma_threshold


class TestEntropyFloors:
    def test_perfect_channel_value(self):
        floor = attacker_entropy_floor(ChannelParams(1.0, 0.0), 0.1)
        assert floor == pytest.approx(1.0721, abs=1e-4)

    def test_zero_gap_reduces_to_honest(self):
        ch = ChannelParams(0.9, 0.02)
        assert attacker_entropy_floor(ch, 0.0) == pytest.approx(
            h_U_given_P_limit(0.9, 0.02)
        )

    def test_noisy_channel_value(self):
        floor = attacker_entropy_floor(ChannelParams(0.8, 0.05), 0.03)
        assert floor == pytest.approx(1.2844, abs=1e-4)

    def test_gap_is_quarter_eps_for_any_channel(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            ch = ChannelParams(rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.3))
            eps = rng.uniform(0.0, 0.3)
            gap = attacker_entropy_floor(ch, eps) - h_U_given_P_limit(ch.t, ch.u)
            assert gap == pytest.approx(eps / 4.0, rel=1e-12)

    def test_ideal_channel_r_floor(self):
        # R = sqrt(2) U at lambda = 1 adds half a bit: h(R|R') floor at t=1, u=0
        r_floor = attacker_entropy_floor(ChannelParams(1.0, 0.0), 0.1) + 0.5
        assert r_floor == pytest.approx(0.5 * math.log2(math.pi * math.e) + 0.025)


class TestFanoFloor:
    def test_zero_eps_shot_noise(self):
        assert fano_mse_floor(0.0) == 0.5
        assert fano_mse_floor(0.0 * math.log(2.0)) == 0.5  # a gap of 0 bits

    def test_nats_default(self):
        assert fano_mse_floor(0.1) == pytest.approx(0.5 * math.exp(0.05), rel=1e-12)
        assert fano_mse_floor(0.1) == pytest.approx(0.5256, abs=1e-4)

    def test_bits_variant(self):
        # a gap of b bits is b ln 2 nats: the floor (1/2) 2^(b/2)
        assert fano_mse_floor(0.1 * math.log(2.0)) == pytest.approx(0.5177, abs=1e-4)

    @pytest.mark.parametrize("fn,args", [
        (fano_mse_floor, (1500.0,)),                 # exp(750) overflows
        (fano_mse_floor, (2100.0 * math.log(2.0),)),  # 2100 bits: 2^1050 overflows
        (attacker_score_variance, (1000.0, 0.0)),    # the floor is finite, its square is not
        (attacker_score_variance, (709.5, 0.0)),     # the square is finite, twice it is not
    ])
    def test_overflow_is_a_value_error_naming_eps(self, fn, args):
        with pytest.raises(ValueError, match="eps = "):
            fn(*args)

    def test_honest_ideal_saturates(self):
        # Gaussian estimator equality case: honest ideal MSE = 1/2 within 1%
        ch = ChannelParams(1.0, 0.0)
        rng = np.random.default_rng(2)
        r = rng.normal(0.0, 10.0, size=10**6)
        r_prime = HonestProver(ch).respond(r, rng)
        mse = float(np.mean((r_prime - r) ** 2))
        assert mse == pytest.approx(0.5, rel=0.01)


class TestDeltaMargin:
    def test_asymptotic_value(self):
        assert delta_margin(0.1, 0.0, 1.0) == pytest.approx(math.exp(0.05) - 1.0, rel=1e-12)
        assert delta_margin(0.1, 0.0, 1.0) == pytest.approx(0.0513, abs=1e-4)

    def test_zero_gap_zero_margin(self):
        assert delta_margin(0.0, 0.0, 1.0) == 0.0

    def test_noise_eats_margin(self):
        assert delta_margin(0.1, 0.05, 1.01) == pytest.approx(-0.0543, abs=1e-4)


class TestRoundsRequired:
    def test_self_consistency(self):
        plan = rounds_required(0.1, 0.0, 0.01)
        target = plan.score_variance / 0.01
        assert plan.delta > 0.0
        assert plan.N * plan.delta**2 >= target
        # minimality: N-1 fails the margin condition or the budget
        g = gamma_threshold(plan.N - 1, 0.01)
        d = delta_margin(0.1, 0.0, g)
        assert d <= 0.0 or (plan.N - 1) * d * d < target

    def test_zero_eps_no_margin(self):
        # Delta(inf) = 0: refused before the search, whose own error would read "no N <= ..."
        with pytest.raises(NoMarginError, match="asymptotic Delta <= 0"):
            rounds_required(0.0, 0.0, 0.01)

    def test_huge_noise_no_margin(self):
        # the attacker's variance underflows to 0 here; the margin is checked first
        assert attacker_score_variance(0.1, 1e200) == 0.0
        with pytest.raises(NoMarginError):
            rounds_required(0.1, 1e200, 0.01)

    def test_scaling_with_eps_hon(self):
        # in the large-N regime Delta is nearly constant: N ~ 1/eps_hon
        n1 = rounds_required(0.1, 0.0, 1e-4).N
        n2 = rounds_required(0.1, 0.0, 1e-6).N
        assert 80.0 < n2 / n1 < 120.0

    def test_default_variance_is_attacker_variance(self):
        plan = rounds_required(0.1, 0.0, 0.01)
        assert plan.score_variance == pytest.approx(attacker_score_variance(0.1, 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            rounds_required(0.1, 0.0, 1.5)

    def test_negative_margin_never_meets_the_test(self, monkeypatch):
        # N Delta^2 grows again below Delta = 0: at N = 1, Delta = -3 gives 9 >= var / eps_hon.
        # The test must fail there to be monotone in N. The closed-form guess lands near
        # N = 5454, far above; a scan up from N = 1 asks the test there first
        assert delta_margin(0.1, 0.0, gamma_threshold(1, 0.5)) < -2.9
        plan = rounds_required(0.1, 0.0, 0.5)
        assert plan.N == 5454 and plan.delta > 0.0

        # a scan up from index 0 (N = 1), as valid a search of a monotone test
        def scan(holds, last, start=None):
            return next((j for j in range(last) if holds(j)), last)

        monkeypatch.setattr(attack, "_first", scan)
        assert rounds_required(0.1, 0.0, 0.5) == plan

    @pytest.mark.parametrize("eps,u,eps_hon", [
        (0.1, 0.0, 0.01),  # the default plan
        (0.1, 0.0, 0.5),
        (0.3, 0.02, 1e-6),  # N = 183,593,842
        (700.0, 0.0, 0.001),  # decided exactly, at N = 2/eps_hon
        (700.0, 0.0, 1e-9),  # no N up to the cap
        (0.5, 0.1, 1e-300),  # none either: N would pass 1e9
    ])
    def test_every_guess_gives_the_same_plan(self, monkeypatch, eps, u, eps_hon):
        # the guess only says where to ask the exact test first: from 1 the search
        # gallops up, from the cap down, and from either side of N both ways
        try:
            plan = rounds_required(eps, u, eps_hon)
            guesses = [plan.N - 1000, plan.N - 1, plan.N, plan.N + 1, plan.N + 1000]
        except NoMarginError as e:
            plan, guesses = str(e), [2, 10**6]
        for guess in [1, N_SEARCH_CAP] + [g for g in guesses if 1 <= g <= N_SEARCH_CAP]:
            monkeypatch.setattr(attack, "_rounds_guess", lambda *args: guess)
            try:
                assert rounds_required(eps, u, eps_hon) == plan, guess
            except NoMarginError as e:
                assert str(e) == plan, guess

    def test_guess_is_close_at_the_default_plan(self, monkeypatch):
        # the closed form lands on N = 139,999: the test is asked there and one below
        asked = []
        monkeypatch.setattr(attack, "gamma_threshold",
                            lambda N, eps_hon: asked.append(N) or gamma_threshold(N, eps_hon))
        assert rounds_required(0.1, 0.0, 0.01).N == 139_999
        assert asked == [139_999, 139_998, 139_999]  # the last gives the plan's gamma

    @pytest.mark.parametrize("eps,u,eps_hon,N", [
        (100.0, 0.0, 0.01, 201),  # the rounded test passed at 200
        (300.0, 0.05, 0.001, 2001),  # and at 2000
        (700.0, 2.0, 0.1, 21),  # and at 20
        (100.0, 0.0, 0.1, 20),  # the rounded test failed here
        (700.0, 0.0, 0.001, 2000),
        (0.1, 0.0, 0.01, 139_999),  # the default plan, away from any tie
    ])
    def test_decided_exactly_on_the_floats(self, eps, u, eps_hon, N):
        # at large eps gamma is below an ulp of the floor, so N d^2 and
        # var / eps_hon tie to within rounding at N = 2/eps_hon
        target = Fraction(attacker_score_variance(eps, u)) / Fraction(eps_hon)

        def holds(n):
            d = delta_margin(eps, u, gamma_threshold(n, eps_hon))
            return d > 0.0 and n * Fraction(d) ** 2 >= target

        assert rounds_required(eps, u, eps_hon).N == N
        assert holds(N) and not holds(N - 1)

    def test_exact_tie_meets_the_test(self):
        # u makes 1/2 + u divide the floor to 2^143, so Delta(N) is 2^143 in
        # floats, var is 2^287 and N Delta^2 equals var / eps_hon exactly at N = 4
        v = fano_mse_floor(200.0)
        u = v / 2.0 ** math.floor(math.log2(v)) - 0.5
        assert delta_margin(200.0, u, gamma_threshold(4, 0.5)) == 2.0**143
        assert attacker_score_variance(200.0, u) == 2.0**287
        assert rounds_required(200.0, u, 0.5).N == 4

    def test_overflowing_target_is_not_met_by_an_overflowing_product(self, monkeypatch):
        # var / eps_hon overflows to inf; so did N d^2 at N = 17,725, which passed
        # the rounded test, while the exact N is about 2/eps_hon = 2e9
        assert attacker_score_variance(700.0, 0.0) / 1e-9 == math.inf
        asked = []
        monkeypatch.setattr(attack, "gamma_threshold",
                            lambda N, eps_hon: asked.append(N) or gamma_threshold(N, eps_hon))
        with pytest.raises(NoMarginError, match="no N <="):
            rounds_required(700.0, 0.0, 1e-9)
        # the guess lands on the cap, where the test fails: nothing above it is asked
        assert asked == [N_SEARCH_CAP]


@pytest.mark.parametrize("fn,args,message", [
    (attacker_entropy_floor, (ChannelParams(1.0, 0.0), -0.1), "eps must be nonnegative"),
    (fano_mse_floor, (-0.1,), "eps must be nonnegative"),
    (delta_margin, (0.1, -0.1, 1.0), "u must be nonnegative"),
    # eps = 0 has no margin either; eps_hon is checked first
    (rounds_required, (0.0, 0.0, 1.5), "eps_hon must lie in"),
])
def test_input_checks(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


class TestPessimisticAttacker:
    def test_zero_eps_matches_honest_model(self):
        ch = ChannelParams(1.0, 0.0)
        attacker = make_pessimistic_attacker(0.0, ch)
        honest = HonestProver(ch)
        assert attacker.noise_var == honest.noise_var == 0.5
        assert attacker.mean_scale == honest.mean_scale

    def test_saturates_mse_floor(self):
        ch = ChannelParams(0.8, 0.05)
        attacker = make_pessimistic_attacker(0.1, ch)
        rng = np.random.default_rng(5)
        r = rng.normal(0.0, 10.0, size=10**6)
        r_prime = attacker.respond(r, rng)
        mse = float(np.mean((r_prime - math.sqrt(0.8) * r) ** 2))
        assert mse == pytest.approx(fano_mse_floor(0.1), rel=0.01)


class TestScoreVariance:
    def test_honest_case_chi_squared(self):
        # v = 1/2 + u gives variance exactly 2
        assert attacker_score_variance(0.0, 0.0) == pytest.approx(2.0)

    def test_closed_form_value(self):
        assert attacker_score_variance(0.1, 0.0) == pytest.approx(2.0 * math.exp(0.1), rel=1e-12)
        assert attacker_score_variance(0.1, 0.0) == pytest.approx(2.210, abs=1e-3)

    def test_scales_with_squared_floor(self):
        ratio = attacker_score_variance(0.2, 0.0) / attacker_score_variance(0.1, 0.0)
        assert ratio == pytest.approx((fano_mse_floor(0.2) / fano_mse_floor(0.1)) ** 2, rel=1e-12)

    def test_empirical_matches_exact(self):
        # score terms (r' - sqrt(t) r)^2 / (1/2+u) of the pessimistic attacker
        ch = ChannelParams(1.0, 0.0)
        rng = np.random.default_rng(11)
        r = rng.normal(0.0, 10.0, size=10**6)
        r_prime = make_pessimistic_attacker(0.1, ch).respond(r, rng)
        terms = (r_prime - r) ** 2 / 0.5
        assert terms.var(ddof=1) == pytest.approx(attacker_score_variance(0.1, 0.0), rel=0.02)
