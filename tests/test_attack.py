import math

import numpy as np
import pytest

from cvqpv.attack import (
    NoMarginError,
    attacker_entropy_floor,
    attacker_r_entropy_floor,
    attacker_score_variance,
    delta_margin,
    fano_mse_floor,
    make_pessimistic_attacker,
    rounds_required,
    score_variance_estimate,
)
from cvqpv.channel import ChannelParams
from cvqpv.gaussian import h_U_given_P_limit
from cvqpv.protocol import HonestProver, gamma_threshold


class TestEntropyFloors:
    def test_perfect_channel_value(self):
        floor = attacker_entropy_floor(ChannelParams(1.0, 0.0), 0.1)
        assert floor.bits == pytest.approx(1.0721, abs=1e-4)

    def test_zero_gap_reduces_to_honest(self):
        ch = ChannelParams(0.9, 0.02)
        assert attacker_entropy_floor(ch, 0.0).bits == pytest.approx(
            h_U_given_P_limit(0.9, 0.02).bits
        )

    def test_noisy_channel_value(self):
        floor = attacker_entropy_floor(ChannelParams(0.8, 0.05), 0.03)
        assert floor.bits == pytest.approx(1.2844, abs=1e-4)

    def test_gap_is_quarter_eps_for_any_channel(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            ch = ChannelParams(rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.3))
            eps = rng.uniform(0.0, 0.3)
            gap = attacker_entropy_floor(ch, eps).bits - h_U_given_P_limit(ch.t, ch.u).bits
            assert gap == pytest.approx(eps / 4.0, rel=1e-12)

    def test_ideal_channel_r_floor(self):
        assert attacker_r_entropy_floor(0.1).bits == pytest.approx(
            0.5 * math.log2(math.pi * math.e) + 0.025
        )


class TestFanoFloor:
    def test_zero_eps_shot_noise(self):
        assert fano_mse_floor(0.0) == 0.5
        assert fano_mse_floor(0.0, "bits") == 0.5

    def test_nats_default(self):
        assert fano_mse_floor(0.1) == pytest.approx(0.5 * math.exp(0.05), rel=1e-12)
        assert fano_mse_floor(0.1) == pytest.approx(0.5256, abs=1e-4)

    def test_bits_variant(self):
        assert fano_mse_floor(0.1, "bits") == pytest.approx(0.5177, abs=1e-4)

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            fano_mse_floor(0.1, "dits")

    @pytest.mark.parametrize("fn,args", [
        (fano_mse_floor, (1500.0,)),                 # exp(750) overflows
        (fano_mse_floor, (2100.0, "bits")),          # 2^1050 overflows
        (attacker_score_variance, (1000.0, 0.0)),    # the floor is finite, its square is not
    ])
    def test_overflow_is_a_value_error_naming_eps(self, fn, args):
        with pytest.raises(ValueError, match="eps = "):
            fn(*args)

    def test_honest_ideal_saturates(self):
        # Gaussian estimator equality case: honest ideal MSE = 1/2 within 1%
        ch = ChannelParams(1.0, 0.0)
        rng = np.random.default_rng(2)
        r = rng.normal(0.0, 10.0, size=10**6)
        r_prime = HonestProver(ch).respond(r, None, rng)
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
        plan = rounds_required(0.1, 0.0, 0.01, score_variance=3.0)
        assert plan.delta > 0.0
        assert plan.N * plan.delta**2 >= 300.0
        # minimality: N-1 fails the margin condition or the budget
        g = gamma_threshold(plan.N - 1, 0.01)
        d = delta_margin(0.1, 0.0, g)
        assert d <= 0.0 or (plan.N - 1) * d * d < 300.0

    def test_zero_eps_no_margin(self):
        with pytest.raises(NoMarginError):
            rounds_required(0.0, 0.0, 0.01)

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
        with pytest.raises(ValueError):
            rounds_required(0.1, 0.0, 0.01, score_variance=-1.0)


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
        r_prime = attacker.respond(r, None, rng)
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
        emp = score_variance_estimate(0.1, 0.0, 10**6, 11)
        assert emp == pytest.approx(attacker_score_variance(0.1, 0.0), rel=0.02)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            score_variance_estimate(0.1, 0.0, 100, 0)
