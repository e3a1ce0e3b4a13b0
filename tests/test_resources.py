import math

import numpy as np
import pytest

from cvqpv.gaussian import binary_entropy
from cvqpv.resources import (
    H_QUARTER,
    ResourceInputs,
    corollary_q,
    count_bound_log2,
    count_bound_normalized,
    cutoff_soundness,
    delta_for,
    net_approx_error,
    net_cardinality_log2,
    q_max,
    resource_report,
    rounding_size_logfactor,
)


class TestNetCardinality:
    def test_delta_two(self):
        assert net_cardinality_log2(2.0, 1) == pytest.approx(1.0)

    def test_fine_net(self):
        assert net_cardinality_log2(0.01, 4) == pytest.approx(4 * math.log2(201.0), rel=1e-12)
        assert net_cardinality_log2(0.01, 4) == pytest.approx(30.60, abs=0.01)

    def test_linear_in_dimension(self):
        assert net_cardinality_log2(0.3, 8) == pytest.approx(2 * net_cardinality_log2(0.3, 4))

    def test_domain(self):
        with pytest.raises(ValueError):
            net_cardinality_log2(0.0, 4)


class TestNetApproxError:
    def test_identity(self):
        assert net_approx_error(0.1) == pytest.approx(0.331, rel=1e-12)
        assert net_approx_error(0.0) == 0.0

    def test_sup_delta_attains_half_eps_tilde(self):
        for et in [0.004, 0.00031, 0.5]:
            sup_delta = ((2.0 + et) / 2.0) ** (1.0 / 3.0) - 1.0
            assert net_approx_error(sup_delta) == pytest.approx(et / 2.0, rel=1e-12)

    def test_chosen_delta_strictly_below(self):
        rng = np.random.default_rng(13)
        for et in rng.uniform(1e-5, 0.99, size=100):
            assert net_approx_error(delta_for(et)) < et / 2.0


class TestRoundingFactor:
    def test_reference_value(self):
        factor = rounding_size_logfactor(0.004)
        assert 11.0 < factor <= 12.0
        assert math.ceil(factor) == 12

    def test_small_eps_tilde(self):
        assert rounding_size_logfactor(0.00031) == pytest.approx(15.24, abs=0.01)

    def test_near_one(self):
        assert rounding_size_logfactor(1.0 - 1e-9) == pytest.approx(
            math.log2(1.0 + 4.0 / (12.0 ** (1.0 / 3.0) - 2.0)), abs=1e-6
        )
        assert rounding_size_logfactor(1.0 - 1e-9) == pytest.approx(3.89, abs=0.01)

    def test_strictly_decreasing(self):
        ets = np.linspace(1e-4, 0.999, 200)
        factors = [rounding_size_logfactor(e) for e in ets]
        assert all(a > b for a, b in zip(factors, factors[1:]))


class TestCountBound:
    def test_normalized_hand_estimate(self):
        # q at the closed-form budget: first term ~ 12*2^(n+1)*2^(n-10)/2^(2n)
        norm = count_bound_normalized(30, 5, 5, 0.004)
        assert norm == pytest.approx(12.0 * 2.0 / 2.0**10 + H_QUARTER - 1.0, rel=1e-3)
        assert norm < -(2.0**-30)

    def test_security_threshold(self):
        assert count_bound_log2(30, 5, 5, 0.004) < -(2**30)

    def test_too_many_qubits_positive(self):
        n, m0 = 20, 5
        q = (2 * n - 2 * m0) // 2  # 2q + 2m0 = 2n
        assert count_bound_log2(n, m0, q, 0.004) > 0.0

    def test_h_quarter_shared_oracle(self):
        assert H_QUARTER == binary_entropy(0.25)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            count_bound_log2(41, 5, 5, 0.004)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ResourceInputs(0, 1, 0, 0.004)
        with pytest.raises(ValueError):
            ResourceInputs(10, 1, 0, 1.5)


class TestQMax:
    def test_reference_point(self):
        assert q_max(30, 5, 0.004) >= 5

    def test_corollary_regime_check(self):
        assert corollary_q(20, 5) is None  # n = 2(m0+5) exactly
        assert corollary_q(30, 5) == 5

    def test_no_budget(self):
        assert q_max(10, 9, 0.004) == -1

    def test_linear_growth_in_n(self):
        for m0 in range(3, 8):
            for n in range(24, 37, 2):
                if n > 2 * (m0 + 5) and n + 2 <= 40:
                    assert q_max(n + 2, m0, 0.004) >= q_max(n, m0, 0.004) + 1

    @pytest.mark.parametrize("et", [1e-12, 0.004, 0.1, 0.5, 0.999])
    def test_equals_public_count_bound_scan(self, et):
        # oracle: the per-q scan with the public, validating count_bound_log2
        def scanned(n, m0):
            q = -1
            while count_bound_log2(n, m0, q + 1, et) < -(2.0**n):
                q += 1
            return q

        for n in range(1, 41):
            for m0 in range(1, 31):
                assert q_max(n, m0, et) == scanned(n, m0), (n, m0)

    def test_corollary_scan(self):
        # closed-form budget always satisfies the counting bound
        for m0 in range(1, 11):
            for n in range(2 * (m0 + 5) + 1, 41):
                q = corollary_q(n, m0)
                if q is None or q < 0:
                    continue
                assert count_bound_log2(n, m0, q, 0.004) < -(2**n)


class TestCutoffSoundness:
    def test_sigma_ten_m0_twelve(self):
        assert cutoff_soundness(12, 10.0) == pytest.approx(4096 * math.log2(10.0 / math.sqrt(101.0)),
                                                           rel=1e-12)
        assert cutoff_soundness(12, 10.0) == pytest.approx(-29.4, abs=0.05)

    def test_doubles_per_m0_step(self):
        assert cutoff_soundness(9, 5.0) == pytest.approx(2 * cutoff_soundness(8, 5.0), rel=1e-12)

    def test_lambda_to_one_no_suppression(self):
        assert cutoff_soundness(4, 1e6) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [1e7, 1e8])
    def test_large_sigma_matches_series(self, sigma):
        # lambda^2 = 1 - 1/(1+sigma^2), so 2 ln lambda = -(x - x^2/2 + ...), x = 1/sigma^2;
        # at sigma = 1e8 lambda itself rounds to 1.0
        x = 1.0 / sigma**2
        expected = -32 * (x - x * x / 2) / (2 * math.log(2.0))
        assert cutoff_soundness(5, sigma) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [1e-3, 1.2e-8, 1e-8, 1e-9, 1e-200])
    def test_small_sigma_matches_log2_lambda(self, sigma):
        # 1 + sigma^2 rounds to 1.0 below about 1e-8; lambda = sigma/hypot(1, sigma) does not
        expected = 32 * math.log2(sigma / math.hypot(1.0, sigma))
        assert cutoff_soundness(5, sigma) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestResourceReport:
    def test_report_fields(self):
        report = resource_report(30, 5, 0.004, sigma=10.0)
        assert report.k_factor_int == 12
        assert report.q_max >= report.corollary_q == 5
        assert report.log2_count_bound_at_qmax < -(2**30)
        assert report.cutoff_error_log2 < 0.0
