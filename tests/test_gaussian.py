import decimal
import math

import numpy as np
import pytest

from cvqpv.gaussian import (
    binary_entropy,
    cutoff_energy,
    cutoff_purified_distance,
    h_tilde,
    h_U_given_P_limit,
    neg_log_rho,
)


def fock_truncated_energy(m0, sigma):
    """Brute-force oracle: mean photon number of the truncated TMSV arm.

    Weights are lambda^(2m) over m = 0 .. 2^m0 - 1, renormalized, with
    lambda = sigma/sqrt(1+sigma^2).
    """
    lam = sigma / math.hypot(1.0, sigma)
    m = np.arange(2**m0, dtype=np.float64)
    w = np.exp(2.0 * m * math.log(lam))
    return float(np.sum(m * w) / np.sum(w))


class TestLambdaOfSigma:
    """lambda(sigma), the Schmidt parameter, as the library holds it: through
    neg_log_rho, with lambda = exp(-x/2) and x = neg_log_rho(sigma). The class
    names the quantity; there is no function of that name."""

    @staticmethod
    def lam(sigma):
        return math.exp(-0.5 * neg_log_rho(sigma))

    def test_large_sigma_limit(self):
        assert self.lam(1e8) == pytest.approx(1.0, abs=1e-15)
        assert neg_log_rho(math.inf) == 0.0

    def test_sigma_one(self):
        assert self.lam(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_sigma_three(self):
        assert self.lam(3.0) == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            neg_log_rho(bad)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(7)
        sigmas = np.sort(rng.uniform(1e-3, 1e3, size=200))
        lams = [self.lam(s) for s in sigmas]
        assert all(0.0 < l < 1.0 for l in lams)
        assert all(a < b for a, b in zip(lams, lams[1:]))


class TestEntropies:
    def test_h_u_given_p_ideal(self):
        assert h_U_given_P_limit(1.0, 0.0) == pytest.approx(1.0471, abs=1e-4)

    def test_h_u_given_p_half_transmission(self):
        assert h_U_given_P_limit(0.5, 0.0) == pytest.approx(1.5471, abs=1e-4)

    def test_h_u_given_p_noisy(self):
        assert h_U_given_P_limit(0.8, 0.05) == pytest.approx(1.2768, abs=1e-4)

    def test_h_u_given_p_needs_positive_t(self):
        with pytest.raises(ValueError):
            h_U_given_P_limit(0.0, 0.0)

    def test_rescaling_chain(self):
        # h(R|R') - h(U|P) = log2(sqrt 2) as sigma -> inf (U = R/(sqrt2 lambda)),
        # with h(R|R') = (1/2) log2(2 pi e Sigma^2) and Sigma^2 -> (1/2 + u)/t
        t, u = 0.7, 0.03
        h_r = 0.5 * math.log2(2.0 * math.pi * math.e * (0.5 + u) / t)
        assert h_r - h_U_given_P_limit(t, u) == pytest.approx(0.5, abs=1e-12)


class TestBinaryEntropies:
    def test_h_tilde_endpoints(self):
        assert h_tilde(0.0) == 0.0
        assert h_tilde(0.6) == 1.0
        assert h_tilde(0.5) == 1.0

    def test_h_tilde_below_half_is_the_binary_entropy(self):
        # 1.0 only from x = 1/2 up: just below it the binary entropy is still under 1
        for x in (0.4999, 0.49995, 0.499999):
            assert h_tilde(x) == binary_entropy(x) < 1.0

    def test_h_tilde_quarter(self):
        assert h_tilde(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h_tilde(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_coincide_on_lower_half(self):
        rng = np.random.default_rng(3)
        for p in rng.uniform(0.0, 0.5, size=200):
            assert h_tilde(p) == binary_entropy(p)


@pytest.mark.parametrize("fn,args,message", [
    (h_U_given_P_limit, (1.0, -0.1), "u must be nonnegative"),
    (binary_entropy, (1.5,), "p must lie in"),
    (h_tilde, (-0.1,), "x must be nonnegative"),
    (neg_log_rho, (0.0,), "sigma must be positive"),
])
def test_input_checks(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def direct_sum_energy(m0, sigma):
    """sum_k k rho^k / sum_k rho^k over k < 2^m0, rho^k = exp(-k log1p(1/sigma^2))."""
    k = np.arange(2**m0, dtype=np.float64)
    w = np.exp(-k * math.log1p(1.0 / sigma**2))
    return math.fsum(k * w) / math.fsum(w)


def decimal_energy(m0, sigma):
    """1/(e^x - 1) - K/(e^(Kx) - 1), K = 2^m0, at x = neg_log_rho(sigma), in 400 digits.

    The float x is taken as exact, so the oracle checks the arithmetic after
    it, past float range included; a mean above the largest float is inf.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 400  # x >= 5e-324, so e^x - 1 keeps 70 digits
        x, big = decimal.Decimal(neg_log_rho(sigma)), decimal.Decimal(2) ** m0
        if x == 0:
            return float((big - 1) / 2)
        tail = big / ((big * x).exp() - 1) if big * x < 10**5 else 0  # else K e^(-Kx) < 1e-40000
        return float(1 / (x.exp() - 1) - tail)


def sigma_of_lambda(lam):
    """Inverse of lambda = sigma/sqrt(1+sigma^2): sigma = lambda / sqrt(1 - lambda^2)."""
    return lam / math.sqrt(1.0 - lam * lam)


class TestCutoff:
    def test_purified_distance_simple(self):
        assert cutoff_purified_distance(1, sigma_of_lambda(0.5)) == pytest.approx(-2.0, rel=1e-14)

    def test_purified_distance_m0_ten(self):
        log2 = cutoff_purified_distance(10, sigma_of_lambda(0.99))
        assert log2 == pytest.approx(1024 * math.log2(0.99), rel=1e-12)
        assert 2.0**log2 == pytest.approx(3.4e-5, rel=0.02)

    def test_purified_distance_lambda_to_one(self):
        assert 2.0 ** cutoff_purified_distance(4, sigma_of_lambda(1 - 1e-12)) == pytest.approx(1.0)

    def test_overflow_guard_reports_log2(self):
        # lambda^(2^70) underflows to 0.0, but its log2 is still reported exactly
        log2 = cutoff_purified_distance(70, sigma_of_lambda(0.5))
        assert 2.0**log2 == 0.0
        assert log2 == pytest.approx(-float(2**70), rel=1e-14)

    def test_log2_saturates_at_minus_inf(self):
        # 2^m0 log2(lambda) leaves float range: the log2 itself saturates
        assert cutoff_purified_distance(1100, 1.0) == -math.inf
        assert cutoff_purified_distance(1023, 1.0) > -math.inf

    @pytest.mark.parametrize("m0", [0, -1, 2.5])
    def test_m0_must_be_a_positive_integer(self, m0):
        with pytest.raises(ValueError, match="m0"):
            cutoff_purified_distance(m0, 1.0)

    def test_energy_hand_value(self):
        assert cutoff_energy(1, 1.0) == pytest.approx(1.0 / 3.0)

    def test_energy_matches_fock_oracle(self):
        for sigma in [1.0, 2.0, 5.0, 10.0]:
            for m0 in range(1, 13):
                closed = cutoff_energy(m0, sigma)
                assert closed == pytest.approx(fock_truncated_energy(m0, sigma), rel=1e-10)

    def test_energy_below_sigma_sq_and_monotone(self):
        # m0 capped where sigma^2 - e stays resolvable in double precision
        for sigma in [1.0, 2.0, 5.0]:
            gaps = []
            for m0 in range(1, 6):
                e = cutoff_energy(m0, sigma)
                assert e < sigma**2
                gaps.append(sigma**2 - e)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_energy_lambda_power_form_cross_check(self):
        # the lambda-power form of the same closed expression
        for sigma, m0 in [(2.0, 4), (5.0, 6)]:
            lam = sigma / math.hypot(1.0, sigma)
            big = 2**m0
            num = lam**2 + (big - 1) * lam ** (2 * big + 2) - big * lam ** (2 * big)
            den = (lam**2 - 1.0) * (lam ** (2 * big) - 1.0)
            assert cutoff_energy(m0, sigma) == pytest.approx(num / den, rel=1e-9)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 1e3, 1e5, 1e6, 1e8])
    def test_energy_matches_direct_sum(self, sigma):
        # the closed form used to cancel to 829.4 at sigma = 1e5, m0 = 1 (exact 0.5)
        for m0 in range(1, 13):
            assert cutoff_energy(m0, sigma) == pytest.approx(
                direct_sum_energy(m0, sigma), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("sigma", [1e8, 1e10])
    def test_energy_where_lambda_rounds_to_one(self, sigma):
        # lambda = sigma/sqrt(1+sigma^2) is 1.0 here; the energy is taken from sigma alone
        assert sigma / math.hypot(1.0, sigma) == 1.0
        for m0 in range(1, 13):
            assert cutoff_energy(m0, sigma) == pytest.approx(
                direct_sum_energy(m0, sigma), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("sigma", [1.0, 10.0, 1e100, 1.3e154, 1.4e154, 1e155, 1e160,
                                       1e200, 1.7976931348623157e308, math.inf])
    def test_energy_past_float_range(self, sigma):
        # from m0 = 1024, 2^m0 and, above sigma = 2^512, sigma^2 leave float range
        for m0 in [1023, 1024, 1025, 1030, 1050, 1100, 2100, 10**4]:
            assert cutoff_energy(m0, sigma) == pytest.approx(decimal_energy(m0, sigma),
                                                             rel=1e-13, abs=0.0)

    def test_energy_at_infinite_sigma(self):
        # the mean (K - 1)/2 of K equal weights: 2^1023 at m0 = 1024, inf from 1025 up
        assert cutoff_energy(1023, math.inf) == math.ldexp(1.0, 1022)
        assert cutoff_energy(1024, math.inf) == cutoff_energy(1024, 1e200) == math.ldexp(1.0, 1023)
        assert cutoff_energy(1025, math.inf) == cutoff_energy(5000, 1e200) == math.inf

    @pytest.mark.parametrize("m0", [0, -1, 2.5])
    def test_energy_m0_must_be_a_positive_integer(self, m0):
        with pytest.raises(ValueError, match="m0"):
            cutoff_energy(m0, 1.0)
