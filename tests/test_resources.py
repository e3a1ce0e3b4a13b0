import csv
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cvqpv.cli import main
from cvqpv.gaussian import binary_entropy, cutoff_purified_distance
from cvqpv.resources import (
    H_QUARTER,
    N_MAX,
    _cbrt_gap,
    _count_bound_log2,
    corollary_q,
    count_bound_log2,
    q_max,
    resource_report,
    rounding_size_logfactor,
)


class TestNetApproxError:
    def test_sup_delta_attains_half_eps_tilde(self):
        # the composition error (1+d)^3 - 1 of net substitutions reaches et/2 at the
        # supremum d of the rounding factor's net resolution, cbrt((2+et)/2) - 1
        for et in [1e-300, 1e-12, 3.1e-4, 0.004, 0.5, 0.999]:
            error = math.expm1(3.0 * math.log1p(_cbrt_gap(et)))
            assert error == pytest.approx(et / 2.0, rel=1e-12), et


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

    def test_resolvable_from_one_cutoff_up(self):
        # once the cube-root gap stopped cancelling, eps_tilde from 1e-15 to 1e-12
        # no longer switched between an error and a noisy factor; only where
        # 4 / gap overflows (below about 7e-308) is there no factor
        ets = np.logspace(-320, -0.01, 3000).tolist()
        factors = []
        for et in ets:
            try:
                factors.append(rounding_size_logfactor(et))
            except ValueError:
                assert not factors and et < 7e-308
        assert len(factors) >= sum(et >= 7e-308 for et in ets)
        assert all(a > b for a, b in zip(factors, factors[1:]))


class TestCountBound:
    def test_normalized_hand_estimate(self):
        # q at the closed-form budget: first term ~ 12*2^(n+1)*2^(n-10)/2^(2n)
        norm = count_bound_log2(30, 5, 5, 0.004) / 2.0**60  # log2 bound over 2^(2n)
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
            count_bound_log2(64, 5, 5, 0.004)

    def test_limit_is_the_protocols_string_length(self):
        count_bound_log2(N_MAX, 5, 5, 0.004)

    def test_input_validation(self):
        for n, m0, q, et in [(0, 1, 0, 0.004), (10, 0, 0, 0.004), (10, 1, -1, 0.004),
                             (64, 1, 0, 0.004), (10, 1, 0, 1.5)]:
            with pytest.raises(ValueError):
                count_bound_log2(n, m0, q, et)
            if q >= 0:  # q_max scans q itself
                with pytest.raises(ValueError):
                    q_max(n, m0, et)


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
            for n in range(24, N_MAX + 1, 2):
                if n > 2 * (m0 + 5) and n + 2 <= N_MAX:
                    assert q_max(n + 2, m0, 0.004) >= q_max(n, m0, 0.004) + 1

    @pytest.mark.parametrize("et", [1e-12, 0.004, 0.1, 0.5, 0.999])
    def test_equals_public_count_bound_scan(self, et):
        # oracle: the per-q scan with the public, validating count_bound_log2
        def scanned(n, m0):
            q = -1
            while count_bound_log2(n, m0, q + 1, et) < -(2.0**n):
                q += 1
            return q

        for n in range(1, N_MAX + 1):
            for m0 in range(1, 31):
                assert q_max(n, m0, et) == scanned(n, m0), (n, m0)

    def test_corollary_scan(self):
        # closed-form budget always satisfies the counting bound
        for m0 in range(1, 11):
            for n in range(2 * (m0 + 5) + 1, N_MAX + 1):
                q = corollary_q(n, m0)
                if q is None or q < 0:
                    continue
                assert count_bound_log2(n, m0, q, 0.004) < -(2**n)


BITS = 256
with localcontext() as ctx:
    ctx.prec = 120
    LOG2_3 = int(Decimal(3).ln() / Decimal(2).ln() * Decimal(2) ** BITS)  # floor(log2(3) 2^BITS)


def exact_secure(n, s, k_factor):
    """The counting bound at q + m0 = s is below -2^n, in integers (times 4 and 2^BITS).

    (2^(n+1)+1) K 4^s + 4^n (h(1/4) - 1) < -2^n with h(1/4) - 1 = 1 - (3/4) log2 3.
    """
    lhs = (4 * (2 ** (n + 1) + 1) * k_factor * 4**s + 4 * 4**n + 4 * 2**n) << BITS
    rhs = 3 * 4**n * LOG2_3  # 3 4^n log2(3) 2^BITS lies in [rhs, rhs + 3 4^n)
    assert not rhs <= lhs < rhs + 3 * 4**n, ("undecided at this precision", n, s, k_factor)
    return lhs < rhs


class TestFloatDecisionIsExact:
    """q_max's float test count_bound_log2 < -2^n against exact integer arithmetic."""

    def test_ceiled_factor_range(self):
        # the factor falls with eps_tilde: 4 just below 1, 1024 where 4/gap nears float max
        assert math.ceil(rounding_size_logfactor(1.0 - 2.0**-53)) == 4
        assert math.ceil(rounding_size_logfactor(1e-307)) == 1024
        for et in np.logspace(-307, -1e-12, 400).tolist():
            assert 4 <= math.ceil(rounding_size_logfactor(et)) <= 1024

    def test_decision_at_the_float_boundary(self):
        # the bound depends on q + m0 = s only and grows with it, so checking the
        # largest s the floats call secure, and s + 1, checks every s
        def float_secure(n, s, k_factor):
            return _count_bound_log2(n, 1, s - 1, k_factor) < -(2.0**n)

        slack = 0.75 * math.log2(3.0) - 1.0
        for n in range(1, N_MAX + 1):
            head = 4.0**n * slack - 2.0**n
            for k_factor in range(4, 1025):
                s = 1
                if head > 0.0:  # a guess from the bound's log, then walked to the boundary
                    s = max(1, math.floor(math.log(head / ((2.0 ** (n + 1) + 1) * k_factor), 4)))
                while float_secure(n, s + 1, k_factor):
                    s += 1
                while s > 1 and not float_secure(n, s, k_factor):
                    s -= 1
                for point in [s, s + 1] if float_secure(n, s, k_factor) else [s]:
                    assert exact_secure(n, point, k_factor) == float_secure(n, point, k_factor), (
                        n, point, k_factor)

    def test_cli_budget_beyond_forty_is_exact(self, tmp_path):
        def exact_q_max(n, m0, k_factor):
            q = -1
            while exact_secure(n, q + 1 + m0, k_factor):
                q += 1
            return q

        assert main(["resources", "--n", "63", "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r" / "resources.json").read_text())
        assert report["q_max"] == exact_q_max(63, 5, report["k_factor_int"]) > 0
        assert main(["sweep", "--n-lo", "41", "--n-hi", "63", "--out", str(tmp_path / "s")]) == 0
        with open(tmp_path / "s" / "resource_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 23 * 10
        for row in rows:
            n, m0, k_factor = int(row["n"]), int(row["m0"]), int(row["k_factor"])
            assert int(row["q_max"]) == exact_q_max(n, m0, k_factor), row


class TestCutoffSoundness:
    """The report's cutoff_error_log2: log2 lambda^(2^m0) from cutoff_purified_distance."""

    def test_sigma_ten_m0_twelve(self):
        assert cutoff_purified_distance(12, 10.0) == pytest.approx(
            4096 * math.log2(10.0 / math.sqrt(101.0)), rel=1e-12)
        assert cutoff_purified_distance(12, 10.0) == pytest.approx(-29.4, abs=0.05)

    def test_doubles_per_m0_step(self):
        assert cutoff_purified_distance(9, 5.0) == pytest.approx(
            2 * cutoff_purified_distance(8, 5.0), rel=1e-12)

    def test_lambda_to_one_no_suppression(self):
        assert cutoff_purified_distance(4, 1e6) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [1e7, 1e8])
    def test_large_sigma_matches_series(self, sigma):
        # lambda^2 = 1 - 1/(1+sigma^2), so 2 ln lambda = -(x - x^2/2 + ...), x = 1/sigma^2;
        # at sigma = 1e8 lambda itself rounds to 1.0
        x = 1.0 / sigma**2
        expected = -32 * (x - x * x / 2) / (2 * math.log(2.0))
        assert cutoff_purified_distance(5, sigma) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [1e-3, 1.2e-8, 1e-8, 1e-9, 1e-200])
    def test_small_sigma_matches_log2_lambda(self, sigma):
        # 1 + sigma^2 rounds to 1.0 below about 1e-8; lambda = sigma/hypot(1, sigma) does not
        expected = 32 * math.log2(sigma / math.hypot(1.0, sigma))
        assert cutoff_purified_distance(5, sigma) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestResourceReport:
    def test_report_fields(self):
        report = resource_report(30, 5, 0.004, sigma=10.0)
        assert report.k_factor_int == 12
        assert report.q_max >= report.corollary_q == 5
        assert report.log2_count_bound_at_qmax < -(2**30)
        assert report.cutoff_error_log2 < 0.0
