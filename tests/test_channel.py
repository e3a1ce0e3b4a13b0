import math

import numpy as np
import pytest

from cvqpv.channel import ChannelParams
from cvqpv.cli import write_rounds_csv
from cvqpv.protocol import (
    GaussianResponder, HonestProver, ProtocolParams, protocol_function, run_session)


class TestFeasibility:
    def test_ideal_channel(self):
        assert ChannelParams(1.0, 0.0).feasible()

    def test_half_transmission(self):
        assert not ChannelParams(0.5, 0.0).feasible()

    def test_boundary_is_infeasible(self):
        # 4t = e exactly in floats at t = e/4: the condition 4t > e(1+2u) is strict
        assert not ChannelParams(math.e / 4.0, 0.0).feasible()

    def test_reference_point(self):
        assert ChannelParams(0.8, 0.05).feasible()

    def test_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = rng.uniform(0.0, 1.0)
            u = rng.uniform(0.0, 0.4)
            ch = ChannelParams(t, u)
            assert ch.feasible() == (4.0 * t > math.e * (1.0 + 2.0 * u))
            if ch.feasible():
                assert ChannelParams(min(1.0, t + 0.1), u).feasible()
            else:
                assert not ChannelParams(t, u + 0.1).feasible()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(1.2, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(0.5, -0.1)

    def test_regime_flags(self):
        assert "generic-attack-regime" in ChannelParams(0.4, 0.0).regime_flags()
        assert "generic-attack-regime" in ChannelParams(0.5, 0.0).regime_flags()  # t <= 1/2
        assert "channel-infeasible" in ChannelParams(0.6, 0.3).regime_flags()
        assert ChannelParams(1.0, 0.0).regime_flags() == set()


class TestSampleChallenge:
    """The challenge draw of the protocol's round engine."""

    def test_empirical_variance(self):
        # r ~ N(0, sigma^2), read off a traced session's r column
        ch = ChannelParams(1.0, 0.0)
        p = ProtocolParams(sigma=2.0, n=8, N=10**4, eps_hon=0.01)
        rs = run_session(p, ch, HonestProver(ch), 3, trace=True).records.r
        assert rs.var() == pytest.approx(4.0, abs=0.25)

    def test_invalid_sigma(self):
        # r ~ N(0, sigma^2) needs sigma > 0; the parameters reject it up front
        with pytest.raises(ValueError):
            ProtocolParams(sigma=0.0, n=8, N=100, eps_hon=0.01)

    @staticmethod
    def _bases(seed, tmp_path):
        """Trace CSV theta texts and f(x, y) for the strings drawn right after r."""
        ch = ChannelParams(1.0, 0.0)
        p = ProtocolParams(sigma=2.0, n=8, N=500, eps_hon=0.01, f_seed=3)
        res = run_session(p, ch, HonestProver(ch), seed, trace=True)
        write_rounds_csv(res.records, tmp_path / "rounds.csv")
        lines = (tmp_path / "rounds.csv").read_text().splitlines()[1:]
        theta = np.array([line.split(",")[1] for line in lines])
        rng = np.random.default_rng(seed)
        rng.normal(0.0, p.sigma, size=p.N)
        x = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
        y = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
        bits = protocol_function(x, y, p.f_seed)
        assert res.records.basis.tolist() == bits.tolist()
        return theta, bits

    def test_theta_zero_algebra(self, tmp_path):
        theta, bits = self._bases(9, tmp_path)
        assert 0 < np.count_nonzero(bits == 0) < len(bits)
        assert (theta[bits == 0] == repr(0 * (math.pi / 2.0))).all()

    def test_theta_pi_half_algebra(self, tmp_path):
        theta, bits = self._bases(9, tmp_path)
        assert 0 < np.count_nonzero(bits == 1) < len(bits)
        assert (theta[bits == 1] == repr(1 * (math.pi / 2.0))).all()


class TestHonestResponse:
    """HonestProver.respond: r' ~ N(sqrt(t) r, 1/2 + u)."""

    def test_deterministic_limit(self):
        ch = ChannelParams(0.64, 0.05)
        prover = GaussianResponder("honest", math.sqrt(ch.t), 0.0)
        r = np.array([1.7, -0.3, 0.0])
        expected = (math.sqrt(ch.t) * r).tolist()
        for seed in (0, 1):
            assert prover.respond(r, np.random.default_rng(seed)).tolist() == expected

    def test_conditional_moments(self):
        # r' ~ N(sqrt(t) r, 1/2 + u): moment test at 3 sigma
        ch = ChannelParams(0.8, 0.05)
        rng = np.random.default_rng(4)
        n = 10**5
        out = HonestProver(ch).respond(np.full(n, 2.5), rng)
        var = 0.5 + ch.u
        se_mean = math.sqrt(var / n)
        assert out.mean() == pytest.approx(math.sqrt(0.8) * 2.5, abs=3 * se_mean)
        se_var = var * math.sqrt(2.0 / n)
        assert out.var() == pytest.approx(var, abs=3 * se_var)

    def test_mean_attenuation(self):
        # fixed r = 5, t = 0.64: mean of r'/r -> 0.8 within 1%
        ch = ChannelParams(0.64, 0.0)
        rng = np.random.default_rng(5)
        out = HonestProver(ch).respond(np.full(10**5, 5.0), rng)
        assert (out / 5.0).mean() == pytest.approx(0.8, abs=0.008)
