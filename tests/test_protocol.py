import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from cvqpv import protocol
from cvqpv.channel import ChannelParams
from cvqpv.cli import write_rounds_csv, write_session_json
from cvqpv.protocol import (
    GaussianResponder,
    HonestProver,
    ProtocolParams,
    RoundTrace,
    acceptance_rate,
    gamma_threshold,
    protocol_function,
    run_session,
    session_seeds,
)


class TestGammaThreshold:
    def test_approaches_one(self):
        assert gamma_threshold(100, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_n400(self):
        assert gamma_threshold(400, 0.01) == pytest.approx(1.237622, abs=1e-5)

    def test_n1e4(self):
        assert gamma_threshold(10**4, 1e-6) == pytest.approx(1.077101, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_threshold(0, 0.01)
        with pytest.raises(ValueError):
            gamma_threshold(100, 1.5)

    @pytest.mark.parametrize("eps_hon,log_term", [(1e-310, 713.801), (5e-324, 744.440)])
    def test_finite_where_the_inverse_overflows(self, eps_hon, log_term):
        # 1/eps_hon is inf here, but ln(1/eps_hon) is not
        assert gamma_threshold(100, eps_hon) == pytest.approx(
            1.0 + 0.2 * math.sqrt(log_term) + 0.02 * log_term, rel=1e-5)

    def test_above_one_and_decreasing_in_n(self):
        prev = math.inf
        for N in [10, 100, 1000, 10**4, 10**6]:
            g = gamma_threshold(N, 0.05)
            assert 1.0 < g < prev
            prev = g


class TestProtocolFunction:
    @pytest.mark.parametrize("n", [6, 40])
    def test_deterministic_in_seed(self, n):
        x = np.arange(64, dtype=np.uint64) << np.uint64(n - 6)
        first = protocol_function(x, x[::-1], 9)
        assert np.array_equal(first, protocol_function(x, x[::-1], 9))
        assert not np.array_equal(first, protocol_function(x, x[::-1], 10))

    @staticmethod
    def _balance(n, seed):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 1 << n, size=20000, dtype=np.uint64)
        y = rng.integers(0, 1 << n, size=20000, dtype=np.uint64)
        bits = protocol_function(x, y, seed)
        assert set(np.unique(bits)) <= {0, 1}
        assert abs(bits.mean() - 0.5) < 0.02

    def test_large_n_prf_balanced(self):
        self._balance(20, 1)

    @pytest.mark.parametrize("n", [8, 12])
    def test_small_n_balanced(self, n):
        # the mix, not a drawn truth table, serves the short strings too
        self._balance(n, 1)

    @staticmethod
    def _copying_splitmix64(z):
        z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    @staticmethod
    def _xor_fold_parity(z):
        for shift in (32, 16, 8, 4, 2, 1):
            z = z ^ (z >> np.uint64(shift))
        return (z & np.uint64(1)).astype(np.uint8)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_equals_the_copying_mix_and_xor_fold_parity(self, seed):
        # the oracle is the mix written with a fresh array per step and a shift-xor parity
        rng = np.random.default_rng(seed % 1000)
        x = rng.integers(0, 2**64, size=50000, dtype=np.uint64, endpoint=False)
        y = rng.integers(0, 2**64, size=50000, dtype=np.uint64, endpoint=False)
        edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        x = np.concatenate([x, np.repeat(edges, 4)])
        y = np.concatenate([y, np.tile(edges, 4)])
        mix = self._copying_splitmix64
        expected = self._xor_fold_parity(mix(mix(x ^ np.uint64(seed)) ^ y))
        x_before, y_before = x.copy(), y.copy()
        bits = protocol_function(x, y, seed)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, expected)
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)  # inputs untouched


def _params(N=1000, eps_hon=0.01, sigma=10.0, n=8):
    return ProtocolParams(sigma=sigma, n=n, N=N, eps_hon=eps_hon)


class TestRunSession:
    def test_perfect_responses_accept(self):
        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=50), ch, GaussianResponder("honest", math.sqrt(ch.t), 0.0), 0)
        assert res.mean_score == 0.0
        assert res.accepted

    def test_zero_residual_variance_draws_nothing(self):
        # s^2 = 0 gives mean 0 without a chisquare draw: the stream is left as it was
        ch = ChannelParams(0.8, 0.05)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        exact = GaussianResponder("exact", math.sqrt(ch.t), 0.0)
        res = run_session(_params(N=50), ch, exact, rng)
        assert res.mean_score == 0.0
        assert rng.bit_generator.state == state

    def test_single_round_edge_case(self):
        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=1), ch, HonestProver(ch), 3)
        assert res.n_rounds == 1
        assert res.mean_score >= 0.0

    def test_reproducible(self):
        ch = ChannelParams(0.8, 0.05)
        r1 = run_session(_params(), ch, HonestProver(ch), 42)
        r2 = run_session(_params(), ch, HonestProver(ch), 42)
        assert r1.mean_score == r2.mean_score
        assert r1.accepted == r2.accepted

    def test_score_terms_mean_one(self):
        # the 1/2+u normalization cancels the response variance exactly
        for t, u in [(1.0, 0.0), (0.8, 0.05), (0.9, 0.12)]:
            ch = ChannelParams(t, u)
            res = run_session(_params(N=4 * 10**5), ch, HonestProver(ch), 5, trace=True)
            assert 0.995 <= res.records.score_term.mean() <= 1.005

    def test_trace_records(self):
        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=20), ch, HonestProver(ch), 1, trace=True)
        for col in res.records:
            assert col.shape == (20,)
        assert (res.records.score_term >= 0.0).all()
        assert res.records.basis.dtype == np.uint8
        assert set(res.records.basis.tolist()) <= {0, 1}

    def test_acceptance_monotone_in_gamma(self):
        # same rounds, looser threshold never flips accept -> reject
        ch = ChannelParams(1.0, 0.0)
        for seed in range(20):
            terms = run_session(_params(N=200), ch, HonestProver(ch), seed,
                                trace=True).records.score_term
            mean = terms.mean()
            gammas = sorted(gamma_threshold(200, e) for e in (0.5, 0.05, 0.005))
            accepted = [mean < g for g in gammas]
            # once accepted at a small gamma, accepted at every larger one
            for a, b in zip(accepted, accepted[1:]):
                assert (not a) or b


@pytest.mark.parametrize("fn,args,message", [
    (ProtocolParams, {"sigma": 10.0, "n": 8, "N": 0, "eps_hon": 0.01}, "N must be >= 1"),
    (ProtocolParams, {"sigma": 10.0, "n": 8, "N": 10, "eps_hon": 1.0}, "eps_hon must lie in"),
    (ProtocolParams, {"sigma": 10.0, "n": 8, "N": 10, "eps_hon": 0.01, "f_seed": 2**64},
     "f_seed must lie in"),
    (gamma_threshold, {"N": 10, "eps_hon": 0.0}, "eps_hon must lie in"),
    (GaussianResponder, {"name": "x", "mean_scale": math.inf, "noise_var": 0.5},
     "mean scale must be finite"),
    (GaussianResponder, {"name": "x", "mean_scale": 1.0, "noise_var": -1.0},
     "noise variance must be"),
    (GaussianResponder, {"name": "x", "mean_scale": 1.0, "noise_var": math.inf},
     "noise variance must be"),
    # a ValueError, not the ZeroDivisionError of 0 / 0
    (acceptance_rate, {"p": _params(N=10), "ch": ChannelParams(1.0, 0.0),
                       "responder": HonestProver(ChannelParams(1.0, 0.0)), "sessions": 0,
                       "master_seed": 1}, "sessions must be >= 1"),
])
def test_input_checks(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(**args)


class TestProtocolParams:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_sigma_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            _params(sigma=sigma)

    @pytest.mark.parametrize("n", [0, 64, 70])
    def test_string_length_range(self, n):
        with pytest.raises(ValueError, match="n must lie in"):
            _params(n=n)

    def test_gamma_is_the_threshold_and_not_compared(self):
        p = _params(N=400, eps_hon=0.01)
        assert p.gamma == gamma_threshold(400, 0.01)
        assert p == _params(N=400, eps_hon=0.01) and "gamma" not in repr(p)
        with pytest.raises(AttributeError):
            p.gamma = 2.0
        assert dataclasses.replace(p, N=10**4).gamma == gamma_threshold(10**4, 0.01)

    def test_longest_strings_trace(self):
        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=20, n=63), ch, HonestProver(ch), 1, trace=True)
        for col in res.records:
            assert col.shape == (20,)


class TestExactSessionLaw:
    """Untraced and traced sessions against the exact law s^2/(1/2+u) * chi2_N / N.

    s^2 = (a - sqrt(t))^2 sigma^2 + v is the per-round residual variance of
    a responder r' = a r + N(0, v). Each statistical assertion below fails
    with probability ALPHA = 1e-6 when the code is correct.
    """

    ALPHA = 1e-6
    N = 50
    SESSIONS = 3000
    CH = ChannelParams(0.8, 0.05)
    SIGMA = 2.0
    CASES = {
        "honest": HonestProver(CH),
        "biased": GaussianResponder("biased", 0.5, 0.3),
    }

    def _s2(self, responder):
        gap = responder.mean_scale - math.sqrt(self.CH.t)
        return gap * gap * self.SIGMA**2 + responder.noise_var

    def _params(self, eps_hon=0.01):
        return _params(N=self.N, eps_hon=eps_hon, sigma=self.SIGMA)

    def test_exact_path_is_one_chisquare_draw(self):
        p = _params(N=139_999)
        honest = HonestProver(self.CH)
        res = run_session(p, self.CH, honest, 7)
        chi2 = np.random.default_rng(7).chisquare(p.N)
        assert res.mean_score == honest.noise_var / (0.5 + self.CH.u) * chi2 / p.N
        assert res.records is None

    def test_traced_mean_is_the_round_engine_by_hand(self):
        p = self._params()
        responder = GaussianResponder("biased", 0.5, 0.3)
        for seed in range(5):
            # the round engine's draws, by hand: r, the strings x and y, then the response noise
            rng = np.random.default_rng(seed)
            r = rng.normal(0.0, p.sigma, size=p.N)
            x = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
            y = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
            r_prime = 0.5 * r + rng.normal(0.0, math.sqrt(0.3), size=p.N)
            rounds = float(((r_prime - math.sqrt(self.CH.t) * r) ** 2 / (0.5 + self.CH.u)).mean())
            traced = run_session(p, self.CH, responder, seed, trace=True)
            assert traced.mean_score == rounds
            assert traced.records.basis.tolist() == protocol_function(x, y, p.f_seed).tolist()
            assert run_session(p, self.CH, responder, seed).mean_score != rounds

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("path", ["exact", "rounds", "batch"])
    def test_session_mean_is_scaled_chi2(self, case, path):
        from scipy import stats

        responder = self.CASES[case]
        s2 = self._s2(responder)
        p = self._params()
        if path == "batch":  # acceptance_rate's sessions: one shared stream, drawn in order
            rng = np.random.default_rng(session_seeds(31, 1)[0])
            sources = [rng] * self.SESSIONS
        else:
            sources = session_seeds(31, self.SESSIONS)
        means = np.array([
            run_session(p, self.CH, responder, s, trace=path == "rounds").mean_score
            for s in sources
        ])
        scaled = means * self.N * (0.5 + self.CH.u) / s2
        pvalue = stats.kstest(scaled, "chi2", args=(self.N,)).pvalue
        assert pvalue > self.ALPHA

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("traced", [False, True], ids=["exact", "rounds"])
    def test_acceptance_count_in_binomial_region(self, case, traced):
        from scipy import special, stats

        responder = self.CASES[case]
        s2 = self._s2(responder)
        p = self._params(eps_hon=0.3)
        exact = float(special.gammainc(self.N / 2.0,
                                       self.N * p.gamma * (0.5 + self.CH.u) / s2 / 2.0))
        assert 0.05 < exact < 0.99  # both outcomes occur: the count check can fail
        if traced:
            count = sum(run_session(p, self.CH, responder, s, trace=True).accepted
                        for s in session_seeds(17, self.SESSIONS))
        else:
            count = round(acceptance_rate(p, self.CH, responder, self.SESSIONS, 17) * self.SESSIONS)
        lo = stats.binom.ppf(self.ALPHA / 2.0, self.SESSIONS, exact)
        hi = stats.binom.isf(self.ALPHA / 2.0, self.SESSIONS, exact)
        assert lo <= count <= hi


class TestBatchStream:
    """acceptance_rate draws its sessions in order from one Generator per batch."""

    CH = ChannelParams(0.8, 0.05)

    def _params(self):
        # eps_hon = 0.3 at N = 50: both outcomes occur (TestExactSessionLaw's binomial case)
        return _params(N=50, eps_hon=0.3, sigma=2.0)

    def test_rate_is_the_shared_stream_count(self):
        p, responder = self._params(), HonestProver(self.CH)
        rng = np.random.default_rng(session_seeds(17, 1)[0])
        accepted = [run_session(p, self.CH, responder, rng).accepted for _ in range(300)]
        assert 0 < sum(accepted) < 300
        # a batch of n sessions is the prefix of any longer batch with the same seed
        for n in (1, 2, 7, 300):
            assert acceptance_rate(p, self.CH, responder, n, 17) == sum(accepted[:n]) / n

    def test_session_zero_is_the_first_seeds_session(self, monkeypatch):
        p, responder = self._params(), GaussianResponder("biased", 0.5, 0.3)
        sessions = []

        def recorded(*args, **kwargs):
            sessions.append(run_session(*args, **kwargs))
            return sessions[-1]

        # acceptance_rate looks run_session up in its module: once per session
        monkeypatch.setattr(protocol, "run_session", recorded)
        acceptance_rate(p, self.CH, responder, 3, 17)
        assert len(sessions) == 3
        first = run_session(p, self.CH, responder, session_seeds(17, 1)[0])
        assert sessions[0].mean_score == first.mean_score
        assert sessions[1].mean_score != first.mean_score


class TestFailureRates:
    def test_honest_failure_below_budget(self):
        ch = ChannelParams(1.0, 0.0)
        rate = 1.0 - acceptance_rate(_params(N=2000, eps_hon=0.05), ch, HonestProver(ch), 1000, 7)
        assert rate <= 0.05

    def test_honest_failure_noisy_edge(self):
        ch = ChannelParams(0.9, 0.2)
        rate = 1.0 - acceptance_rate(_params(N=2000, eps_hon=0.05), ch, HonestProver(ch), 500, 8)
        assert rate <= 0.05

    def test_single_round_rate_well_defined(self):
        ch = ChannelParams(1.0, 0.0)
        rate = 1.0 - acceptance_rate(_params(N=1, eps_hon=0.3), ch, HonestProver(ch), 50, 9)
        assert 0.0 <= rate <= 1.0

    def test_acceptance_rate_deterministic_in_master_seed(self):
        ch = ChannelParams(1.0, 0.0)
        p = _params(N=500)
        r1 = acceptance_rate(p, ch, HonestProver(ch), 40, 123)
        r2 = acceptance_rate(p, ch, HonestProver(ch), 40, 123)
        assert r1 == r2

    def test_session_seeds_stable(self):
        s1 = [s.generate_state(2).tolist() for s in session_seeds(99, 5)]
        s2 = [s.generate_state(2).tolist() for s in session_seeds(99, 5)]
        assert s1 == s2

    @pytest.mark.parametrize("master_seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("sessions", [1, 3])
    def test_session_seeds_equal_spawned_children(self, master_seed, sessions):
        spawned = np.random.SeedSequence(master_seed).spawn(sessions)
        direct = session_seeds(master_seed, sessions)
        assert isinstance(direct, list) and len(direct) == sessions
        for s, d in zip(spawned, direct):
            assert d.generate_state(4).tolist() == s.generate_state(4).tolist()
            assert (d.entropy, d.spawn_key, d.pool_size) == (s.entropy, s.spawn_key, s.pool_size)


class TestEmission:
    def test_round_csv(self, tmp_path):
        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=5), ch, HonestProver(ch), 0, trace=True)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(res.records, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"index,theta,r,r_prime,score_term"
        assert len([l for l in lines if l]) == 6

    def test_round_csv_bytes_pinned(self, tmp_path):
        # bytes of the row-by-row csv.writer trace this writer replaced
        ch = ChannelParams(0.8, 0.05)
        res = run_session(_params(N=50, n=63), ch, HonestProver(ch), 5, trace=True)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(res.records, path)
        data = path.read_bytes()
        lines = data.split(b"\r\n")
        assert lines[:3] == [
            b"index,theta,r,r_prime,score_term",
            b"0,1.5707963267948966,-8.019314252534475,-7.148662161911689,0.001049941368717782",
            b"1,1.5707963267948966,-13.24358995628145,-13.190672543258293,3.290337582288583",
        ]
        assert lines[-2:] == [
            b"49,1.5707963267948966,-2.55790031399391,-1.2123933005168168,2.102943894391213", b""]
        assert len(data) == 3604
        assert hashlib.sha256(data).hexdigest() == (
            "8ccf06a3b176d3fcd059fdbad5b36e44175f49a49f5a9fe9f9fbcd954cadc24c")

    def test_round_csv_theta_is_each_values_repr(self, tmp_path):
        # theta = pi/2 * basis bit, written as the repr of that float
        bits = np.array([0, 1, 1, 0, 0], dtype=np.uint8)
        ones = np.ones(len(bits))
        write_rounds_csv(RoundTrace(bits, ones, ones, ones), tmp_path / "rounds.csv")
        lines = (tmp_path / "rounds.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == [
            repr(b * (math.pi / 2.0)) for b in bits.tolist()]

    def test_overflowing_score_terms_reject_the_session(self):
        # r draws at sigma near the float maximum overflow to inf, and inf - inf is nan:
        # a non-finite mean score is a rejected session, without numpy warnings
        ch = ChannelParams(1.0, 0.0)
        params = ProtocolParams(sigma=1.7976931348623157e308, n=8, N=100, eps_hon=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_session(params, ch, HonestProver(ch), 0, trace=True)
        assert not math.isfinite(res.mean_score)
        assert not res.accepted

    def test_session_json(self, tmp_path):
        import json

        ch = ChannelParams(1.0, 0.0)
        res = run_session(_params(N=5), ch, HonestProver(ch), 0)
        path = tmp_path / "session.json"
        write_session_json(res, path, "honest", [])
        payload = json.loads(path.read_text())
        assert payload["schema"] == "cvqpv.session/1"
        assert payload["accepted"] == res.accepted
