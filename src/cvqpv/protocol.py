"""Session engine for the coherent-state position-verification protocol.

A session of N i.i.d. rounds averages the normalized score
(r' - sqrt(t) r)^2 / (1/2 + u) and compares the mean to the threshold gamma.

Every responder is a ``GaussianResponder``, r' = a r + N(0, v): the honest
prover and the pessimistic attacker. Each residual (a - sqrt(t)) r + noise is
N(0, s^2) with s^2 = (a - sqrt(t))^2 sigma^2 + v, so an untraced session mean
is exactly s^2/(1/2+u) * chi2_N / N: one ``chisquare(N)`` draw per session.
A traced session runs the round engine instead, which draws r, the input
strings x, y, the responses and the N score terms, and keeps them per round.
The basis angle of a round is pi/2 * f(x, y), with f the keyed mix
``protocol_function``.

Determinism contract: a single session draws from the integer seed,
SeedSequence or Generator it is given. A batch of sessions
(``acceptance_rate``) draws from one stream per batch, seeded by the first
SeedSequence child of its master seed, with sessions drawn in order; so
identical seeds give identical results, and a batch of k sessions is the
prefix of any longer batch with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelParams
from .resources import N_MAX

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + _SPLITMIX_GAMMA  # the one copy; uint64 arithmetic wraps mod 2^64
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _parity64(z: np.ndarray) -> np.ndarray:
    return np.bitwise_count(z) & 1


def protocol_function(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Basis bit f(x, y) in {0, 1}: a keyed splitmix mix of the two input strings.

    A modeling stand-in for a uniformly random f: {0,1}^n x {0,1}^n -> {0,1}.
    """
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    return _parity64(_splitmix64(_splitmix64(x ^ np.uint64(seed)) ^ y))


@dataclass(frozen=True)
class ProtocolParams:
    sigma: float
    n: int
    N: int
    eps_hon: float
    f_seed: int = 0
    gamma: float = field(init=False, repr=False, compare=False)  # gamma_threshold(N, eps_hon)

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise ValueError("sigma must be positive and finite")
        if not (1 <= self.n <= N_MAX):  # input strings are uint64 values below 1 << n
            raise ValueError(f"n must lie in [1, {N_MAX}]")
        gamma = gamma_threshold(self.N, self.eps_hon)  # which checks N and eps_hon
        if not (0 <= self.f_seed < 2**64):  # the keyed mix takes it as a uint64
            raise ValueError("f_seed must lie in [0, 2^64)")
        object.__setattr__(self, "gamma", gamma)


def gamma_threshold(N: int, eps_hon: float) -> float:
    """Acceptance threshold gamma = 1 + 2 sqrt(ln(1/eps)/N) + 2 ln(1/eps)/N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (0.0 < eps_hon < 1.0):
        raise ValueError("eps_hon must lie in (0,1)")
    inverse = 1.0 / eps_hon  # inf below about 5.6e-309: only there is -log(eps_hon) taken
    log_term = math.log(inverse) if inverse < math.inf else -math.log(eps_hon)
    return 1.0 + 2.0 / math.sqrt(N) * math.sqrt(log_term) + 2.0 / N * log_term


class GaussianResponder:
    """Responds r' = mean_scale * r + N(0, noise_var), whatever the round's basis."""

    def __init__(self, name: str, mean_scale: float, noise_var: float):
        if not math.isfinite(mean_scale):
            raise ValueError("mean scale must be finite")
        if not (0.0 <= noise_var < math.inf):
            raise ValueError("noise variance must be nonnegative and finite")
        self.name = name
        self.mean_scale = mean_scale
        self.noise_var = noise_var

    def respond(self, r, rng):
        mean = self.mean_scale * r
        if self.noise_var == 0.0:
            return mean
        return mean + rng.normal(0.0, math.sqrt(self.noise_var), size=np.shape(r))


class HonestProver(GaussianResponder):
    """Honest homodyne response N(sqrt(t) r, 1/2 + u)."""

    def __init__(self, ch: ChannelParams):
        super().__init__("honest", math.sqrt(ch.t), 0.5 + ch.u)


class RoundTrace(NamedTuple):
    """Per-round columns of a traced session; element i belongs to round i."""

    basis: np.ndarray  # uint8 f(x, y); the basis angle is pi/2 * basis
    r: np.ndarray
    r_prime: np.ndarray
    score_term: np.ndarray


@dataclass(slots=True)
class SessionResult:
    mean_score: float
    gamma: float
    accepted: bool
    n_rounds: int
    records: Optional[RoundTrace] = None


def _residual_variance(p: ProtocolParams, ch: ChannelParams,
                       responder: GaussianResponder) -> float:
    """Per-round variance s^2 = (a - sqrt(t))^2 sigma^2 + v of r' - sqrt(t) r.

    inf where sigma^2 leaves float range (sigma above about 1.34e154) and the
    gap is not 0, which rejects the session, as the traced engine's inf
    terms do.
    """
    gap = responder.mean_scale - math.sqrt(ch.t)
    # keep this branch: s^2 is v at a zero gap, which the product below misses once
    # sigma^2 leaves float range (0 * inf is nan); it lets simulate --sigma 1e200 run
    if gap == 0.0:
        return responder.noise_var
    try:
        return gap * gap * p.sigma**2 + responder.noise_var
    except OverflowError:  # sigma**2 past float range
        return math.inf


def _round_engine(p: ProtocolParams, ch: ChannelParams, responder: GaussianResponder,
                  rng) -> RoundTrace:
    """Draw r, the input strings, the responses and the N score terms of a traced session."""
    r = rng.normal(0.0, p.sigma, size=p.N)
    x = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
    y = rng.integers(0, 1 << p.n, size=p.N, dtype=np.uint64)
    basis = protocol_function(x, y, p.f_seed)
    r_prime = responder.respond(r, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan terms reject the session
        terms = (r_prime - math.sqrt(ch.t) * r) ** 2 / (0.5 + ch.u)
    return RoundTrace(basis, r, r_prime, terms)


def run_session(
    p: ProtocolParams,
    ch: ChannelParams,
    responder: GaussianResponder,
    rng,
    trace: bool = False,
) -> SessionResult:
    """Run one session of N i.i.d. rounds and apply the score test.

    ``rng`` may be an integer seed, a SeedSequence or a Generator. An
    untraced session draws the session mean s^2/(1/2+u) * chi2_N / N with
    one ``chisquare(N)`` call; a traced one goes through the round engine.
    """
    rng = np.random.default_rng(rng)
    records = None
    if trace:
        records = _round_engine(p, ch, responder, rng)
        mean_score = float(records.score_term.mean())
    else:
        s2 = _residual_variance(p, ch, responder)
        mean_score = s2 / (0.5 + ch.u) * rng.chisquare(p.N) / p.N if s2 > 0.0 else 0.0
    gamma = p.gamma
    return SessionResult(
        mean_score=mean_score,
        gamma=gamma,
        accepted=mean_score < gamma,
        n_rounds=p.N,
        records=records,
    )


def session_seeds(master_seed: int, sessions: int) -> list:
    """The first ``sessions`` SeedSequence children of master_seed.

    Child i is deterministic in (master_seed, i). ``acceptance_rate`` seeds
    the one stream of its batch from child 0, not one stream per session.
    Each child is built directly, with spawn_key (i,): the same entropy and
    pool size as ``SeedSequence(master_seed).spawn``'s, so the same state,
    without mixing the parent's pool only to discard it.
    """
    return [np.random.SeedSequence(master_seed, spawn_key=(i,)) for i in range(sessions)]


def acceptance_rate(
    p: ProtocolParams,
    ch: ChannelParams,
    responder: GaussianResponder,
    sessions: int,
    master_seed: int,
) -> float:
    """Fraction of accepted sessions in a batch drawn from one seeded stream.

    One Generator, seeded by ``session_seeds(master_seed, 1)[0]``, serves the
    whole batch; the sessions draw from it in order, one ``run_session`` call
    each. Session 0 is therefore ``run_session(..., session_seeds(master_seed,
    1)[0])``, and a batch of k sessions is the prefix of any longer batch with
    the same master seed. Each session's mean still follows the exact scaled
    chi2_N law, independently of the others.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    rng = np.random.default_rng(session_seeds(master_seed, 1)[0])
    accepted = sum(run_session(p, ch, responder, rng).accepted for _ in range(sessions))
    return accepted / sessions


def __getattr__(name: str):
    """write_rounds_csv(result, path) for perfbench's self-test; the writer is in cvqpv.cli."""
    if name != "write_rounds_csv":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import write_rounds_csv
    return lambda result, path: write_rounds_csv(result.records, path)
