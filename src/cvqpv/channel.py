"""Quadrature-level model of the lossy, noisy verifier-to-prover link.

Shot-noise convention: the vacuum quadrature variance is 1/2, so an ideal
homodyne measurement of a coherent state displaced by r along the measured
quadrature returns N(r, 1/2). The channel attenuates amplitudes by sqrt(t)
and adds excess noise power u at the output, giving N(sqrt(t)*r, 1/2 + u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: transmissions at or below this admit the generic intercept attack
GENERIC_ATTACK_T = 0.5


@dataclass(frozen=True)
class ChannelParams:
    """Power transmission t in [0,1] and excess noise power u >= 0."""

    t: float
    u: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0,1], got {self.t}")
        if not (0.0 <= self.u < math.inf):
            raise ValueError(f"u must be nonnegative and finite, got {self.u}")

    def feasible(self) -> bool:
        """Necessary condition 4t > e(1+2u) for a positive security gap."""
        return 4.0 * self.t > math.e * (1.0 + 2.0 * self.u)

    def regime_flags(self) -> set:
        flags = set()
        if not self.feasible():
            flags.add("channel-infeasible")
        if self.t <= GENERIC_ATTACK_T:
            flags.add("generic-attack-regime")
        return flags


@dataclass(frozen=True)
class ChallengeDraw:
    """One round's challenge: displacement pair, basis angle, input strings."""

    r: float
    r_perp: float
    theta: float
    x: int
    y: int
    x0: float = field(init=False)
    p0: float = field(init=False)

    def __post_init__(self):
        c, s = math.cos(self.theta), math.sin(self.theta)
        object.__setattr__(self, "x0", self.r * c + self.r_perp * s)
        object.__setattr__(self, "p0", self.r * s - self.r_perp * c)


def sample_challenge(
    sigma: float,
    f: Callable[[int, int], int],
    x: int,
    y: int,
    rng: np.random.Generator,
) -> ChallengeDraw:
    """Draw (r, r_perp) ~ N(0, sigma^2) and set theta = (pi/2) * f(x,y)."""
    if not (sigma > 0.0):
        raise ValueError("sigma must be positive")
    r, r_perp = rng.normal(0.0, sigma, size=2)
    theta = 0.0 if f(x, y) == 0 else math.pi / 2.0
    return ChallengeDraw(r=float(r), r_perp=float(r_perp), theta=theta, x=x, y=y)


def honest_response(
    draw: ChallengeDraw,
    ch: ChannelParams,
    rng: np.random.Generator,
    variance_override: float | None = None,
) -> float:
    """Honest homodyne outcome r' ~ N(sqrt(t)*r, 1/2 + u).

    ``variance_override`` is a test hook (0 gives the deterministic limit).
    """
    var = (0.5 + ch.u) if variance_override is None else variance_override
    mean = math.sqrt(ch.t) * draw.r
    if var == 0.0:
        return mean
    return float(rng.normal(mean, math.sqrt(var)))
