"""Quadrature-level model of the lossy, noisy verifier-to-prover link.

Shot-noise convention: the vacuum quadrature variance is 1/2, so an ideal
homodyne measurement of a coherent state displaced by r along the measured
quadrature returns N(r, 1/2). The channel attenuates amplitudes by sqrt(t)
and adds excess noise power u at the output, giving N(sqrt(t)*r, 1/2 + u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: transmissions at or below this admit the generic intercept attack
GENERIC_ATTACK_T = 0.5


def feasibility_margin(t: float, u: float) -> float:
    """4t - e(1+2u): positive exactly on feasible channels."""
    return 4.0 * t - math.e * (1.0 + 2.0 * u)


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
        return feasibility_margin(self.t, self.u) > 0.0

    def regime_flags(self) -> set:
        flags = set()
        if not self.feasible():
            flags.add("channel-infeasible")
        if self.t <= GENERIC_ATTACK_T:
            flags.add("generic-attack-regime")
        return flags
