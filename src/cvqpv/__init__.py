"""Security calculator and Monte Carlo simulator for a coherent-state
position-verification protocol with split classical inputs.

Submodules:

* :mod:`cvqpv.gaussian`  -- Gaussian-state and entropy arithmetic
* :mod:`cvqpv.channel`   -- lossy, noisy quadrature channel model
* :mod:`cvqpv.protocol`  -- round engine, score statistic, acceptance test
* :mod:`cvqpv.bounds`    -- entropy-continuity condition and its optimizer
* :mod:`cvqpv.resources` -- delta-net / rounding / qubit-budget arithmetic
* :mod:`cvqpv.attack`    -- attacker floors and the Chebyshev round count
* :mod:`cvqpv.cli`       -- command-line front end
"""

__version__ = "0.1.0"

from .channel import ChannelParams
from .gaussian import EntropyValue, lambda_of_sigma
from .protocol import HonestProver, ProtocolParams, gamma_threshold, run_session
from .bounds import BoundInputs, BoundResult, condition_holds, eps_cap, max_eps_tilde
from .resources import q_max, resource_report, rounding_size_logfactor
from .attack import fano_mse_floor, make_pessimistic_attacker, rounds_required

__all__ = [
    "__version__",
    "ChannelParams",
    "EntropyValue",
    "lambda_of_sigma",
    "HonestProver",
    "ProtocolParams",
    "gamma_threshold",
    "run_session",
    "BoundInputs",
    "BoundResult",
    "condition_holds",
    "eps_cap",
    "max_eps_tilde",
    "q_max",
    "resource_report",
    "rounding_size_logfactor",
    "fano_mse_floor",
    "make_pessimistic_attacker",
    "rounds_required",
]
