"""Security calculator and Monte Carlo simulator for a coherent-state
position-verification protocol with split classical inputs.

Submodules:

* :mod:`cvqpv.gaussian`  -- Gaussian-state and entropy arithmetic
* :mod:`cvqpv.channel`   -- lossy, noisy quadrature channel model
* :mod:`cvqpv.protocol`  -- round engine, score statistic, acceptance test
* :mod:`cvqpv.bounds`    -- entropy-continuity condition and its optimizer
* :mod:`cvqpv.resources` -- rounding-factor and qubit-budget arithmetic
* :mod:`cvqpv.attack`    -- attacker floors and the Chebyshev round count
* :mod:`cvqpv.cli`       -- command-line front end
"""

__version__ = "0.1.0"
