"""Reduced-model toolchain for longitudinal vehicle speed planning and control.

Modules roughly follow the workflow order:

- ``plant``: high-fidelity longitudinal vehicle simulators (data source
  and closed-loop testbed),
- ``sysid``: gray-box identification of the reduced model,
- ``tempo``: timing optimization of the speed reference over a route,
- ``controller``: gain-scheduled PI tracking controller with feedforward
  derived from the reduced model,
- ``lqr``: discrete-time LQR machinery, a data-driven policy-iteration
  variant, and the parasitic-dynamics robustness study,
- ``harness``: end-to-end pipeline, reports, and comparisons,
- ``config`` / ``cli``: scenario definitions and the command line tool.
"""

from .errors import (ConfigError, EstimationError, InfeasibleError,
                     ModruError, NumericalError, PolicyIterationError,
                     SimulationDivergence)

__all__ = [
    "ConfigError",
    "EstimationError",
    "InfeasibleError",
    "ModruError",
    "NumericalError",
    "PolicyIterationError",
    "SimulationDivergence",
]

__version__ = "0.1.0"
