"""Double linear long-short trading policy.

Closed-form expected cumulative gain-loss and variance for time-varying
weight schedules, an independent elementary-symmetric-polynomial
formulation for cross-checks, a robust positive expectation certificate,
a jump-diffusion Monte Carlo engine, and a CSV backtest engine.
"""

from . import analytics, backtest, esp, policy, simulate, weights
from .analytics import *
from .backtest import *
from .esp import *
from .policy import *
from .simulate import *
from .weights import *

__version__ = "0.1.0"

__all__ = (
    analytics.__all__ + backtest.__all__ + esp.__all__ + policy.__all__
    + simulate.__all__ + weights.__all__ + ["__version__"]
)
