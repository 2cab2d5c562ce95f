"""Rates, bounds, and capacities for state-dependent orthogonal relay channels.

The destination knows the i.i.d. state driving all three component channels;
the source and relay do not. The package evaluates the closed-form
cut-set / decode-and-forward / compress-and-forward / partial-decode-compress
expressions for the binary, parallel binary, and Gaussian multihop examples,
and numerically maximises the general single-letter capacity expression for
small discrete models.

The package exports exactly the names each layer lists in its ``__all__``.
"""

from . import errors, info, models, rates, solver
from .errors import *  # noqa: F401,F403
from .info import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__all__ = [name for layer in (errors, info, models, rates, solver) for name in layer.__all__]

__version__ = "0.1.0"
