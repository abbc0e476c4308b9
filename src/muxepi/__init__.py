"""Coupled awareness-disease spreading on two-layer multiplex networks.

The package re-exports each module's `__all__`, the one list of its public names.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InvalidArgumentError, MuxepiError, NonConvergenceError
from .graph import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .mmca import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
