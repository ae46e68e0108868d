"""Optimal control on matrix Lie groups with scalar-line realizations.

Four groups (rotations, special unitary, real special linear, and the
2+1 indefinite-signature rotations), their quadratic-cost extremal flows,
the reduced body-velocity equations, fractional-linear line actions with
their Riccati control fields, closed-form symmetric-case solutions, and
numerical certification checks over all of it.
"""

from ._version import __version__
from . import actions, dynamics, errors, groups, verify
from .errors import *
from .groups import *
from .actions import *
from .dynamics import *
from .verify import *

__all__ = ["__version__", *errors.__all__, *groups.__all__, *actions.__all__,
           *dynamics.__all__, *verify.__all__]
