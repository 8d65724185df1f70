"""Feedback capacity and zero-error coding for run-length limited
binary erasure channels.

Each module's __all__ is its public API; the package re-exports them."""

from . import capacity, codec, constraint, markov, sim
from .capacity import *
from .codec import *
from .constraint import *
from .markov import *
from .sim import *

__version__ = "0.1.0"

__all__ = [*capacity.__all__, *codec.__all__, *constraint.__all__, *markov.__all__,
           *sim.__all__, "__version__"]
