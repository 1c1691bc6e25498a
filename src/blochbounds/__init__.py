"""Bloch correlation tensors of few-qudit states: norms, tight bounds,
separability classification, and a seeded verification harness.

The package exports exactly the names each module lists in its ``__all__``.
"""

from . import basis, bloch, bounds, sampling, serialize, states, sweeps
from .basis import *  # noqa: F403
from .bloch import *  # noqa: F403
from .bounds import *  # noqa: F403
from .sampling import *  # noqa: F403
from .serialize import *  # noqa: F403
from .states import *  # noqa: F403
from .sweeps import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (basis, bloch, bounds, sampling, serialize, states, sweeps)
    for name in module.__all__
]
