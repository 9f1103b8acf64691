"""Clonal interference toolkit.

Event-driven simulation of a system of interacting fitness trajectories,
its finite-population Moran counterpart, linear birth-death oracles, and
renewal-based estimators of the speed of adaptation.

Each module's ``__all__`` is the one list of its public names; the package
republishes them all.
"""

from . import analysis, branching, inputs, moran, pit, rng
from .analysis import *  # noqa: F401,F403
from .branching import *  # noqa: F401,F403
from .inputs import *  # noqa: F401,F403
from .moran import *  # noqa: F401,F403
from .pit import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403

__version__ = "0.1.0"

# input process, trajectory system, finite population, branching oracle,
# analysis, reproducibility; a name two modules export is listed once
__all__ = ["__version__", *dict.fromkeys(
    name for mod in (inputs, pit, moran, branching, analysis, rng) for name in mod.__all__
)]
