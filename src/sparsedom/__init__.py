"""Desk-scale sparse domination toolkit: exact dyadic geometry, step
functions, sparse and amalgam operators, truncated singular integrals,
and weighted-norm experiments.

Each module's ``__all__`` is the one list of what it exports; the package
re-exports exactly their union."""

from . import czo, geometry, harness, rational, sparse, stepfn, weights
from .rational import *  # noqa: F403
from .geometry import *  # noqa: F403
from .stepfn import *  # noqa: F403
from .sparse import *  # noqa: F403
from .czo import *  # noqa: F403
from .weights import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name
           for module in (rational, geometry, stepfn, sparse, czo, weights, harness)
           for name in module.__all__]
