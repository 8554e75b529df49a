"""Learning from same/different pair labels.

The package trains two-part classifiers (a hidden network mapped onto a
sphere, plus a norm-capped linear head) from pairwise same-class /
different-class annotations, releases record-disjoint label-free pair
files with an attack simulator to measure what they leak, and verifies
the underlying finite-problem optimality claims by brute force.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import cli, config, data, harness, io, losses, model, pairing, privacy, rng, theory, trainer
from .cli import *
from .config import *
from .data import *
from .harness import *
from .io import *
from .losses import *
from .model import *
from .pairing import *
from .privacy import *
from .rng import *
from .theory import *
from .trainer import *

__version__ = "0.1.0"

_MODULES = (cli, config, data, harness, io, losses, model, pairing, privacy, rng, theory, trainer)
__all__ = [name for module in _MODULES for name in module.__all__]
