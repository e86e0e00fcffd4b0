"""Quantum-illumination two-way communication: bounds, receivers, link planning.

The library models the binary hypothesis tests faced by Alice (legitimate
receiver) and Eve (passive eavesdropper) in a two-way entanglement-based
communication protocol, computes quantum Chernoff / Bhattacharyya error
bounds for them, models Alice's photon-counting OPA receiver with a Monte
Carlo validator, and plans fiber links.  See the ``qillum`` CLI for the
batch interface.
"""

__version__ = "0.1.0"

from . import gaussian, link, montecarlo, protocol, receivers
from .gaussian import *  # noqa: F403
from .link import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .protocol import *  # noqa: F403
from .receivers import *  # noqa: F403

# Each module's __all__ states its public names; the package re-exports them.
__all__ = [
    "__version__",
    *gaussian.__all__,
    *protocol.__all__,
    *receivers.__all__,
    *montecarlo.__all__,
    *link.__all__,
]
