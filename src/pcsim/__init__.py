"""Privacy-protected multi-agent consensus under finite bit rates.

Simulates average-consensus protocols that broadcast state innovations
instead of states — unquantized (bit-exact match with the classical
iteration) and quantized with a contracting dynamic range — and
quantifies what an eavesdropper that intercepts each broadcast with
probability gamma can reconstruct.
"""

# the root re-exports each module's __all__, so a name is made public in one place
from . import adversary, errors, graph, harness, metrics, protocols, quantizer
from .adversary import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .protocols import *  # noqa: F401,F403
from .quantizer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *adversary.__all__,
    *errors.__all__,
    *graph.__all__,
    *harness.__all__,
    *metrics.__all__,
    *protocols.__all__,
    *quantizer.__all__,
    "__version__",
]
