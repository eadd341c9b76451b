"""Self-organisation metrics and a deterministic evolutionary simulator
for populations of variable-length agent sequences."""

__version__ = "0.1.0"

from . import complexity, core, evolution, harness
from .complexity import *
from .core import *
from .evolution import *
from .harness import *

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__",
    *core.__all__,
    *complexity.__all__,
    *evolution.__all__,
    *harness.__all__,
]
