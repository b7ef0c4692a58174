"""State-vector lab for hidden-key oracle circuits.

Five reversible oracles built from one truth table, four one-or-two-call
recovery pipelines, closed-form references for every intermediate state,
and dense-matrix certification (unitary, self-adjoint, permutation or
signed-diagonal structure) for every oracle kind.  The ``bvlab`` console
script fronts the same machinery.
"""

from . import bitstring, errors, oracles, pipelines, statevector, truthtable
from .bitstring import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .pipelines import *  # noqa: F401,F403
from .statevector import *  # noqa: F401,F403
from .truthtable import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module names its public API once, in its own __all__.
__all__ = [
    *bitstring.__all__,
    *errors.__all__,
    *truthtable.__all__,
    *statevector.__all__,
    *oracles.__all__,
    *pipelines.__all__,
    "__version__",
]
