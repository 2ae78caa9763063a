"""Exact combinatorics of motivic decompositions of Severi-Brauer varieties.

The package mechanizes the split-level bookkeeping of Chow motives of
Severi-Brauer varieties of p-primary division algebras: Gaussian binomials
and box-bounded partition counts with arbitrary-precision integers, formal
direct sums of Tate-twisted motives under Krull-Schmidt semantics, the
function-field decomposition rules with their conservation identities, and a
rule calculus that derives type bounds, indecomposability and rigidity
conclusions as replayable proof traces.
"""

from . import motive, qpoly, severi_brauer, type_calculus, verify
from .errors import DomainError, EngineError, UnsupportedOperationError
from .motive import *
from .qpoly import *
from .severi_brauer import *
from .type_calculus import *
from .verify import *

__version__ = "0.1.0"

# One list per module: the package exports exactly the modules' exports.
__all__ = [
    "EngineError",
    "DomainError",
    "UnsupportedOperationError",
    *qpoly.__all__,
    *motive.__all__,
    *severi_brauer.__all__,
    *type_calculus.__all__,
    *verify.__all__,
]
