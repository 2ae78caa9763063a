"""Exact combinatorics of motivic decompositions of Severi-Brauer varieties.

The package mechanizes the split-level bookkeeping of Chow motives of
Severi-Brauer varieties of p-primary division algebras: Gaussian binomials
and box-bounded partition counts with arbitrary-precision integers, formal
direct sums of Tate-twisted motives under Krull-Schmidt semantics, the
function-field decomposition rules with their conservation identities, and a
rule calculus that derives type bounds, indecomposability and rigidity
conclusions as replayable proof traces.

``import sbmotives`` loads ``qpoly``, ``motive`` and ``severi_brauer`` (with
``errors`` and ``_record``) and binds their exports.  The two leaf modules,
``type_calculus`` and ``verify``, load on the first access to either of them,
to a name either exports, or to ``__all__``; the value is then bound here, so
later lookups are plain attribute reads.
"""

import importlib
import sys

from . import motive, qpoly, severi_brauer
from .errors import DomainError, EngineError, UnsupportedOperationError
from .motive import *
from .qpoly import *
from .severi_brauer import *

__version__ = "0.1.0"

# compiled and run only by the commands that call them (type-bound, verify)
_LEAVES = ("type_calculus", "verify")


def __getattr__(name: str) -> object:
    """Load a leaf module, a name one exports, or ``__all__``, and bind it here."""
    if name in _LEAVES:
        return importlib.import_module(f".{name}", __name__)  # importing binds the module here
    leaves = [__getattr__(leaf) for leaf in _LEAVES]
    if name == "__all__":
        # One list per module: the package exports exactly the modules' exports.
        value = ["EngineError", "DomainError", "UnsupportedOperationError"]
        for module in (qpoly, motive, severi_brauer, *leaves):
            value += module.__all__
    else:
        owner = next((module for module in leaves if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *sys.modules[__name__].__all__})
