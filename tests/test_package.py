"""The package namespace: exactly the exports of its modules."""

import sbmotives
from sbmotives import motive, qpoly, severi_brauer, type_calculus, verify


def test_all_is_the_concatenation_of_the_module_lists():
    modules = (qpoly, motive, severi_brauer, type_calculus, verify)
    assert sbmotives.__all__ == [
        "EngineError",
        "DomainError",
        "UnsupportedOperationError",
        *(name for module in modules for name in module.__all__),
    ]


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from sbmotives import *", namespace)
    for name in sbmotives.__all__:
        assert namespace[name] is getattr(sbmotives, name), name
