"""The package namespace: exactly the exports of its modules."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_start_up_loads_no_click_decimal_or_dataclasses():
    # in a fresh interpreter, since pytest itself has loaded decimal and dataclasses
    src = str(Path(sbmotives.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, sbmotives.cli; print(sorted({'click', 'dataclasses', 'decimal'} & sys.modules.keys()))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
