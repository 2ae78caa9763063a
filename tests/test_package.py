"""The package namespace: exactly the exports of its modules."""

import pytest

import sbmotives
from sbmotives import motive, qpoly, severi_brauer, type_calculus, verify

from conftest import run_python


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


def test_leaf_names_are_the_defining_modules_objects():
    assert sbmotives.type_bound is sbmotives.type_calculus.type_bound
    assert sbmotives.run_identity_suite is sbmotives.verify.run_identity_suite


def test_dir_lists_every_export():
    assert set(sbmotives.__all__) <= set(dir(sbmotives))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'sbmotives' has no attribute 'no_such_name'"):
        sbmotives.no_such_name


CORE = ["_record", "errors", "qpoly", "motive", "severi_brauer"]
CLI = [*CORE, "cli"]
SMALL = ["--p", "2", "--n", "2", "--k", "1"]


START_UPS = [  # (the CLI's arguments, or None for the package alone; the sbmotives modules loaded)
    (None, CORE),
    ([], CLI),
    (["gaussian", "4", "2"], CLI),
    (["mu", *SMALL, "--all"], CLI),
    (["chow-order", *SMALL], CLI),
    (["decompose", *SMALL], CLI),
    (["conjecture", "--k", "12"], CLI),
    (["type-bound", *SMALL], [*CLI, "type_calculus"]),
    (["verify", "--max-n", "1"], [*CLI, "type_calculus", "verify"]),
    (["verify", "--max-n", "2", "--format", "text"], [*CLI, "type_calculus", "verify"]),
    # every N = 7 packed sum is carried by int, so the suite never loads decimal
    (["verify", "--max-n", "7"], [*CLI, "type_calculus", "verify"]),
    (["verify", "--max-n", "0"], CLI),  # a usage error, exit 2
]


@pytest.mark.parametrize(
    "argv, loaded",
    START_UPS,
    ids=["import sbmotives" if argv is None else " ".join(argv) or "import sbmotives.cli" for argv, _ in START_UPS],
)
def test_cli_start_up_loads_no_click_decimal_or_dataclasses(argv, loaded):
    # in a fresh interpreter, since pytest itself has loaded decimal, dataclasses and json;
    # a command loads exactly the package modules it runs, and none of the four
    # (a text command has no use for json)
    if argv is None:
        run = "import sbmotives"
    elif not argv:
        run = "import sbmotives.cli"
    else:
        run = f"import sbmotives.cli; sbmotives.cli.main({argv!r})"
    probe = (
        "import sys\n"
        f"try:\n    {run}\nexcept SystemExit:\n    pass\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in {'sbmotives', 'click', 'dataclasses', 'decimal', 'json'}))"
    )
    done = run_python("-c", probe, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == repr(sorted(["sbmotives", *(f"sbmotives.{m}" for m in loaded)]))
