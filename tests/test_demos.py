"""Each demo, run as a script, prints the bytes recorded in ``demo_output``.

The demos print bounds, judgments and a whole proof trace as text, so a
change that moves any of them shows here.  To re-record after a deliberate
change, run ``PYTHONPATH=src python demos/NAME.py > tests/demo_output/NAME.txt``.
"""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "demo_output"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_the_recorded_bytes(demo):
    run = run_python(str(demo), capture_output=True, timeout=10)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()


def test_every_demo_has_a_recording():
    assert [demo.stem for demo in DEMOS] == sorted(path.stem for path in RECORDED.glob("*.txt"))
    assert len(DEMOS) == 3
