"""Byte-exact CLI output, pinned against a recorded fixture.

Each entry of ``cli_golden.json`` holds one invocation and the exact
``(exit_code, stdout, stderr)`` it produced, plus the file contents for
``--out`` runs (the argument ``{out}`` stands for a fresh file path).
Entries marked ``"suite": "failing"`` run ``verify`` against a fixed report
with failing identities, to pin the exit-3 path.  Help text is rendered at
80 columns so the pinned wrapping does not depend on the terminal.
"""

import json
from pathlib import Path

import pytest

from sbmotives import RULE_CATALOG, DivisionContext, ProofTrace, SBVariety
from sbmotives.verify import IdentityResult, SuiteReport

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

FAILING_SUITE = SuiteReport(
    max_n=2,
    results=(
        IdentityResult("demo/pass", True, ()),
        IdentityResult("demo/fail", False, tuple(f"broken {i}" for i in range(7))),
        IdentityResult("demo/also-fail", False, ("x",)),
    ),
)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) or "<none>" for c in CASES])
def test_cli_bytes(case, tmp_path, monkeypatch, run_cli):
    if case.get("suite") == "failing":
        monkeypatch.setattr("sbmotives.verify.run_identity_suite", lambda max_n: FAILING_SUITE)
    out = tmp_path / "out.txt"
    args = [str(out) if a == "{out}" else a for a in case["args"]]
    env = {"COLUMNS": "80", "SBMOTIVES_FORMAT": None, **case.get("env", {})}
    result = run_cli(*args, env=env)
    assert (result.exit_code, result.stdout, result.stderr) == (
        case["exit_code"],
        case["stdout"],
        case["stderr"],
    )
    if "out" in case:
        written = out.read_bytes().decode("utf-8") if out.exists() else None
        assert written == case["out"]


TRACE_JSON = [
    c for c in CASES
    if c["args"][:1] == ["type-bound"] and "--trace" in c["args"] and c["args"][-2:] == ["--format", "json"]
]


@pytest.mark.parametrize("case", TRACE_JSON, ids=[" ".join(c["args"]) for c in TRACE_JSON])
def test_golden_trace_replays_against_its_variety(case):
    payload = json.loads(case["stdout"])
    p, n, k = (int(payload[name]) for name in ("p", "n", "k"))
    trace = ProofTrace.from_json_obj(payload["trace"])
    assert trace.replay(SBVariety(DivisionContext(p, n), k))
    # each citation once, for exactly the rules the trace uses, in order of first use
    assert payload["rules"] == {step.rule_id: RULE_CATALOG[step.rule_id].citation for step in trace}


def test_every_trace_json_entry_is_checked():
    assert len(TRACE_JSON) == 4
