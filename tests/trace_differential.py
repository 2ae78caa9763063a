"""A differential sweep of the type calculus's proof traces.

For p in {2, 3, 5} and 0 <= k <= n <= 8, each of the type bound's and the two
judgments' traces writes one line for its JSON encoding and one for its text,
then one line per edited copy: the positions where the copy fails replay
against the variety and with no variety given.  The edits are each recorded
value moved by -2, -1, +1 and +2; each step dropped; each step repeated; and
a step of each catalog rule, recorded at ``_INSERTED_AT``, inserted at each
position.  ``test_trace_differential.py`` pins the SHA-256 of the lines, so a
change to the engine that moves any of them shows as a changed digest.

Run as a script, it prints the lines and then their digest::

    PYTHONPATH=src python tests/trace_differential.py

With ``--against REV`` it runs the same sweep on a temporary ``git worktree``
of ``REV``, prints only the lines that differ from this checkout's (a
unified diff with no context), removes the worktree, and exits 1 when any
line differs::

    PYTHONPATH=src python tests/trace_differential.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from sbmotives import (
    RULE_CATALOG,
    DivisionContext,
    ProofStep,
    ProofTrace,
    SBVariety,
    indecomposability_judgment,
    rigidity_judgment,
    type_bound,
)

PRIMES = (2, 3, 5)
MAX_N = 8
DELTAS = (-2, -1, 1, 2)
_DERIVES = (type_bound, indecomposability_judgment, rigidity_judgment)
# The position each inserted step is recorded at: the (2, 3, 1) rigidity trace's.
_INSERTED_AT = (2, 3, 1, -1)
_INSERTED = tuple(
    ProofStep(rule_id, tuple(rule.record(*_INSERTED_AT).items())) for rule_id, rule in RULE_CATALOG.items()
)


def _edits(steps: tuple[ProofStep, ...]) -> Iterator[tuple[str, tuple[ProofStep, ...]]]:
    """``(label, steps)`` for each edited copy of ``steps``."""
    for i, step in enumerate(steps):
        for j, (name, value) in enumerate(step.side_conditions):
            for delta in DELTAS:
                conditions = step.side_conditions[:j] + ((name, value + delta),) + step.side_conditions[j + 1:]
                yield f"value {i} {name} {delta:+d}", steps[:i] + (ProofStep(step.rule_id, conditions),) + steps[i + 1:]
    for i in range(len(steps)):
        yield f"drop {i}", steps[:i] + steps[i + 1:]
    for i in range(len(steps)):
        yield f"repeat {i}", steps[:i + 1] + steps[i:]
    for i in range(len(steps) + 1):
        for inserted in _INSERTED:
            yield f"insert {i} {inserted.rule_id}", steps[:i] + (inserted,) + steps[i:]


def sweep_lines() -> Iterator[str]:
    """The sweep's lines, in a fixed order."""
    for p in PRIMES:
        for n in range(MAX_N + 1):
            for k in range(n + 1):
                variety = SBVariety(DivisionContext(p, n), k)
                for derive in _DERIVES:
                    label = f"{p} {n} {k} {derive.__name__}"
                    trace = derive(variety).trace
                    yield f"{label} json {json.dumps(trace.to_json_obj())}"
                    yield f"{label} text {json.dumps(trace.render_text())}"
                    for edit, steps in _edits(trace.steps):
                        edited = ProofTrace(steps)
                        yield f"{label} {edit}: {list(edited.failing_steps(variety))} {list(edited.failing_steps())}"


def digest(lines: Iterator[str]) -> str:
    """The SHA-256 of ``lines``, each ended by a newline."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _lines_at(rev: str) -> list[str]:
    """The sweep's lines with the package of a temporary worktree of ``rev``."""
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as parent:
        tree = Path(parent) / "tree"
        subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
        finally:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(tree)], check=True)
    return run.stdout.splitlines()[:-1]  # the last line is the digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="print only the lines that differ from the sweep at REV")
    args = parser.parse_args(argv)
    if args.against is None:
        lines = list(sweep_lines())
        print("\n".join(lines))
        print(digest(lines))
        return 0
    ours = list(sweep_lines())
    differing = list(difflib.unified_diff(_lines_at(args.against), ours, args.against, "checkout", n=0, lineterm=""))
    print("\n".join(differing) if differing else f"no line differs from {args.against} ({len(ours)} lines)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
