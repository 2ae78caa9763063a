"""Correctness checks of ``sbmotives`` command output.

JSON output must match the library's answers for the same arguments, and the
parts the oracle can derive on its own (Gaussian values, the type bound, the
settled cases of the lifting question, sums of box counts) must match the
oracle too.  CSV and text output are checked for their header or leading
line and for the same oracle facts where they print them.  Runs in the
benchmark process, outside every timed region.
"""

from __future__ import annotations

import json
import math

import oracle

# The identity suite held 18 identities when the benchmark was defined; a
# report with fewer means an identity went missing.
MIN_IDENTITIES = 18

CSV_HEADERS = {
    "gaussian": "degree,coefficient",
    "mu": "i,mu",
    "chow-order": "i,mu,order_exponent,literal_order",
    "decompose": "kind,p,n,payload,twist,multiplicity",
    "type-bound": "key,value",
    "conjecture": "key,value",
    "verify": "identity,status",
}


def _options(args: list[str]) -> dict[str, str]:
    """``--name value`` pairs; flags map to ``""``."""
    opts, i = {}, 1
    while i < len(args):
        name = args[i]
        if name.startswith("--") and i + 1 < len(args) and not args[i + 1].startswith("--"):
            opts[name[2:]] = args[i + 1]
            i += 2
        else:
            opts[name.lstrip("-")] = ""
            i += 1
    return opts


def check_invocation(op: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """All failures of one invocation; empty when it is correct."""
    what = " ".join(op["args"])
    failures = [f"{what}: {f}" for f in oracle.check_exit(op["expect_exit"], code, stderr)]
    if failures or code != 0:
        return failures
    if not stdout.strip():
        return [f"{what}: empty output"]
    command, fmt = op["args"][0], op["fmt"]
    try:
        if fmt == "json":
            problems = _check_json(command, op["args"], json.loads(stdout))
        elif fmt == "csv":
            problems = _check_csv(command, op["args"], stdout.splitlines())
        else:
            problems = _check_text(command, op["args"], stdout.splitlines())
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unparseable output: {exc!r}"]
    return [f"{what}: {p}" for p in problems]


def _variety(opts):
    from sbmotives import DivisionContext, SBVariety

    return SBVariety(DivisionContext(int(opts["p"]), int(opts["n"])), int(opts["k"]))


def _box_total(opts) -> int:
    p, n, k = int(opts["p"]), int(opts["n"]), int(opts["k"])
    return math.comb(p**n, p**k)


def _check_json(command: str, args: list[str], payload) -> list[str]:
    import sbmotives as sb

    opts = _options(args)
    if command == "gaussian":
        d, k = int(args[1]), int(args[2])
        coeffs = {int(deg): int(c) for deg, c in payload.items()}
        problems = oracle.check_gaussian(d, k, coeffs)
        if payload != sb.gaussian_binomial(d, k).to_json_dict():
            problems.append("coefficients differ from the library")
        return problems
    if command == "mu":
        variety = _variety(opts)
        values = {int(v["i"]): int(v["mu"]) for v in payload["values"]}
        problems = [
            f"mu at i={i} differs from the library"
            for i, m in values.items()
            if m != sb.mu(variety.context, variety.level, i)
        ]
        if "all" in opts and sum(values.values()) != _box_total(opts):
            problems.append("mu table does not sum to the binomial coefficient")
        return problems
    if command == "chow-order":
        variety = _variety(opts)
        rows = payload["rows"]
        expected = [sb.rational_chow_order(variety, i).to_json_obj() for i in range(len(rows))]
        max_i = variety.context.degree - 1 + variety.dimension()
        problems = [] if rows == expected and len(rows) == max_i + 1 else ["rows differ from the library"]
        if sum(int(r["mu"]) for r in rows) != _box_total(opts):
            problems.append("mu column does not sum to the binomial coefficient")
        return problems
    if command == "decompose":
        expr = sb.function_field_decomposition(_variety(opts))
        problems = [] if payload["terms"] == expr.to_json_obj() else ["terms differ from the library"]
        if payload["conservation"] != "ok":
            problems.append("conservation not ok")
        return problems
    if command == "type-bound":
        p, k = int(opts["p"]), int(opts["k"])
        problems = []
        if int(payload["bound"]) != oracle.expected_type_bound(p, k):
            problems.append(f"bound {payload['bound']} is not the closed form")
        if (payload["indecomposability"], payload["rigidity"]) != oracle.expected_statuses(p, k):
            problems.append("verdicts disagree with the closed-form bound")
        if "trace" in opts and payload["trace"] != sb.type_bound(_variety(opts)).trace.to_json_obj():
            problems.append("trace differs from the library")
        return problems
    if command == "conjecture":
        k = int(opts["k"])
        case = sb.classify_reduced_dimension(k)
        problems = [] if payload["covered"] == oracle.squarefree_classification(k) else ["wrong verdict"]
        if payload["reason"] != (case.reason.value if case.reason else None):
            problems.append("reason differs from the library")
        return problems
    return _check_suite(payload["passed"] and all(r["passed"] for r in payload["results"]), len(payload["results"]))


def _check_suite(passed: bool, count: int) -> list[str]:
    if not passed:
        return ["identity suite did not pass"]
    if count < MIN_IDENTITIES:
        return [f"only {count} identities reported"]
    return []


def _check_csv(command: str, args: list[str], lines: list[str]) -> list[str]:
    if lines[0] != CSV_HEADERS[command]:
        return [f"csv header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    opts = _options(args)
    if command == "gaussian":
        d, k = int(args[1]), int(args[2])
        return oracle.check_gaussian(d, k, {int(r[0]): int(r[1]) for r in rows})
    if command == "mu" and "all" in opts:
        if sum(int(r[1]) for r in rows) != _box_total(opts):
            return ["mu table does not sum to the binomial coefficient"]
    if command == "chow-order" and sum(int(r[1]) for r in rows) != _box_total(opts):
        return ["mu column does not sum to the binomial coefficient"]
    if command == "decompose" and rows[-1] != ["conservation", "", "", "ok", "", ""]:
        return ["conservation not ok"]
    if command == "type-bound":
        bound = oracle.expected_type_bound(int(opts["p"]), int(opts["k"]))
        if rows[0] != ["bound", str(bound)]:
            return [f"bound row {rows[0]} is not the closed form"]
    if command == "conjecture":
        covered = str(oracle.squarefree_classification(int(opts["k"]))).lower()
        if rows[0] != ["covered", covered]:
            return ["wrong verdict"]
    if command == "verify":
        return _check_suite(all(r[1] == "pass" for r in rows), len(rows))
    return []


def _check_text(command: str, args: list[str], lines: list[str]) -> list[str]:
    opts = _options(args)
    if command == "gaussian":
        d, k = int(args[1]), int(args[2])
        expected = f"rank {math.comb(d, k)}, dimension {k * (d - k)}"
        return [] if lines[-1] == expected else [f"last line {lines[-1]!r}"]
    if command == "decompose":
        return [] if lines[-1] == "conservation: OK" else ["conservation not OK"]
    if command == "type-bound":
        bound = oracle.expected_type_bound(int(opts["p"]), int(opts["k"]))
        return [] if lines[0].endswith(f": {bound}") else [f"first line {lines[0]!r}"]
    if command == "conjecture":
        verdict = "COVERED" if oracle.squarefree_classification(int(opts["k"])) else "OPEN"
        return [] if lines[0].startswith(verdict) else ["wrong verdict"]
    if command == "verify":
        holding = sum(1 for line in lines if line.startswith("ok "))
        expected = f"{holding}/{holding} identities hold (max n = {opts['max-n']})"
        return _check_suite(lines[-1] == expected, holding)
    prefix = {"mu": "mu counts for", "chow-order": "rational Chow-group orders for"}[command]
    return [] if lines[0].startswith(prefix) else [f"first line {lines[0]!r}"]
