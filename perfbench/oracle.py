"""Output oracle of the benchmark.

Shares no code with ``src/``: every expected value is derived here from the
standard library alone (``math.comb``, the q-product formula for Gaussian
binomials, the closed form of the type bound, trial-division factoring).
Each ``check_*`` returns a list of failure descriptions; empty means correct.
The benchmark calls them outside the timed region.
"""

from __future__ import annotations

import math
from typing import Mapping

EVAL_POINTS = (1, 2, 3)


def poly_eval(coeffs: Mapping[int, int], q: int) -> int:
    """Value at ``q`` of the polynomial with ``{degree: coefficient}``."""
    return sum(c * q**d for d, c in coeffs.items())


def gaussian_product(d: int, k: int, q: int) -> int:
    """[d choose k] at an integer ``q >= 2`` by the q-product formula."""
    num = math.prod(q ** (d - i) - 1 for i in range(k))
    den = math.prod(q ** (i + 1) - 1 for i in range(k))
    if num % den:
        raise ArithmeticError(f"q-product for ({d}, {k}) at q={q} is not integral")
    return num // den


def _gaussian_value(d: int, k: int, q: int) -> int:
    return math.comb(d, k) if q == 1 else gaussian_product(d, k, q)


def _check_coeffs(coeffs: Mapping[int, int], lo: int, hi: int, what: str) -> list[str]:
    bad = [
        d
        for d, c in coeffs.items()
        if type(d) is not int or type(c) is not int or not lo <= d <= hi or c <= 0
    ]
    return [f"{what}: coefficient outside degrees [{lo}, {hi}] or not positive at {bad[:3]}"] if bad else []


def check_gaussian(d: int, k: int, coeffs: Mapping[int, int]) -> list[str]:
    """[d choose k]_q at q = 1, 2, 3 against math.comb and the q-product."""
    what = f"gaussian({d},{k})"
    failures = _check_coeffs(coeffs, 0, k * (d - k), what)
    for q in EVAL_POINTS:
        if poly_eval(coeffs, q) != _gaussian_value(d, k, q):
            failures.append(f"{what}: value at q={q} is wrong")
    return failures


def check_product(a: Mapping[int, int], b: Mapping[int, int], coeffs: Mapping[int, int]) -> list[str]:
    """The product's support and its values at q = 1, 2, 3."""
    what = f"product({len(a)}x{len(b)})"
    failures = _check_coeffs(coeffs, min(a) + min(b), max(a) + max(b), what)
    for q in EVAL_POINTS:
        if poly_eval(coeffs, q) != poly_eval(a, q) * poly_eval(b, q):
            failures.append(f"{what}: value at q={q} is wrong")
    return failures


def check_box_table(parts: int, max_part: int, counts: list[int]) -> list[str]:
    """Box counts by size: their generating function is [parts+max_part, parts]_q."""
    what = f"box-table({parts},{max_part})"
    cap = parts * max_part
    if len(counts) != cap + 1:
        return [f"{what}: {len(counts)} sizes, expected {cap + 1}"]
    table = dict(enumerate(counts))
    failures = []
    for q in EVAL_POINTS:
        if poly_eval(table, q) != _gaussian_value(parts + max_part, parts, q):
            failures.append(f"{what}: generating function wrong at q={q}")
    if counts != counts[::-1]:
        failures.append(f"{what}: counts not symmetric in size")
    return failures


def expected_type_bound(p: int, k: int) -> int:
    """Closed form: max(k - 2, -1) at p = 2 with k >= 1, else k - 1."""
    return max(k - 2, -1) if p == 2 and k >= 1 else k - 1


def expected_statuses(p: int, k: int) -> tuple[str, str]:
    """Indecomposability and rigidity verdicts implied by the closed-form bound."""
    bound = expected_type_bound(p, k)
    return (
        "indecomposable" if bound <= -1 else "unknown",
        "conjecture-holds" if bound <= 0 else "unknown",
    )


def check_judgments(op: Mapping, result: Mapping) -> list[str]:
    """One trace-replay op: bound, verdicts, replay of each round-tripped trace,
    and rejection of the tampered one."""
    p, n, k = op["p"], op["n"], op["k"]
    what = f"judgments(p={p},n={n},k={k})"
    failures = []
    if result["bound"] != expected_type_bound(p, k):
        failures.append(f"{what}: bound {result['bound']} != {expected_type_bound(p, k)}")
    if tuple(result["statuses"]) != expected_statuses(p, k):
        failures.append(f"{what}: verdicts {result['statuses']} != {expected_statuses(p, k)}")
    if result["replays"] != [True, True, True]:
        failures.append(f"{what}: honest trace replay gave {result['replays']}")
    if not result["round_trip_equal"]:
        failures.append(f"{what}: JSON round trip changed a trace")
    if op["tamper"] is not None and result["tampered_replay"] is not False:
        failures.append(f"{what}: tampered trace {op['tamper']} replayed {result['tampered_replay']}")
    return failures


def check_exit(expected: int, code: int, stderr: str) -> list[str]:
    """Exit code must be the expected one; no Python traceback may escape."""
    failures = []
    if code != expected:
        failures.append(f"exit code {code}, expected {expected}")
    if "Traceback (most recent call last)" in stderr:
        failures.append("printed a Python traceback")
    return failures


def squarefree_classification(k: int) -> bool:
    """Settled cases of the lifting question: k squarefree, or 4 times an odd squarefree."""
    exponents: dict[int, int] = {}
    rest, f = k, 2
    while f * f <= rest:
        while rest % f == 0:
            exponents[f] = exponents.get(f, 0) + 1
            rest //= f
        f += 1
    if rest > 1:
        exponents[rest] = exponents.get(rest, 0) + 1
    return all(e == 1 or (f == 2 and e == 2) for f, e in exponents.items())
