"""Self-check suite: every module invariant, runnable over a requested range.

Each identity is a generator that yields its failure lines (none means it
holds).  The registry order is fixed so reports are deterministic.  Each
oracle's work is done once per run: the enumerator walks each box once, into
a histogram that both enumeration identities read, and the box identities
read the box DP's whole table per box.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator

from ._record import Record
from .errors import DomainError
from .motive import TATE, DivisionContext, MotiveExpr, SBProduct, Term
from .qpoly import (
    GradedRankPoly,
    PartitionBoxSpec,
    _box_size_counts,
    _is_int,
    count_partitions_in_box,
    enumerate_partitions_in_box,
    gaussian_binomial,
)
from .severi_brauer import (
    SBVariety,
    classify_reduced_dimension,
    function_field_decomposition,
    function_field_endpoints,
    mu,
    rational_chow_order,
)
from .type_calculus import (
    RULE_CATALOG,
    IndecomposabilityStatus,
    RigidityStatus,
    indecomposability_judgment,
    rigidity_judgment,
    type_bound,
)

__all__ = ["IdentityResult", "SuiteReport", "run_identity_suite"]


class IdentityResult(Record):
    identity: str
    passed: bool
    failures: tuple[str, ...]


class SuiteReport(Record):
    max_n: int
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failing(self) -> tuple[str, ...]:
        return tuple(r.identity for r in self.results if not r.passed)


@lru_cache(maxsize=None)
def _brute_force_histogram(parts: int, max_part: int) -> Counter[int]:
    """The partitions in the ``parts x max_part`` box counted by size, by the
    enumerator; a size it never reaches counts zero.

    Held for one :func:`run_identity_suite` call, which empties it as it
    starts, so a run enumerates each box once, with the enumerator bound at
    the time: ``gaussian-brute-force`` fills it with the 91 boxes of
    ``parts + max_part <= 12`` (8 191 partitions), and ``box-count-oracle``
    reads its 49 boxes from them.
    """
    return Counter(map(sum, enumerate_partitions_in_box(parts, max_part)))


def _box_counts(parts: int, max_part: int) -> list[int]:
    """The box DP's counts for the box by size, from 0 through its capacity
    plus one: its whole table, then the public counter at the one size past
    the capacity, its out-of-box branch.  What the box identities compare."""
    beyond = PartitionBoxSpec(parts, max_part, parts * max_part + 1)
    return [*_box_size_counts(parts, max_part), count_partitions_in_box(beyond)]


def _small_gaussians() -> Iterator[tuple[int, int, GradedRankPoly]]:
    """``(d, k, [d choose k]_q)`` for every ``0 <= k <= d < 13``, ascending.

    The one table the brute-force, symmetry and total-rank identities share;
    the brute-force identity compares each entry with the histogram of the
    ``k x (d - k)`` box.
    """
    for d in range(13):
        for k in range(d + 1):
            yield d, k, gaussian_binomial(d, k)


def _check_gaussian_brute_force(max_n: int) -> Iterator[str]:
    for d, k, poly in _small_gaussians():
        if poly != GradedRankPoly(_brute_force_histogram(k, d - k)):
            yield f"gaussian_binomial({d},{k}) != brute-force histogram"


def _check_gaussian_symmetry(max_n: int) -> Iterator[str]:
    for d, k, poly in _small_gaussians():
        top = k * (d - k)
        if any(poly.coefficient(j) != poly.coefficient(top - j) for j in range(top + 1)):
            yield f"gaussian_binomial({d},{k}) is not symmetric"


def _check_gaussian_total_rank(max_n: int) -> Iterator[str]:
    for d, k, poly in _small_gaussians():
        if poly.rank() != math.comb(d, k):
            yield f"rank of gaussian_binomial({d},{k}) != C({d},{k})"


def _check_box_count_duality(max_n: int) -> Iterator[str]:
    """The DP against ``[m + c, c]_q`` for every box with ``m, c <= 8``, at
    every size from 0 through the box capacity plus one."""
    for m in range(9):
        for c in range(9):
            poly = gaussian_binomial(m + c, c)
            for s, counted in enumerate(_box_counts(m, c)):
                if counted != poly.coefficient(s):
                    yield f"box count ({m},{c},{s}) != coefficient"


def _check_box_count_oracle(max_n: int) -> Iterator[str]:
    """The DP against the enumerator for every box with ``m, c <= 6``, at
    every size from 0 through the box capacity plus one.

    The histograms are the ones ``gaussian-brute-force`` built earlier in
    the run: every such box has ``m + c <= 12``.
    """
    for m in range(7):
        for c in range(7):
            histogram = _brute_force_histogram(m, c)
            for s, counted in enumerate(_box_counts(m, c)):
                if counted != histogram[s]:
                    yield f"recurrence vs enumeration mismatch at ({m},{c},{s})"


def _check_rank_homomorphism(max_n: int) -> Iterator[str]:
    samples = [
        gaussian_binomial(4, 2),
        gaussian_binomial(6, 3),
        GradedRankPoly({0: 1, 3: 2}),
        GradedRankPoly({1: 5}),
    ]
    for a in samples:
        for b in samples:
            if (a * b).rank() != a.rank() * b.rank():
                yield f"rank not multiplicative for {a} * {b}"
        for t in (0, 1, 7):
            if a.shift(t).rank() != a.rank():
                yield f"rank not shift-invariant for {a} shifted by {t}"


def _sample_expressions() -> list[MotiveExpr]:
    c21 = DivisionContext(2, 1)
    c22 = DivisionContext(2, 2)
    return [
        MotiveExpr(),
        MotiveExpr.of((TATE, 0)),
        MotiveExpr.of((TATE, 0), (TATE, 4)),
        MotiveExpr.of((SBProduct(c21, (1, 1)), 1)),
        MotiveExpr.of((SBProduct(c22, (2,)), 0), (TATE, 2), (TATE, 2)),
    ]


def _check_poincare_homomorphism(max_n: int) -> Iterator[str]:
    exprs = _sample_expressions()
    for a in exprs:
        for b in exprs:
            if (a + b).split_poincare() != a.split_poincare() + b.split_poincare():
                yield f"poincare(sum) mismatch for {a!r} + {b!r}"
        for t in (0, 2, 5):
            if a.twist(t).split_poincare() != a.split_poincare().shift(t):
                yield f"poincare(twist {t}) mismatch for {a!r}"
    c21 = DivisionContext(2, 1)
    factors = [
        MotiveExpr.of((TATE, 1)),
        MotiveExpr.of((SBProduct(c21, (1,)), 0)),
        MotiveExpr.of((SBProduct(c21, (1,)), 2), (TATE, 0)),
    ]
    for a in factors:
        for b in factors:
            if (a * b).split_poincare() != a.split_poincare() * b.split_poincare():
                yield f"poincare(product) mismatch for {a!r} * {b!r}"


def _check_ks_equality(max_n: int) -> Iterator[str]:
    c21 = DivisionContext(2, 1)
    c22 = DivisionContext(2, 2)
    pairs = [
        (MotiveExpr.of((TATE, 0), (TATE, 4)), MotiveExpr.of((TATE, 4), (TATE, 0)), True),
        (MotiveExpr.of((TATE, 0)), MotiveExpr.of((TATE, 0), (TATE, 0)), False),
        (MotiveExpr.of((SBProduct(c21, (0, 0)), 1)), MotiveExpr.of((TATE, 1)), True),
        (MotiveExpr.of((SBProduct(c22, (1, 2)), 0)), MotiveExpr.of((SBProduct(c22, (2, 1)), 0)), True),
    ]
    for a, b, expected in pairs:
        if (a == b) is not expected:
            yield f"({a!r} == {b!r}) != {expected}"
        if expected and not a.is_zero and a.split_poincare() != b.split_poincare():
            yield f"equal expressions with different polynomials: {a!r}"


def _check_vandermonde_conservation(max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            variety = SBVariety(DivisionContext(2, n), k)
            split = function_field_decomposition(variety).split_poincare()
            if split != gaussian_binomial(2**n, 2**k):
                yield f"conservation fails at (n={n}, k={k})"


def _check_upper_lower_endpoints(max_n: int) -> Iterator[str]:
    for n in range(2, max_n + 1):
        for k in range(1, n):
            context = DivisionContext(2, n)
            expr = function_field_decomposition(SBVariety(context, k))
            located = expr.identify_upper_lower()
            upper, lower = function_field_endpoints(context, k)
            half = DivisionContext(2, n - 1)
            expected_obj = Term(SBProduct(half, (2**k,)), 0).obj
            if located.upper != Term(expected_obj, 0):
                yield f"upper term mismatch at (n={n}, k={k})"
            if located.lower != Term(expected_obj, 2 ** (n + k - 1)):
                yield f"lower term mismatch at (n={n}, k={k})"
            if lower.twist != 2 ** (n + k - 1) or upper.twist != 0:
                yield f"endpoint twist mismatch at (n={n}, k={k})"


def _check_mu_duality(max_n: int) -> Iterator[str]:
    """``mu(i)`` against the box DP at size ``degree + capacity - i`` of the
    ``(degree - p^k) x p^k`` box, for every ``i`` from 0 through ``degree +
    capacity + 1``; a size past the DP's counts, which stop at the capacity
    plus one, counts zero."""
    for p in (2, 3):
        for n in range(0, min(3, max_n) + 1):
            context = DivisionContext(p, n)
            degree = context.degree
            for k in range(n + 1):
                reduced = p**k
                capacity = reduced * (degree - reduced)
                row = gaussian_binomial(degree, reduced)  # held, so every mu below reads it, not a cut walk
                counts = _box_counts(degree - reduced, reduced)
                for i in range(0, degree + capacity + 2):
                    target = degree + capacity - i
                    expected = counts[target] if 0 <= target < len(counts) else 0
                    if mu(context, k, i) != expected:
                        yield f"mu duality fails at (p={p}, n={n}, k={k}, i={i})"


def _check_chow_degenerate(max_n: int) -> Iterator[str]:
    variety = SBVariety(DivisionContext(2, 1), 0)
    reports = [rational_chow_order(variety, i) for i in range(3)]
    for i, (report, exponent) in enumerate(zip(reports, (0, 1, 1))):
        if report.summand_count != exponent or report.group_order() != 2**exponent:
            yield f"chow order at i={i}: exponent {report.summand_count}"
        if report.literal_order != report.summand_count * 2:
            yield f"literal order not preserved at i={i}"
    if [i for i, report in enumerate(reports) if report.summand_count == 0] != [0]:
        yield "exponent-zero locus disagrees with the out-of-box sizes"


def _squarefree(k: int) -> bool:
    d = 2
    while d * d <= k:
        if k % (d * d) == 0:
            return False
        d += 1
    return True


def _check_classifier_known_cases(max_n: int) -> Iterator[str]:
    """The classifier's verdicts, which the type calculus decides, against the
    squarefree oracle; k <= 100 reaches the blocked cases 7^2, 3^4 and 2^3 * 11."""
    for k in range(1, 101):
        expected = _squarefree(k) or (k % 4 == 0 and k % 8 != 0 and _squarefree(k // 4) and (k // 4) % 2 == 1)
        got = classify_reduced_dimension(k)
        if got.covered is not expected:
            yield f"classifier disagrees with factorization at k={k}"
        if not got.covered and got.blocking_factor is None:
            yield f"open case without blocking factor at k={k}"


def _check_dimension_obstruction(max_n: int) -> Iterator[str]:
    """The dimensions a rung records at exponent n, read from the half-degree
    algebra C: the candidate factor is SB_{2^(k-1)}(C) squared, and the
    endpoint copies span that variety's dimension plus their twist apart.
    The factor must be the smaller."""
    limit, record = max(10, max_n), RULE_CATALOG["dimension-obstruction"].record
    for n in range(1, limit + 1):
        for k in range(1, n + 1):
            recorded = record(2, n, k, k - 2)
            factor_dim = SBVariety(DivisionContext(2, n - 1), k - 1).dimension()
            _, lower = function_field_endpoints(DivisionContext(2, n), k - 1)
            if (recorded != {"product_dim": 2 * factor_dim, "endpoint_dim": factor_dim + lower.twist}
                    or not recorded["product_dim"] < recorded["endpoint_dim"]):
                yield f"obstruction fails at (n={n}, k={k})"


def _small_varieties(max_n: int) -> Iterator[tuple[int, int, int, SBVariety]]:
    """``(p, n, k, SB_{p^k})`` for ``p`` in 2, 3, 5 and every ``0 <= k <= n <= max_n``.

    The grid the type-bound table and trace-replay identities share.
    """
    for p in (2, 3, 5):
        for n in range(max_n + 1):
            for k in range(n + 1):
                yield p, n, k, SBVariety(DivisionContext(p, n), k)


def _check_type_bound_table(max_n: int) -> Iterator[str]:
    for p, n, k, variety in _small_varieties(max_n):
        derived = type_bound(variety)
        expected = max(k - 2, -1) if (p == 2 and k >= 1) else k - 1
        if derived.bound != expected:
            yield f"type bound (p={p}, n={n}, k={k}) = {derived.bound}"
        if not -1 <= derived.bound <= k - 1:
            yield f"bound outside [-1, k-1] at (p={p}, n={n}, k={k})"


def _check_indecomposability_level_one(max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        judgment = indecomposability_judgment(SBVariety(DivisionContext(2, n), 1))
        if judgment.status is not IndecomposabilityStatus.INDECOMPOSABLE:
            yield f"level-1 variety not judged indecomposable at n={n}"


def _check_trace_replay(max_n: int) -> Iterator[str]:
    for p, n, k, variety in _small_varieties(max_n):
        for trace in (
            type_bound(variety).trace,
            indecomposability_judgment(variety).trace,
            rigidity_judgment(variety).trace,
        ):
            if not trace.replay(variety):
                yield f"trace replay fails at (p={p}, n={n}, k={k})"


def _check_rigidity_classifier_agreement(max_n: int) -> Iterator[str]:
    cases = [(p, level) for p in (2, 3, 5) for level in (0, 1)] + [(2, 2)]
    for p, level in cases:
        for n in range(max(level, 1), max(level, 1) + 2):
            judgment = rigidity_judgment(SBVariety(DivisionContext(p, n), level))
            if judgment.status is not RigidityStatus.CONJECTURE_HOLDS:
                yield f"rigidity unknown at (p={p}, n={n}, level={level})"


_REGISTRY: tuple[tuple[str, Callable[[int], Iterator[str]]], ...] = (
    ("qpoly/gaussian-brute-force", _check_gaussian_brute_force),
    ("qpoly/gaussian-symmetry", _check_gaussian_symmetry),
    ("qpoly/gaussian-total-rank", _check_gaussian_total_rank),
    ("qpoly/box-count-duality", _check_box_count_duality),
    ("qpoly/box-count-oracle", _check_box_count_oracle),
    ("qpoly/rank-homomorphism", _check_rank_homomorphism),
    ("motive/poincare-homomorphism", _check_poincare_homomorphism),
    ("motive/krull-schmidt-equality", _check_ks_equality),
    ("severi-brauer/vandermonde-conservation", _check_vandermonde_conservation),
    ("severi-brauer/upper-lower-endpoints", _check_upper_lower_endpoints),
    ("severi-brauer/mu-duality", _check_mu_duality),
    ("severi-brauer/chow-order-degenerate", _check_chow_degenerate),
    ("severi-brauer/classifier-known-cases", _check_classifier_known_cases),
    ("type-calculus/dimension-obstruction", _check_dimension_obstruction),
    ("type-calculus/type-bound-table", _check_type_bound_table),
    ("type-calculus/indecomposability-level-one", _check_indecomposability_level_one),
    ("type-calculus/trace-replay", _check_trace_replay),
    ("type-calculus/rigidity-classifier-agreement", _check_rigidity_classifier_agreement),
)


def run_identity_suite(max_n: int = 5) -> SuiteReport:
    """Run every identity over the requested range and report per-identity."""
    if not _is_int(max_n) or max_n < 1:
        raise DomainError(f"max_n must be a positive integer, got {max_n!r}")
    results = []
    _brute_force_histogram.cache_clear()  # this run's histograms come from the enumerator bound now
    for identity, check in _REGISTRY:
        failures = tuple(check(max_n))
        results.append(IdentityResult(identity, not failures, failures))
    return SuiteReport(max_n=max_n, results=tuple(results))
