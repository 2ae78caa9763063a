"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact; the stated runtime ceilings are asserted where the
criterion carries one.  Expected values are either trivial, reproduced from
the printed formulas, or computed by independent oracles (exhaustive
enumeration, `math.comb`, direct factorization) inside the test.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

from sbmotives import (
    DivisionContext,
    GradedRankPoly,
    IndecomposabilityStatus,
    PartitionBoxSpec,
    RULE_CATALOG,
    RigidityStatus,
    SBProduct,
    SBVariety,
    Term,
    classify_reduced_dimension,
    count_partitions_in_box,
    enumerate_partitions_in_box,
    function_field_decomposition,
    function_field_endpoints,
    gaussian_binomial,
    indecomposability_judgment,
    mu,
    rational_chow_order,
    rigidity_judgment,
    type_bound,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} [{name}]: FAIL")
        raise
    print(f"acceptance {number:02d} [{name}]: PASS")


def brute_force_histogram(parts, max_part):
    hist = Counter()
    for lam in enumerate_partitions_in_box(parts, max_part):
        hist[sum(lam)] += 1
    return dict(hist)


def test_criterion_1_gaussian_oracle_equivalence():
    with criterion(1, "gaussian-binomial oracle equivalence"):
        start = time.perf_counter()
        for d in range(13):
            for k in range(d + 1):
                poly = gaussian_binomial(d, k)
                assert poly == GradedRankPoly(brute_force_histogram(k, d - k)), (d, k)
                top = k * (d - k)
                assert all(
                    poly.coefficient(j) == poly.coefficient(top - j) for j in range(top + 1)
                ), (d, k)
                assert poly.rank() == math.comb(d, k), (d, k)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_mu_coefficient_duality():
    with criterion(2, "mu / Gaussian-coefficient duality"):
        start = time.perf_counter()
        for p in (2, 3):
            for n in range(0, 4):
                context = DivisionContext(p, n)
                degree = context.degree
                for k in range(n + 1):
                    reduced = p**k
                    capacity = reduced * (degree - reduced)
                    for i in range(0, degree + capacity + 2):
                        # mu reads [p^n, p^k]_q; the box DP is the independent count
                        target = degree + capacity - i
                        expected = 0
                        if target >= 0:
                            expected = count_partitions_in_box(PartitionBoxSpec(degree - reduced, reduced, target))
                        assert mu(context, k, i) == expected, (p, n, k, i)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_vandermonde_conservation():
    with criterion(3, "q-Vandermonde conservation of the decomposition"):
        start = time.perf_counter()
        for n in range(1, 7):
            for k in range(1, n + 1):
                v = SBVariety(DivisionContext(2, n), k)
                split = function_field_decomposition(v).split_poincare()
                assert split == gaussian_binomial(2**n, 2**k), (n, k)
        assert time.perf_counter() - start < 5.0


def test_criterion_4_printed_formula_reproduction():
    with criterion(4, "printed-formula reproduction"):
        # the degree-4, level-1 instance has exactly the twists {0, 1, 4}
        expr = function_field_decomposition(SBVariety(DivisionContext(2, 2), 1))
        twists = sorted(term.twist for term, mult in expr.term_items() for _ in range(mult))
        assert twists == [0, 1, 4]

        # endpoint lower twist p^(n+k-1)(p-1) on 20 seeded-random valid triples
        rng = random.Random(20250811)
        for _ in range(20):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            n = rng.randint(1, 6)
            k = rng.randint(0, n - 1)
            upper, lower = function_field_endpoints(DivisionContext(p, n), k)
            assert upper.twist == 0
            assert lower.twist == p ** (n + k - 1) * (p - 1), (p, n, k)

        # dimension formula k(deg - k) at the reduced-dimension level
        for p in (2, 3, 5):
            for n in range(0, 5):
                for level in range(n + 1):
                    v = SBVariety(DivisionContext(p, n), level)
                    reduced = p**level
                    assert v.dimension() == reduced * (p**n - reduced), (p, n, level)


def test_criterion_5_upper_lower_identification():
    with criterion(5, "upper/lower identification on the decomposition"):
        for n in range(2, 7):
            for k in range(1, n):
                context = DivisionContext(2, n)
                expr = function_field_decomposition(SBVariety(context, k))
                located = expr.identify_upper_lower()
                half = DivisionContext(2, n - 1)
                endpoint_obj = Term(SBProduct(half, (2**k,)), 0).obj
                assert located.upper == Term(endpoint_obj, 0), (n, k)
                assert located.lower == Term(endpoint_obj, 2 ** (n + k - 1)), (n, k)
                _, lower = function_field_endpoints(context, k)
                assert lower.twist == 2 ** (n + k - 1), (n, k)


def test_criterion_6_dimension_obstruction():
    with criterion(6, "dimension obstruction over the full range"):
        record = RULE_CATALOG["dimension-obstruction"].record
        for n in range(1, 11):
            for k in range(1, n + 1):
                result = record(2, n, k, k - 2)  # what the rung at exponent n records
                assert result["product_dim"] < result["endpoint_dim"], (n, k)
                assert result["product_dim"] == 2 ** (n + k - 1) - 2 ** (2 * k - 1), (n, k)
                assert result["endpoint_dim"] == 2 ** (n + k - 1) - 2 ** (2 * k - 2), (n, k)


def test_criterion_7_type_calculus():
    with criterion(7, "type calculus bounds, judgments and replay"):
        start = time.perf_counter()
        for n in range(0, 9):
            for k in range(n + 1):
                derived = type_bound(SBVariety(DivisionContext(2, n), k))
                expected = max(k - 2, -1) if k >= 1 else -1
                assert derived.bound == expected, (2, n, k)
                assert derived.trace.replay(), (2, n, k)
        for p in (3, 5):
            for n in range(0, 9):
                for k in range(n + 1):
                    derived = type_bound(SBVariety(DivisionContext(p, n), k))
                    assert derived.bound == k - 1, (p, n, k)
                    assert derived.trace.replay(), (p, n, k)
        for n in range(1, 9):
            judgment = indecomposability_judgment(SBVariety(DivisionContext(2, n), 1))
            assert judgment.status is IndecomposabilityStatus.INDECOMPOSABLE, n
            assert judgment.trace.replay(), n
        assert time.perf_counter() - start < 1.0


def test_criterion_8_conjecture_classifier():
    with criterion(8, "coverage classifier and rigidity agreement"):
        def squarefree(m):
            d = 2
            while d * d <= m:
                if m % (d * d) == 0:
                    return False
                d += 1
            return True

        for k in range(1, 31):
            case = classify_reduced_dimension(k)
            expected = squarefree(k) or (
                k % 4 == 0 and (k // 4) % 2 == 1 and squarefree(k // 4)
            )
            assert case.covered is expected, k
        assert {4, 12, 20, 28} == {
            k for k in range(1, 31) if k % 4 == 0 and classify_reduced_dimension(k).covered
        }

        # the p-primary sub-cases of every covered k must come out rigid
        for k in range(1, 31):
            case = classify_reduced_dimension(k)
            if not case.covered:
                continue
            for sub in case.reductions:
                level = sub.reduced_dimension.bit_length() - 1 if sub.prime == 2 else (
                    0 if sub.reduced_dimension == 1 else 1
                )
                for n in range(max(level, 1), max(level, 1) + 2):
                    judgment = rigidity_judgment(SBVariety(DivisionContext(sub.prime, n), level))
                    assert judgment.status is RigidityStatus.CONJECTURE_HOLDS, (k, sub)


def test_criterion_9_chow_order_degenerate_sanity():
    with criterion(9, "rational Chow-order degenerate sanity"):
        v = SBVariety(DivisionContext(2, 1), 0)
        orders = [rational_chow_order(v, i) for i in (0, 1, 2)]
        assert [r.group_order() for r in orders] == [1, 2, 2]
        assert [r.summand_count for r in orders] == [0, 1, 1]
        # both readings preserved; the literal one degenerates to 0 at i=0
        assert [r.literal_order for r in orders] == [0, 2, 2]
        assert orders[0].group_order() == 1 != orders[0].literal_order


def test_criterion_10_cli_determinism(run_cli):
    with criterion(10, "byte-identical CLI output"):
        invocations = [
            ["gaussian", "4", "2"],
            ["gaussian", "4", "2", "--format", "json"],
            ["gaussian", "6", "3", "--format", "csv"],
            ["mu", "--p", "2", "--n", "1", "--k", "0", "--all"],
            ["mu", "--p", "3", "--n", "1", "--k", "1", "--all", "--format", "json"],
            ["mu", "--p", "2", "--n", "2", "--k", "1", "--i", "4", "--format", "csv"],
            ["chow-order", "--p", "2", "--n", "1", "--k", "0"],
            ["chow-order", "--p", "2", "--n", "2", "--k", "1", "--format", "json"],
            ["chow-order", "--p", "3", "--n", "1", "--k", "0", "--format", "csv"],
            ["decompose", "--p", "2", "--n", "2", "--k", "1"],
            ["decompose", "--p", "2", "--n", "3", "--k", "2", "--format", "json"],
            ["decompose", "--p", "2", "--n", "2", "--k", "1", "--format", "csv"],
            ["type-bound", "--p", "2", "--n", "3", "--k", "1", "--trace"],
            ["type-bound", "--p", "2", "--n", "4", "--k", "2", "--trace", "--format", "json"],
            ["type-bound", "--p", "3", "--n", "2", "--k", "1", "--format", "csv"],
            ["conjecture", "--k", "8"],
            ["conjecture", "--k", "12", "--format", "json"],
            ["conjecture", "--k", "30", "--format", "csv"],
            ["verify", "--max-n", "2"],
            ["verify", "--max-n", "2", "--format", "json"],
        ]
        for args in invocations:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.exit_code == 0, (args, first.stdout, first.stderr)
            assert first.exit_code == second.exit_code, args
            assert (first.stdout, first.stderr) == (second.stdout, second.stderr), args
            assert first.stdout  # something was printed
