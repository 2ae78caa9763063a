import math

import pytest
from hypothesis import given, settings, strategies as st

from sbmotives import (
    CoverageReason,
    DivisionContext,
    DomainError,
    MotiveExpr,
    SBProduct,
    SBVariety,
    TATE,
    Term,
    UnsupportedOperationError,
    classify_reduced_dimension,
    enumerate_partitions_in_box,
    function_field_decomposition,
    function_field_endpoints,
    gaussian_binomial,
    mu,
    mu_table,
    rational_chow_order,
    rational_chow_orders,
)
from sbmotives import type_calculus


class TestVarietyDimension:
    def test_examples(self):
        assert SBVariety(DivisionContext(2, 2), 1).dimension() == 4
        assert SBVariety(DivisionContext(2, 1), 0).dimension() == 1
        assert SBVariety(DivisionContext(3, 1), 1).dimension() == 0

    def test_level_examples(self):
        assert SBVariety(DivisionContext(2, 2), 1).dimension() == 4
        assert SBVariety(DivisionContext(3, 2), 0).dimension() == 8
        assert SBVariety(DivisionContext(2, 3), 3).dimension() == 0

    def test_reduced_dimension_is_computed_once(self):
        variety = SBVariety(DivisionContext(3, 200), 150)
        assert variety.reduced_dimension is variety.reduced_dimension == 3**150

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            SBVariety(DivisionContext(2, 2), 3)

    def test_bool_level_rejected(self):
        with pytest.raises(DomainError):
            SBVariety(DivisionContext(2, 2), False)

    def test_level_validation(self):
        with pytest.raises(DomainError):
            SBVariety(DivisionContext(2, 2), 3)
        with pytest.raises(DomainError):
            SBVariety(DivisionContext(2, 2), -1)

    def test_rejects_bool_arguments(self):
        ctx = DivisionContext(2, 2)
        for build in (
            lambda: SBVariety(ctx, True),
            lambda: mu(ctx, True, 0),
            lambda: mu(ctx, 1, False),
            lambda: rational_chow_order(SBVariety(ctx, 1), True),
            lambda: function_field_endpoints(ctx, False),
            lambda: classify_reduced_dimension(True),
        ):
            with pytest.raises(DomainError):
                build()


class TestMu:
    def test_examples_against_enumeration(self):
        c = DivisionContext(2, 1)
        # oracle: one part bounded by 1, target size 2 + 1 - i
        for i, expected in [(3, 1), (2, 1), (0, 0)]:
            target = 2 + 1 - i
            oracle = sum(sum(lam) == target for lam in enumerate_partitions_in_box(1, 1))
            assert mu(c, 0, i) == oracle == expected

    def test_out_of_range_level(self):
        with pytest.raises(DomainError):
            mu(DivisionContext(2, 1), 2, 0)

    def test_full_level_counts_only_the_point(self):
        c = DivisionContext(2, 2)
        assert mu(c, 2, 4) == 1  # empty partition at target size 0
        assert mu(c, 2, 3) == 0

    def test_negative_target_counts_zero(self):
        assert mu(DivisionContext(2, 1), 0, 100) == 0

    def test_out_of_box_target_builds_no_binomial(self):
        gaussian_binomial.cache_clear()
        assert mu(DivisionContext(101, 2), 1, 5) == 0
        assert mu(DivisionContext(101, 2), 1, 10201 + 101 * 10100 + 1) == 0
        assert gaussian_binomial.cache_info().currsize == 0

    # degrees p**n up to 32; held is the narrow side of a row built before the read
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 5), (3, 3), (5, 2)]), st.data())
    def test_agrees_with_the_full_row(self, prime_and_max_n, data):
        p, max_n = prime_and_max_n
        n = data.draw(st.integers(0, max_n))
        k = data.draw(st.integers(0, n))
        degree, reduced = p**n, p**k
        top = degree + reduced * (degree - reduced)
        i = data.draw(st.integers(-1, top + 1))
        held = data.draw(st.none() | st.integers(0, degree // 2))
        gaussian_binomial.cache_clear()
        if held is not None:
            gaussian_binomial(degree, held)
        count = mu(DivisionContext(p, n), k, i)
        gaussian_binomial.cache_clear()
        assert count == gaussian_binomial(degree, reduced).coefficient(top - i)

    @pytest.mark.parametrize("p, n, k", [(2, 0, 0), (2, 1, 0), (2, 3, 2), (3, 2, 1)])
    def test_table_covers_every_degree_up_to_deg_plus_dim(self, p, n, k):
        v = SBVariety(DivisionContext(p, n), k)
        top = p**n + v.dimension()
        assert mu_table(v) == tuple((i, mu(v.context, k, i)) for i in range(top + 1))
        # every partition in the box is counted once, at i = top - size
        assert sum(count for _, count in mu_table(v)) == math.comb(p**n, p**k)


class TestChowOrder:
    def test_degenerate_cases(self):
        v = SBVariety(DivisionContext(2, 1), 0)
        for i, exponent in [(0, 0), (1, 1), (2, 1)]:
            report = rational_chow_order(v, i)
            assert report.summand_count == exponent
            assert report.group_order() == 2**exponent
            assert report.literal_order == exponent * 2

    def test_literal_and_exponent_both_serialized(self):
        v = SBVariety(DivisionContext(2, 1), 0)
        encoded = rational_chow_order(v, 0).to_json_obj()
        assert encoded == {"i": "0", "mu": "0", "order_exponent": "0", "literal_order": "0"}

    def test_range_validation(self):
        v = SBVariety(DivisionContext(2, 1), 0)
        rational_chow_order(v, 2)  # dim(SB_1 x SB_1) = 1 + 1
        with pytest.raises(DomainError):
            rational_chow_order(v, 3)
        with pytest.raises(DomainError):
            rational_chow_order(v, -1)

    # degrees p**n up to 32; held is the narrow side of a row built before the read
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 5), (3, 3), (5, 2)]), st.data())
    def test_agrees_with_the_full_row(self, prime_and_max_n, data):
        p, max_n = prime_and_max_n
        n = data.draw(st.integers(0, max_n))
        k = data.draw(st.integers(0, n))
        degree, reduced = p**n, p**k
        top = degree + reduced * (degree - reduced)
        i = data.draw(st.integers(-1, top + 1))
        held = data.draw(st.none() | st.integers(0, degree // 2))
        gaussian_binomial.cache_clear()
        if held is not None:
            gaussian_binomial(degree, held)
        count = mu(DivisionContext(p, n), k, i)
        gaussian_binomial.cache_clear()
        assert count == gaussian_binomial(degree, reduced).coefficient(top - i)

    @pytest.mark.parametrize("p, n, k", [(2, 0, 0), (2, 1, 0), (2, 3, 2), (3, 2, 1)])
    def test_reports_cover_every_degree_of_the_product(self, p, n, k):
        v = SBVariety(DivisionContext(p, n), k)
        product_dim = (p**n - 1) + v.dimension()  # dim SB_1 + dim SB_{p^k}
        assert rational_chow_orders(v) == tuple(rational_chow_order(v, i) for i in range(product_dim + 1))

    def test_exponent_zero_exactly_off_the_box(self):
        # inside [0, capacity] some partition always exists, so the group is
        # trivial exactly when the target size leaves the box
        for p, n, k in [(2, 1, 0), (2, 2, 1), (3, 1, 0), (3, 2, 1)]:
            context = DivisionContext(p, n)
            v = SBVariety(context, k)
            reduced = p**k
            capacity = reduced * (context.degree - reduced)
            for i in range((context.degree - 1) + v.dimension() + 1):
                target = context.degree + capacity - (i + 1)
                in_box = 0 <= target <= capacity
                exponent = rational_chow_order(v, i).summand_count
                assert (exponent == 0) == (not in_box), (p, n, k, i)


class TestFunctionFieldDecomposition:
    def test_printed_instance(self):
        v = SBVariety(DivisionContext(2, 2), 1)
        expr = function_field_decomposition(v)
        half = DivisionContext(2, 1)
        assert expr == MotiveExpr.of(
            (SBProduct(half, (0, 2)), 0),
            (SBProduct(half, (1, 1)), 1),
            (SBProduct(half, (2, 0)), 4),
        )
        twists = sorted(term.twist for term, _ in expr.term_items())
        assert twists == [0, 1, 4]

    def test_conservation_for_printed_instance(self):
        v = SBVariety(DivisionContext(2, 2), 1)
        assert function_field_decomposition(v).split_poincare() == gaussian_binomial(4, 2)

    def test_conic_splits_completely(self):
        v = SBVariety(DivisionContext(2, 1), 0)
        expr = function_field_decomposition(v)
        assert expr == MotiveExpr.of((TATE, 0), (TATE, 1))

    def test_conservation_sweep(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                v = SBVariety(DivisionContext(2, n), k)
                split = function_field_decomposition(v).split_poincare()
                assert split == gaussian_binomial(2**n, 2**k), (n, k)

    def test_odd_primes_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            function_field_decomposition(SBVariety(DivisionContext(3, 2), 1))

    def test_split_algebra_rejected(self):
        with pytest.raises(DomainError):
            function_field_decomposition(SBVariety(DivisionContext(2, 0), 0))


class TestEndpoints:
    def test_paper_twists(self):
        upper, lower = function_field_endpoints(DivisionContext(2, 2), 1)
        assert upper.twist == 0
        assert lower.twist == 4
        upper, lower = function_field_endpoints(DivisionContext(3, 1), 0)
        assert lower.twist == 2

    def test_twist_is_the_dimension_drop(self):
        for p in (2, 3, 5):
            for n in range(1, 6):
                for k in range(n):
                    _, lower = function_field_endpoints(DivisionContext(p, n), k)
                    drop = (
                        SBVariety(DivisionContext(p, n), k).dimension()
                        - SBVariety(DivisionContext(p, n - 1), k).dimension()
                    )
                    assert lower.twist == drop == p ** (n + k - 1) * (p - 1)

    def test_upper_lower_of_decomposition_match_endpoints(self):
        for n in range(2, 7):
            for k in range(1, n):
                context = DivisionContext(2, n)
                expr = function_field_decomposition(SBVariety(context, k))
                located = expr.identify_upper_lower()
                _, lower = function_field_endpoints(context, k)
                expected_obj = Term(SBProduct(DivisionContext(2, n - 1), (2**k,)), 0).obj
                assert located.upper == Term(expected_obj, 0)
                assert located.lower == Term(expected_obj, 2 ** (n + k - 1))
                assert located.lower.twist == lower.twist

    def test_level_range(self):
        with pytest.raises(DomainError):
            function_field_endpoints(DivisionContext(2, 2), 2)
        with pytest.raises(DomainError):
            function_field_endpoints(DivisionContext(2, 0), 0)


class TestClassifier:
    def test_squarefree(self):
        case = classify_reduced_dimension(6)
        assert case.covered and case.reason is CoverageReason.SQUAREFREE
        assert {(c.prime, c.reduced_dimension) for c in case.reductions} == {(2, 2), (3, 3)}

    def test_four_times_odd(self):
        case = classify_reduced_dimension(12)
        assert case.covered and case.reason is CoverageReason.FOUR_TIMES_ODD_SQUAREFREE
        assert case.odd_squarefree_part == 3
        assert (2, 4) in {(c.prime, c.reduced_dimension) for c in case.reductions}

    def test_open_with_blocking_factor(self):
        case = classify_reduced_dimension(8)
        assert not case.covered and case.blocking_factor == 8

    def test_known_table(self):
        def squarefree(m):
            d = 2
            while d * d <= m:
                if m % (d * d) == 0:
                    return False
                d += 1
            return True

        open_cases = {8, 9, 16, 18, 24, 25, 27}
        for k in range(1, 1001):
            case = classify_reduced_dimension(k)
            expected = squarefree(k) or (
                k % 4 == 0 and squarefree(k // 4) and (k // 4) % 2 == 1
            )
            assert case.covered is expected, k
            if k in open_cases:
                assert not case.covered

    def test_verdicts_come_from_the_type_calculus(self, monkeypatch):
        # with the (p = 2, level 3) case given bound 0, 8 is covered
        original = type_calculus.type_bound

        def planted(variety):
            if (variety.context.p, variety.level) == (2, 3):
                return type_calculus.TypeBound(variety, 0)
            return original(variety)

        assert not classify_reduced_dimension(8).covered
        monkeypatch.setattr(type_calculus, "type_bound", planted)
        assert classify_reduced_dimension(8).covered

    def test_smallest_blocking_factor(self):
        assert classify_reduced_dimension(24).blocking_factor == 8
        assert classify_reduced_dimension(18).blocking_factor == 9
        assert classify_reduced_dimension(2**4 * 3**3).blocking_factor == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            classify_reduced_dimension(0)

    def test_prime_cofactor_ends_the_factorization(self):
        case = classify_reduced_dimension(2**61 - 1)
        assert case.reason is CoverageReason.SQUAREFREE
        assert [(c.prime, c.reduced_dimension) for c in case.reductions] == [
            (2**61 - 1, 2**61 - 1)
        ]
        case = classify_reduced_dimension(4 * 1048573 * 1048571)
        assert case.reason is CoverageReason.FOUR_TIMES_ODD_SQUAREFREE
        assert [c.prime for c in case.reductions] == [2, 1048571, 1048573]

    def test_composite_without_small_factor_is_rejected(self):
        with pytest.raises(DomainError, match="no prime factor up to"):
            classify_reduced_dimension(2147483659 * 2147483693)

    def test_beyond_primality_bound_is_rejected(self):
        with pytest.raises(DomainError, match="primality is only decided below"):
            classify_reduced_dimension(2**89)
