import decimal
import itertools
import math
import random
import sys
import time
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from sbmotives import (
    DivisionContext,
    DomainError,
    GradedRankPoly,
    PartitionBoxSpec,
    SBVariety,
    count_partitions_in_box,
    enumerate_partitions_in_box,
    function_field_decomposition,
    gaussian_binomial,
)
from sbmotives import motive, qpoly, verify
from sbmotives.qpoly import _box_size_counts, _gaussian_coefficient

from conftest import run_python


def brute_force_histogram(parts, max_part):
    """Oracle: group the exhaustive enumeration by partition size."""
    hist = Counter()
    for lam in enumerate_partitions_in_box(parts, max_part):
        hist[sum(lam)] += 1
    return dict(hist)


class TestGradedRankPoly:
    def test_zero_coefficients_are_stripped(self):
        poly = GradedRankPoly({0: 1, 3: 0, 5: 2})
        assert poly.items() == ((0, 1), (5, 2))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            GradedRankPoly({0: -1})

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            GradedRankPoly({-2: 1})

    @pytest.mark.parametrize(
        "coefficients,message",
        [
            ({0: 1, -2: 1}, "degree must be nonnegative, got -2"),
            ({0: 1, 2: -1}, "coefficient must be nonnegative, got -1"),
            ({0: 1, True: 1}, "degree must be an integer, got True"),
            ({1: 2, 3: 1.0}, "coefficient must be an integer, got 1.0"),
            ({1: 2, "3": 1}, "degree must be an integer, got '3'"),
            ({2: -1, -1: 2}, "coefficient must be nonnegative, got -1"),
            ({-1: 2, 2: -1}, "degree must be nonnegative, got -1"),
        ],
    )
    def test_the_first_bad_entry_is_named(self, coefficients, message):
        with pytest.raises(DomainError) as caught:
            GradedRankPoly(coefficients)
        assert str(caught.value) == message

    def test_int_subclasses_are_counts(self):
        class Count(int):
            pass

        assert GradedRankPoly({Count(2): Count(3), 5: 0}) == GradedRankPoly({2: 3})

    def test_add(self):
        one = GradedRankPoly({0: 1})
        assert (one + one) == GradedRankPoly({0: 2})

    def test_mul_expands_square(self):
        conic = GradedRankPoly({0: 1, 1: 1})
        assert conic * conic == GradedRankPoly({0: 1, 1: 2, 2: 1})

    def test_shift(self):
        assert GradedRankPoly({0: 1}).shift(4) == GradedRankPoly({4: 1})
        assert GradedRankPoly().shift(3) == GradedRankPoly()

    def test_dim_and_rank(self):
        poly = gaussian_binomial(4, 2)
        assert poly.dim() == 4
        assert poly.rank() == 6
        assert GradedRankPoly({3: 1}).dim() == 0

    def test_dim_of_zero_rejected(self):
        with pytest.raises(DomainError):
            GradedRankPoly().dim()

    def test_scalar_multiple(self):
        poly = GradedRankPoly({1: 2})
        assert poly * 3 == GradedRankPoly({1: 6})
        assert 0 * poly == GradedRankPoly()

    def test_str(self):
        assert str(GradedRankPoly({0: 1, 1: 1, 2: 3})) == "1 + q + 3*q^2"
        assert str(GradedRankPoly()) == "0"

    def test_json_round_trip_stays_exact_beyond_doubles(self):
        poly = gaussian_binomial(64, 32)
        middle = poly.coefficient(32 * 32 // 2)
        assert middle > 2**53
        encoded = poly.to_json_dict()
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in encoded.items())
        assert GradedRankPoly.from_json_dict(encoded) == poly

    def test_json_that_is_not_a_mapping_rejected(self):
        with pytest.raises(DomainError, match="malformed rank polynomial encoding"):
            GradedRankPoly.from_json_dict([("1", "2")])

    @pytest.mark.parametrize(
        "data",
        [
            {"0": 1.9}, {"0": True}, {"0": 1}, {0: "1"},
            {"0": "01", "2": " 3"}, {"0": " +0_2 "}, {"0": "02"}, {"0": "\u0662"}, {"0": "2 "},
        ],
    )
    def test_json_integer_that_is_not_a_string_rejected(self, data):
        with pytest.raises(DomainError, match="decimal strings"):
            GradedRankPoly.from_json_dict(data)

    def test_json_keys_naming_one_degree_rejected(self):
        with pytest.raises(DomainError, match="canonical decimal strings"):
            GradedRankPoly.from_json_dict({"1": "1", "01": "5"})

    def test_far_apart_degrees_rejected_before_allocating(self):
        with pytest.raises(DomainError, match="dense storage limit"):
            GradedRankPoly({0: 1, 10**10: 1})
        with pytest.raises(DomainError, match="dense storage limit"):
            GradedRankPoly.from_json_dict({"0": "1", "10000000000": "1"})

    def test_dense_span_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 8)
        assert GradedRankPoly({3: 1, 10: 2}).dim() == 7
        with pytest.raises(DomainError):
            GradedRankPoly({3: 1, 11: 2})

    def test_wide_sums_and_products_rejected_before_allocating(self, monkeypatch):
        one = GradedRankPoly({0: 1})
        near, far = one + one.shift(3000), one + one.shift(10**6)
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 1000)
        assert (one + one.shift(999)).dim() == 999
        assert (GradedRankPoly({0: 1, 499: 1}) * GradedRankPoly({0: 1, 500: 1})).dim() == 999
        for wide in (
            lambda: one + one.shift(2 * 10**6),
            lambda: near * one.shift(5),  # packed, one operand a single term
            lambda: near * far,  # packed
            lambda: near * 2,  # scalar
        ):
            with pytest.raises(DomainError, match="dense storage limit"):
                wide()

    def test_json_round_trip_of_a_wide_binomial(self):
        poly = gaussian_binomial(60, 30)
        assert GradedRankPoly.from_json_dict(poly.to_json_dict()) == poly
        assert GradedRankPoly(dict(poly.items())) == poly

    def test_hashable_and_eq(self):
        a = GradedRankPoly({0: 1, 2: 1})
        b = GradedRankPoly({2: 1, 0: 1})
        assert a == b and hash(a) == hash(b)

    def test_bool_degree_rejected(self):
        with pytest.raises(DomainError):
            str(GradedRankPoly({True: 1}))
        poly = gaussian_binomial(4, 2)
        for degree in (True, 2.0):
            with pytest.raises(DomainError, match="degree must be an integer"):
                poly.coefficient(degree)
        assert poly.coefficient(-1) == 0 and poly.coefficient(1) == 1

    @pytest.mark.parametrize("scalar", [True, False, -1])
    def test_invalid_scalar_rejected(self, scalar):
        poly = GradedRankPoly({1: 2})
        with pytest.raises(DomainError):
            poly * scalar
        with pytest.raises(DomainError):
            scalar * poly

    # Each case fails if its guard is removed: the call would return another
    # value, or raise an AttributeError instead.
    @pytest.mark.parametrize("call, outcome", [
        pytest.param(lambda: GradedRankPoly().is_zero, True, id="zero-is-zero"),
        pytest.param(lambda: GradedRankPoly({2: 1}).is_zero, False, id="nonzero-is-not-zero"),
        pytest.param(lambda: bool(GradedRankPoly()), False, id="zero-is-false"),
        pytest.param(lambda: bool(GradedRankPoly({2: 1})), True, id="nonzero-is-true"),
        pytest.param(lambda: GradedRankPoly().bottom_degree(), DomainError, id="zero-has-no-bottom"),
        pytest.param(lambda: GradedRankPoly({0: 1}) + 1, TypeError, id="add-an-int"),
        pytest.param(lambda: GradedRankPoly({0: 1}) * 1.5, TypeError, id="multiply-by-a-float"),
        pytest.param(lambda: GradedRankPoly({0: 1}) == 1, False, id="equal-to-an-int"),
        pytest.param(lambda: repr(GradedRankPoly({0: 1, 3: 2})), "GradedRankPoly({0: 1, 3: 2})", id="repr"),
    ])
    def test_guards_and_repr(self, call, outcome):
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                call()
        else:
            result = call()
            assert type(result) is type(outcome) and result == outcome


class TestGaussianBinomial:
    def test_two_by_two_box(self):
        # oracle first: enumerate the 2x2 box and group by size
        assert brute_force_histogram(2, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        assert gaussian_binomial(4, 2) == GradedRankPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_one_by_three_box(self):
        assert brute_force_histogram(1, 3) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert gaussian_binomial(4, 1) == GradedRankPoly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_identity_case(self):
        assert gaussian_binomial(7, 0) == GradedRankPoly({0: 1})
        assert gaussian_binomial(7, 7) == GradedRankPoly({0: 1})

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gaussian_binomial(2, 5)
        with pytest.raises(DomainError):
            gaussian_binomial(2.0, 1)
        with pytest.raises(DomainError):
            gaussian_binomial(-1, 0)
        with pytest.raises(DomainError):
            gaussian_binomial(4, -1)

    @pytest.mark.parametrize("d", range(13))
    def test_matches_enumeration_oracle(self, d):
        for k in range(d + 1):
            expected = GradedRankPoly(brute_force_histogram(k, d - k))
            assert gaussian_binomial(d, k) == expected

    def test_wide_binomial_rejected_before_the_first_step(self, monkeypatch):
        # [997, 3] spans 3 * 994 + 1 = 2983 degrees; no other test asks for it
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 2982)
        with pytest.raises(DomainError, match="dense storage limit"):
            gaussian_binomial(997, 3)
        with pytest.raises(DomainError, match="dense storage limit"):
            gaussian_binomial(997, 994)
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 2983)
        assert gaussian_binomial(997, 3).dim() == 2982

    def test_bool_arguments_miss_the_cache_and_are_rejected(self):
        gaussian_binomial(1, 1)
        with pytest.raises(DomainError):
            gaussian_binomial(True, True)
        with pytest.raises(DomainError):
            gaussian_binomial(3, True)

    @given(st.integers(0, 40), st.data())
    def test_matches_box_count_table(self, d, data):
        k = data.draw(st.integers(0, d))
        poly = gaussian_binomial(d, k)
        table = _box_size_counts(k, d - k)
        assert [poly.coefficient(s) for s in range(len(table))] == list(table)
        assert poly.top_degree() == len(table) - 1

    @given(st.integers(0, 200), st.data())
    def test_value_at_two_is_the_q_product(self, d, data):
        k = data.draw(st.integers(0, d))
        numerator = math.prod(2 ** (d - i) - 1 for i in range(k))
        denominator = math.prod(2 ** (i + 1) - 1 for i in range(k))
        value = sum(c << degree for degree, c in gaussian_binomial(d, k).items())
        assert value * denominator == numerator

    requests = st.lists(
        st.none()
        | st.integers(0, 60).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d)))
        | st.integers(1, 3),
        max_size=8,
    )

    # None clears the cache between requests; an int j asks for the row of the
    # last request with a narrow side j lower, which the walk reaches stepping
    # down from that cached row
    @settings(max_examples=40, deadline=None)
    @given(requests)
    def test_any_request_order_matches_box_counts(self, requests):
        last = None
        for request in requests:
            if request is None:
                gaussian_binomial.cache_clear()
                continue
            if isinstance(request, int):
                if last is None:
                    continue
                d, k = last[0], max(0, min(last[1], last[0] - last[1]) - request)
            else:
                d, k = request
            last, poly = (d, k), gaussian_binomial(d, k)
            table = _box_size_counts(min(k, d - k), max(k, d - k))
            assert [poly.coefficient(s) for s in range(len(table))] == list(table)
            assert poly.top_degree() == len(table) - 1

    @pytest.mark.parametrize("d", [0, 1, 7, 8, 41])
    def test_mirrored_requests_share_one_value(self, d):
        for k in range(d + 1):
            gaussian_binomial.cache_clear()
            assert gaussian_binomial(d, k) is gaussian_binomial(d, d - k)
        for k in range(d + 1):
            assert gaussian_binomial(d, k) is gaussian_binomial(d, d - k)

    def test_cache_clear_empties_the_row_index(self):
        gaussian_binomial.cache_clear()
        for k in (3, 20, 47, 25):
            gaussian_binomial(50, k)
        assert qpoly._ROWS.keys() == {50} and qpoly._ROWS[50].keys() == {3, 20, 25}
        assert gaussian_binomial.cache_info() == (1, 3, None, 3)  # [50, 47] is [50, 3]
        gaussian_binomial.cache_clear()
        assert qpoly._ROWS == {}
        assert gaussian_binomial.cache_info() == (0, 0, None, 0)

    def test_each_miss_builds_one_held_row(self, monkeypatch):
        # every module that binds gaussian_binomial calls it through a counter
        calls, original = [], gaussian_binomial
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sbmotives"]:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, lambda d, k: calls.append((d, k)) or original(d, k))
        gaussian_binomial.cache_clear()
        assert verify.run_identity_suite(7).passed
        info = gaussian_binomial.cache_info()
        gaussian_binomial.cache_clear()
        assert info.misses == info.currsize == len({(d, min(k, d - k)) for d, k in calls})
        assert info.hits + info.misses == len(calls)

    def test_wide_binomial_needs_no_recursion(self):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        gaussian_binomial.cache_clear()
        sys.setrecursionlimit(depth + 30)
        try:
            cold = gaussian_binomial(400, 200).items()  # the value itself dies on clearing
            gaussian_binomial.cache_clear()
            for i in random.Random(400).sample(range(401), 6):
                gaussian_binomial(400, i)
            warm = gaussian_binomial(400, 200)
        finally:
            sys.setrecursionlimit(limit)
            gaussian_binomial.cache_clear()
        assert warm.items() == cold
        assert warm.top_degree() == 200 * 200 and warm.rank() == math.comb(400, 200)

    @pytest.mark.parametrize("max_n, steps", [(7, 174), (8, 360)])
    def test_conservation_requests_walk_from_the_nearest_row_either_side(self, monkeypatch, max_n, steps):
        # the binomials verify's conservation identity asks for, in its order,
        # with the products skipped; a walk that only steps up takes 330 and 1 110
        walked = []
        walk_step = qpoly._walk_step
        monkeypatch.setattr(qpoly, "_walk_step", lambda *args: walked.append(args[1:]) or walk_step(*args))
        monkeypatch.setattr(motive, "_packed_sum", lambda bottom, top, terms: [*terms] and GradedRankPoly())
        gaussian_binomial.cache_clear()
        try:
            for _ in verify._check_vandermonde_conservation(max_n):
                pass
        finally:
            gaussian_binomial.cache_clear()
        assert len(walked) == steps
        assert any(a < b for a, b, _ in walked)  # some steps go down

    def test_walk_starts_from_the_lower_of_two_equally_near_rows(self, monkeypatch):
        # [20, 4] and [20, 6] held: [20, 5] is one step up from [20, 4], by
        # (1 - q^16) / (1 - q^5), whose rows are shorter than those above
        gaussian_binomial.cache_clear()
        gaussian_binomial(20, 4), gaussian_binomial(20, 6)
        walked = []
        walk_step = qpoly._walk_step
        monkeypatch.setattr(qpoly, "_walk_step", lambda *args: walked.append(args[1:3]) or walk_step(*args))
        row = gaussian_binomial(20, 5)
        gaussian_binomial.cache_clear()
        assert walked == [(16, 5)]
        assert row == GradedRankPoly(brute_force_histogram(5, 15))

    @given(st.integers(0, 12))
    def test_symmetry_and_total_rank(self, d):
        for k in range(d + 1):
            poly = gaussian_binomial(d, k)
            top = k * (d - k)
            assert poly.top_degree() == top
            assert poly.bottom_degree() == 0
            assert all(poly.coefficient(j) == poly.coefficient(top - j) for j in range(top + 1))
            assert poly.rank() == math.comb(d, k)


class TestTruncatedReads:
    """``_gaussian_coefficient``: one coefficient of a row, by a walk cut
    after the coefficients it needs."""

    @pytest.mark.parametrize("d", range(41))
    def test_matches_full_rows(self, d):
        rows = [gaussian_binomial(d, k).items() for k in range(d + 1)]
        gaussian_binomial.cache_clear()
        # every third narrow side held: each other row is one step up or down
        # from a held one, or two up when the row above would pass d/2
        for c in range(0, d // 2 + 1, 3):
            gaussian_binomial(d, c)
        for k, row in enumerate(rows):
            top = k * (d - k)
            full = [0] * (top + 3)
            for s, count in row:
                full[s + 1] = count
            assert [_gaussian_coefficient(d, k, s) for s in range(-1, top + 2)] == full
        gaussian_binomial.cache_clear()

    @pytest.mark.parametrize(
        "d, k, s, held",
        [(200, 60, 3000, ()), (200, 140, 5000, ()), (200, 60, 0, ()), (120, 30, 1000, (40,)),
         (120, 30, 1000, (25,)), (120, 50, 2000, (60,)), (9, 4, 10, (3,))],
    )
    def test_walk_is_at_most_c_times_t_coefficients(self, monkeypatch, d, k, s, held):
        gaussian_binomial.cache_clear()
        for c in held:
            gaussian_binomial(d, c)
        lengths = []
        walk_step = qpoly._walk_step
        monkeypatch.setattr(qpoly, "_walk_step", lambda *args: lengths.append(args[3]) or walk_step(*args))
        c, top = min(k, d - k), k * (d - k)
        t = min(s, top - s) + 1
        value = _gaussian_coefficient(d, k, s)
        monkeypatch.undo()
        assert lengths and max(lengths) <= t and sum(lengths) <= c * t
        gaussian_binomial.cache_clear()
        assert value == gaussian_binomial(d, k).coefficient(s)
        gaussian_binomial.cache_clear()

    def test_top_of_a_wide_row_walks_one_coefficient_per_step(self, monkeypatch):
        # mu --p 101 --n 2 --k 1 --i 10201: the top of [10201, 101], which
        # spans 1 020 101 degrees; the one partition filling the box
        lengths = []
        walk_step = qpoly._walk_step
        monkeypatch.setattr(qpoly, "_walk_step", lambda *args: lengths.append(args[3]) or walk_step(*args))
        gaussian_binomial.cache_clear()
        assert _gaussian_coefficient(10201, 101, 101 * 10100) == 1
        assert _gaussian_coefficient(10201, 10100, 101 * 10100 - 2) == 2
        assert lengths == [1] * 101 + [3] * 101

    def test_a_read_leaves_the_cache_unchanged(self):
        gaussian_binomial.cache_clear()
        gaussian_binomial(60, 10), gaussian_binomial(60, 25)
        rows = {d: dict(held) for d, held in qpoly._ROWS.items()}
        info = gaussian_binomial.cache_info()
        # two rows held at degree 60, none at 59, which must not gain an empty index
        for d in (60, 59):
            for k in (0, 3, 12, 20, 28, 30, 45, 50):
                top = k * (d - k)
                for s in (-1, 0, 1, top // 3, top // 2, top - 1, top, top + 1):
                    _gaussian_coefficient(d, k, s)
        assert qpoly._ROWS == rows and gaussian_binomial.cache_info() == info
        gaussian_binomial.cache_clear()


class TestBoxCounts:
    def test_examples(self):
        # oracle first for the nontrivial case
        assert sum(sum(lam) == 2 for lam in enumerate_partitions_in_box(2, 2)) == 2
        assert count_partitions_in_box(PartitionBoxSpec(2, 2, 2)) == 2
        assert count_partitions_in_box(PartitionBoxSpec(0, 5, 0)) == 1
        assert count_partitions_in_box(PartitionBoxSpec(3, 1, 4)) == 0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PartitionBoxSpec(-1, 2, 0)
        with pytest.raises(DomainError):
            PartitionBoxSpec(1, 2, -3)
        with pytest.raises(DomainError):
            PartitionBoxSpec(True, 2, 1)

    @pytest.mark.parametrize("parts", range(7))
    @pytest.mark.parametrize("max_part", range(7))
    def test_enumeration_order(self, parts, max_part):
        # every tuple of entries in the box, kept when weakly decreasing and
        # sorted into descending lexicographic order
        expected = sorted(
            (lam for lam in itertools.product(range(max_part + 1), repeat=parts) if list(lam) == sorted(lam, reverse=True)),
            reverse=True,
        )
        assert list(enumerate_partitions_in_box(parts, max_part)) == expected

    def test_enumeration_of_degenerate_boxes(self):
        assert list(enumerate_partitions_in_box(2000, 0)) == [(0,) * 2000]
        assert list(enumerate_partitions_in_box(0, 5)) == [()]

    @pytest.mark.parametrize("parts,max_part", [(-1, 2), (2, -1), (True, 2), (2, 1.0)])
    def test_enumeration_checks_its_box_on_the_first_draw(self, parts, max_part):
        # a generator: the call itself does nothing, the first next() checks
        partitions = enumerate_partitions_in_box(parts, max_part)
        with pytest.raises(DomainError):
            next(partitions)

    def test_enumeration_yields_padded_decreasing_tuples(self):
        partitions = list(enumerate_partitions_in_box(3, 2))
        assert len(partitions) == len(set(partitions)) == math.comb(5, 2)
        for lam in partitions:
            assert len(lam) == 3
            assert all(lam[i] >= lam[i + 1] for i in range(2))
            assert all(0 <= part <= 2 for part in lam)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 40))
    def test_recurrence_matches_enumeration(self, parts, max_part, size):
        box = PartitionBoxSpec(parts, max_part, size)
        assert count_partitions_in_box(box) == sum(
            sum(lam) == size for lam in enumerate_partitions_in_box(parts, max_part)
        )

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_counts_are_gaussian_coefficients(self, parts, max_part):
        poly = gaussian_binomial(parts + max_part, max_part)
        for size in range(parts * max_part + 2):
            box = PartitionBoxSpec(parts, max_part, size)
            assert count_partitions_in_box(box) == poly.coefficient(size)

    def test_oversized_target_counts_zero(self):
        assert count_partitions_in_box(PartitionBoxSpec(4, 4, 17)) == 0

    def test_box_table_past_the_span_limit_refused_before_allocating(self, monkeypatch):
        # 3 001 rows of 9 000 001 sizes would be 2.7e10 entries
        start = time.perf_counter()
        with pytest.raises(DomainError, match="dense storage limit"):
            count_partitions_in_box(PartitionBoxSpec(3000, 3000, 1))
        assert time.perf_counter() - start < 1
        # a 7 x 11 table holds 12 rows of 78 sizes, 936 entries
        _box_size_counts.cache_clear()
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 935)
        with pytest.raises(DomainError, match="dense storage limit"):
            count_partitions_in_box(PartitionBoxSpec(7, 11, 30))
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 936)
        assert count_partitions_in_box(PartitionBoxSpec(7, 11, 30)) == gaussian_binomial(18, 7).coefficient(30)


class TestRankHomomorphism:
    polys = st.dictionaries(st.integers(0, 8), st.integers(0, 5), max_size=5).map(GradedRankPoly)

    @given(polys, polys)
    def test_rank_multiplicative(self, a, b):
        assert (a * b).rank() == a.rank() * b.rank()

    @given(polys, st.integers(0, 10))
    def test_rank_shift_invariant(self, a, t):
        assert a.shift(t).rank() == a.rank()

    @given(polys, polys)
    def test_add_is_coefficientwise(self, a, b):
        total = a + b
        degrees = {d for d, _ in a.items() + b.items()}
        assert all(total.coefficient(d) == a.coefficient(d) + b.coefficient(d) for d in degrees)


def _canonical(poly):
    """The same polynomial rebuilt through the checked public constructor."""
    return GradedRankPoly(dict(poly.items()))


def _schoolbook(a, b):
    """Reference product on {degree: coefficient} maps."""
    out = Counter()
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] += ca * cb
    return dict(out)


# Python before 3.10.7 has no int-to-str digit limit to set
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")


def _random_coeffs(rng, length, bits):
    """Dense length ``length`` (both ends nonzero), about a tenth of the interior zero."""
    offset = rng.randint(0, 9)
    coeffs = {}
    for i in range(length):
        if 0 < i < length - 1 and rng.random() < 0.1:
            continue
        coeffs[offset + i] = rng.getrandbits(bits) | 1
    return coeffs


class TestFastPath:
    polys = st.dictionaries(st.integers(0, 30), st.integers(0, 2**70), max_size=8).map(
        GradedRankPoly
    )

    @given(polys, polys, st.integers(0, 9), st.integers(0, 3))
    def test_results_are_canonical(self, a, b, t, scalar):
        for result in (a + b, a * b, a * scalar, scalar * b, a.shift(t)):
            assert result == _canonical(result)
            assert hash(result) == hash(_canonical(result))

    @given(st.integers(0, 30), st.data())
    def test_gaussian_results_are_canonical(self, d, data):
        poly = gaussian_binomial(d, data.draw(st.integers(0, d)))
        assert poly == _canonical(poly) and hash(poly) == hash(_canonical(poly))

    @given(polys, polys)
    def test_product_matches_reference(self, a, b):
        assert a * b == GradedRankPoly(_schoolbook(dict(a.items()), dict(b.items())))

    @pytest.mark.parametrize(
        "la,lb",
        [
            (1, 1), (1, 2), (2, 3), (3, 3), (1, 200), (64, 64), (64, 65),
            (1, 4096), (1, 4097), (2048, 2), (2049, 2), (4097, 2), (90, 91),
        ],
    )
    def test_kronecker_and_schoolbook_agree(self, la, lb):
        rng = random.Random(la * 10007 + lb)
        a = _random_coeffs(rng, la, 200)
        b = _random_coeffs(rng, lb, 200)
        assert GradedRankPoly(a) * GradedRankPoly(b) == GradedRankPoly(_schoolbook(a, b))

    @pytest.mark.parametrize("side", ["below", "at"])
    @pytest.mark.parametrize("la,lb", [(400, 400), (401, 300), (100, 800)])
    def test_both_carriers_agree_with_schoolbook(self, monkeypatch, la, lb, side):
        a, b = _around_carrier_switch(random.Random(la + lb), la, lb, side)
        products = _packed_products_made(monkeypatch)
        assert GradedRankPoly(a) * GradedRankPoly(b) == GradedRankPoly(_schoolbook(a, b))
        # an int-carried product is the pair of its values at X and -X
        assert [type(product) for product in products] == [tuple if side == "below" else Decimal]

    @pytest.mark.parametrize("side", ["below", "at"])
    def test_squares_of_one_object_and_of_equal_objects(self, side):
        a, _ = _around_carrier_switch(random.Random(7), 300, 300, side)
        poly, twin = GradedRankPoly(a), GradedRankPoly(a)
        expected = GradedRankPoly(_schoolbook(a, a))
        assert twin is not poly and twin == poly
        assert poly * poly == expected
        assert poly * twin == expected

    @pytest.mark.parametrize("side", ["below", "at"])
    def test_slots_hold_the_largest_possible_coefficient(self, side):
        # with every coefficient at the maximum, the middle coefficient of the
        # square is short * top**2, the bound the slot width is taken from
        short, switch = 400, qpoly._DECIMAL_CARRIER_BITS
        bits = (switch - 1) // short if side == "below" else -(-switch // short)
        top = math.isqrt(((1 << bits) - 1) // short)
        assert (short * top * top).bit_length() == bits
        a = {i: top for i in range(short)}
        assert GradedRankPoly(a) * GradedRankPoly(a) == GradedRankPoly(_schoolbook(a, a))

    # 2**2330 has 702 digits
    @needs_digit_limit
    @pytest.mark.parametrize("str_digits,big_bits", [(None, 20000), (640, 2330)])
    def test_slots_too_wide_for_str_stay_exact(self, str_digits, big_bits):
        rng = random.Random(big_bits)
        a = _random_coeffs(rng, 60, 64)
        a[min(a) + 30] = 1 << big_bits
        b = _random_coeffs(rng, 80, 64)
        limit = sys.get_int_max_str_digits()
        if str_digits is not None:
            sys.set_int_max_str_digits(str_digits)
        try:
            product = GradedRankPoly(a) * GradedRankPoly(b)
        finally:
            sys.set_int_max_str_digits(limit)
        assert product == GradedRankPoly(_schoolbook(a, b))

    # the slot bound, short * 2**1000 * 2**(bits - 1000 - short.bit_length()),
    # has ``bits`` bits: a slot of 2 126 bits has 640 digits, as many as str
    # may convert under a limit of 640, and one of 2 127 bits has 641;
    # ``short`` is the fewest slots of 2 126 bits that reach the carrier
    # switch, so both sizes pass it
    @needs_digit_limit
    @pytest.mark.parametrize("bits,carried", [(2126, Decimal), (2127, tuple)])
    def test_slots_as_wide_as_str_allows_stay_decimal(self, monkeypatch, bits, carried):
        rng = random.Random(bits)
        short = -(-qpoly._DECIMAL_CARRIER_BITS // 2126)
        a = _random_coeffs(rng, short, 900)
        a[min(a) + 20] = 1 << 1000
        b = _random_coeffs(rng, short + 12, 900)
        b[min(b) + 30] = 1 << (bits - 1000 - short.bit_length())
        products = _packed_products_made(monkeypatch)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            product = GradedRankPoly(a) * GradedRankPoly(b)
        finally:
            sys.set_int_max_str_digits(limit)
        assert [type(p) for p in products] == [carried]
        assert product == GradedRankPoly(_schoolbook(a, b))

    def test_sums_of_millions_of_digits_read_back_whole(self, monkeypatch):
        # about 2.4 million digits in slots of 1 208, read back by one format()
        rng = random.Random(2000)
        a, b = _random_coeffs(rng, 800, 2000), _random_coeffs(rng, 1200, 2000)
        products = _packed_products_made(monkeypatch)
        on_decimal = GradedRankPoly(a) * GradedRankPoly(b)
        (packed,) = products
        assert isinstance(packed, Decimal) and packed.adjusted() + 1 > 2**21  # two million digits
        del products[:], packed
        monkeypatch.setattr(qpoly, "_DECIMAL_CARRIER_BITS", 2**62)
        assert on_decimal == GradedRankPoly(a) * GradedRankPoly(b)
        assert [type(p) for p in products] == [tuple]

    def test_decimal_product_that_would_round_raises(self, monkeypatch):
        # about 160 000 digits, where a precision of 1 000 can only round
        rng = random.Random(61)
        a, b = _random_coeffs(rng, 2000, 61), _random_coeffs(rng, 2000, 61)
        monkeypatch.setattr(qpoly, "_DECIMAL_CARRIER_BITS", 0)
        monkeypatch.setattr(decimal, "MAX_PREC", 1000)
        with pytest.raises(DomainError, match="more than the 1000 digits") as raised:
            GradedRankPoly(a) * GradedRankPoly(b)
        assert isinstance(raised.value.__cause__, (decimal.Inexact, decimal.Rounded))

    def test_identity_suite_sums_sit_on_both_sides_of_the_switch(self, monkeypatch):
        # the largest N = 7 conservation sum, (7, 6) at about 123 000 packed
        # bits, is carried by int, so a fresh run_identity_suite(7) never
        # loads decimal (pytest itself has); (8, 5), at about 233 000, is
        # carried by decimal
        probe = (
            "import sys\n"
            "from sbmotives import run_identity_suite\n"
            "assert run_identity_suite(7).passed\n"
            "print('decimal' in sys.modules)"
        )
        done = run_python("-c", probe, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"
        for n, k, carried in ((7, 6, tuple), (8, 5, Decimal)):
            products = _packed_products_made(monkeypatch)
            variety = SBVariety(DivisionContext(2, n), k)
            assert function_field_decomposition(variety).split_poincare() == gaussian_binomial(2**n, 2**k)
            assert products and {type(p) for p in products} == {carried}
            monkeypatch.undo()


def _packed_products_made(patch):
    """The list that every packed product ``_term_product`` makes from now on
    is appended to."""
    products, original = [], qpoly._term_product
    patch.setattr(qpoly, "_term_product", lambda *args: products.append(original(*args)) or products[-1])
    return products


def _around_carrier_switch(rng, la, lb, side):
    """Operands whose packed size is just below, or at least, the carrier
    switch ``_DECIMAL_CARRIER_BITS``.

    The packed size is the shorter length times the bit length of
    ``shorter * max(a) * max(b)``; both operands get the same largest
    coefficient, and some interior zeros.
    """
    short, switch = min(la, lb), qpoly._DECIMAL_CARRIER_BITS
    bits = (switch - 1) // short if side == "below" else -(-switch // short)
    top = math.isqrt((1 << (bits - 1)) // short)
    while (short * top * top).bit_length() < bits:
        top += 1
    assert (short * top * top).bit_length() == bits
    assert (short * bits < switch) == (side == "below")
    operands = []
    for length in (la, lb):
        coeffs = _random_coeffs(rng, length, bits // 2 - 8)
        coeffs[min(coeffs) + rng.randrange(length)] = top
        operands.append(coeffs)
    return operands


def _reference_sum(terms):
    """Schoolbook ``sum(mult * q**twist * prod(factors))`` on {degree: coefficient} maps."""
    out = Counter()
    for factors, placements in terms:
        product = {0: 1}
        for factor in factors:
            product = _schoolbook(product, dict(factor.items()))
        for twist, mult in placements:
            for degree, count in product.items():
                out[degree + twist] += mult * count
    return GradedRankPoly(dict(out))


def _placed_span(terms):
    """Lowest bottom and highest top degree of every placed product."""
    lows, highs = zip(*[
        (sum(f.bottom_degree() for f in factors) + twist, sum(f.top_degree() for f in factors) + twist)
        for factors, placements in terms
        for twist, _ in placements
    ])
    return min(lows), max(highs)


# _DECIMAL_CARRIER_BITS that send every sum through one carrier, and an
# int-to-str digit limit (None leaves the interpreter's): the last wants
# decimal for every sum, but a slot wider than 20 digits falls back to int
_CARRIERS = pytest.mark.parametrize(
    "carrier",
    [(2**62, None), (0, None), (0, 20)],
    ids=["int", "decimal", "decimal-under-20-digit-limit"],
)


# Largest coefficients one bit over a whole number of bytes, so the bound fills
# slots of 9 bytes (2**64) and of 7 to 16, odd and even, where half a slot, the
# int carrier's X, falls on a byte and between two; and one digit over a power
# of ten, so the bound fills decimal slots of 21 digits (10**20) and of 16 to 39
_PEAKS = [2**64, 10**20] + [2 ** (8 * n - 8) for n in (7, 8, 10, 12, 16)] + [10 ** (n - 1) for n in (16, 18, 26, 31, 39)]
_PEAK_IDS = ["byte-slot", "digit-slot"] + [f"{n}-byte-slot" for n in (7, 8, 10, 12, 16)] + [
    f"{n}-digit-slot" for n in (16, 18, 26, 31, 39)
]


def _force(patch, carrier):
    bits, limit = carrier
    patch.setattr(qpoly, "_DECIMAL_CARRIER_BITS", bits)
    if limit is not None:
        patch.setattr(qpoly, "_str_digit_limit", lambda: limit)


class TestPackedSum:
    pool = st.lists(
        st.dictionaries(st.integers(0, 12), st.integers(1, 2**40), min_size=1, max_size=6).map(GradedRankPoly),
        min_size=1,
        max_size=4,
    )

    @_CARRIERS
    @settings(deadline=None)
    @given(pool, st.data())
    def test_matches_schoolbook(self, carrier, pool, data):
        # factors are drawn from a small pool, so a term may repeat one object
        index = st.integers(0, len(pool) - 1)
        placement = st.tuples(st.integers(0, 9), st.integers(0, 4))
        drawn = data.draw(st.lists(
            st.tuples(st.lists(index, min_size=1, max_size=3), st.lists(placement, min_size=1, max_size=3)),
            min_size=1,
            max_size=4,
        ))
        terms = [(tuple(pool[i] for i in picks), placements) for picks, placements in drawn]
        low, high = _placed_span(terms)
        bottom = low - data.draw(st.integers(0, low))
        top = high + data.draw(st.integers(0, 3))
        with pytest.MonkeyPatch.context() as patch:
            _force(patch, carrier)
            assert qpoly._packed_sum(bottom, top, terms) == _reference_sum(terms)

    def test_sums_and_scalar_multiples_pack_nothing(self, monkeypatch):
        # one-factor terms are added unpacked, where packing measured 2-19x slower
        def packed(*args):
            raise AssertionError("a one-factor term was packed")

        monkeypatch.setattr(qpoly, "_packed_products", packed)
        a, b = GradedRankPoly({0: 1, 2: 5}), GradedRankPoly({1: 3, 2: 4})
        assert a + b == GradedRankPoly({0: 1, 1: 3, 2: 9})
        assert a * 3 == 3 * a == GradedRankPoly({0: 3, 2: 15})
        assert a + b.shift(10**6) == GradedRankPoly({0: 1, 2: 5, 10**6 + 1: 3, 10**6 + 2: 4})

    @_CARRIERS
    @pytest.mark.parametrize("lengths", [(1, 2), (2, 2), (3, 3), (2, 5), (4, 7), (2, 3, 4), (3, 3, 5)])
    @pytest.mark.parametrize("bottoms", [(0, 0, 0), (1, 0, 0), (2, 3, 1)])
    def test_lengths_bottoms_and_twists_of_both_parities(self, monkeypatch, carrier, lengths, bottoms):
        # odd and even factor lengths; products starting at odd and even
        # degrees; twists of both parities, multiplicities above 1, a square,
        # three factors and a one-factor term, in one sum
        _force(monkeypatch, carrier)
        rng = random.Random(repr((lengths, bottoms)))
        factors = tuple(
            GradedRankPoly({low + i: rng.getrandbits(40) | 1 for i in range(length)})
            for length, low in zip(lengths, bottoms)
        )
        terms = [
            (factors, [(0, 1), (1, 3), (4, 2), (7, 5)]),
            ((factors[0], factors[0]), [(1, 2), (2, 1)]),
            ((factors[-1], factors[-1], factors[1]), [(3, 4)]),
            ((factors[1],), [(0, 6), (5, 1)]),
        ]
        low, high = _placed_span(terms)
        for bottom in {low, low - 1} - {-1}:  # the offsets of every placement take both parities
            assert qpoly._packed_sum(bottom, high, terms) == _reference_sum(terms)

    @_CARRIERS
    @pytest.mark.parametrize("peak", _PEAKS, ids=_PEAK_IDS)
    def test_every_term_at_its_bound_carries_nothing(self, monkeypatch, carrier, peak):
        # Each term reaches its bound, multiplicity times the product of its
        # factors' lengths over the longest one times their largest
        # coefficients, at degree 10, so the sum's largest coefficient is the
        # bound.  Each peak takes one bit or one digit more than half of it
        # gets (see _PEAKS); the three-factor term, twice placed, holds about
        # nine tenths of the peak.  Every term has two factors or more, so all
        # of it is packed: a one-factor term would be added unpacked, outside
        # the bound.
        _force(monkeypatch, carrier)
        slot_bits, original = [], qpoly._packed_products
        monkeypatch.setattr(qpoly, "_packed_products", lambda *args: slot_bits.append(args[2]) or original(*args))
        flat = lambda low, length, value: GradedRankPoly({d: value for d in range(low, low + length)})
        square = flat(2, 5, 2**20)  # its square has 5 * 2**40 at degrees 4 + 4 = 8
        top = peak * 9 // (120 << 40)
        three = (flat(1, 2, 2**20), flat(0, 3, 2**20), flat(3, 4, top))  # 2 * 3 * 2**40 * top at 4 + 3 = 7
        rest = peak - 2 * 6 * 2**40 * top - 3 * 5 * 2**40
        unit = GradedRankPoly({0: 1})
        terms = [(three, [(3, 2)]), ((square, square), [(2, 3)]), ((GradedRankPoly({7: rest}), unit), [(3, 1)])]
        low, high = _placed_span(terms)
        total = qpoly._packed_sum(low, high, terms)
        assert slot_bits == [peak.bit_length()]
        assert total.coefficient(10) == peak == max(c for _, c in total.items())
        assert total == _reference_sum(terms)
