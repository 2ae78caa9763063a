import time

import pytest
from hypothesis import given, strategies as st

from sbmotives import (
    TATE,
    DivisionContext,
    DomainError,
    GradedRankPoly,
    MotiveExpr,
    SBProduct,
    SBVariety,
    Term,
    UnsupportedOperationError,
    UpperMotive,
    function_field_decomposition,
    gaussian_binomial,
    motive,
    normalize_object,
)
from sbmotives import qpoly

C21 = DivisionContext(2, 1)
C22 = DivisionContext(2, 2)
C31 = DivisionContext(3, 1)


class TestDivisionContext:
    def test_degree(self):
        assert C22.degree == 4
        assert DivisionContext(3, 2).degree == 9
        assert DivisionContext(5, 0).degree == 1

    def test_degree_is_computed_once(self):
        context = DivisionContext(2, 200)
        assert context.degree is context.degree == 2**200
        assert context == DivisionContext(2, 200) and hash(context) == hash(DivisionContext(2, 200))

    # 561 is a Carmichael number, 2047 the least strong pseudoprime to base 2,
    # 318665857834031151167461 the least one to every prime base up to 37
    @pytest.mark.parametrize(
        "p", [0, 1, 4, 6, 9, -3, 561, 2047, 2**61 + 1, 318665857834031151167461]
    )
    def test_rejects_non_primes(self, p):
        with pytest.raises(DomainError):
            DivisionContext(p, 1)

    @pytest.mark.parametrize("p", [2, 41, 43, 2**31 - 1, 2**61 - 1])
    def test_accepts_primes(self, p):
        assert DivisionContext(p, 1).degree == p

    @pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1])
    def test_rejects_p_beyond_primality_bound(self, p):
        with pytest.raises(DomainError, match="primality is only decided below"):
            DivisionContext(p, 1)

    def test_rejects_negative_exponent(self):
        with pytest.raises(DomainError):
            DivisionContext(2, -1)

    def test_rejects_bool_exponent(self):
        with pytest.raises(DomainError):
            DivisionContext(2, True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MotiveExpr.of((TATE, True)),
        lambda: MotiveExpr.of((TATE, 0, True)),
        lambda: MotiveExpr.of((TATE, 0)).twist(True),
        lambda: UpperMotive(C22, True),
        lambda: SBProduct(C22, (True,)),
    ],
)
def test_bool_is_not_an_integer(build):
    with pytest.raises(DomainError):
        build()


class TestNormalization:
    def test_point_factors_drop(self):
        assert normalize_object(SBProduct(C22, (0, 2))) == SBProduct(C22, (2,))
        assert normalize_object(SBProduct(C22, (2, 0))) == SBProduct(C22, (2,))
        assert normalize_object(SBProduct(C22, (0, 4))) == TATE
        assert normalize_object(SBProduct(C22, ())) == TATE

    def test_upper_endpoint_levels(self):
        assert normalize_object(UpperMotive(C22, 2)) == TATE
        assert normalize_object(UpperMotive(C22, 0)) == SBProduct(C22, (1,))
        assert normalize_object(UpperMotive(C22, 1)) == UpperMotive(C22, 1)
        assert normalize_object(UpperMotive(DivisionContext(2, 0), 0)) == TATE

    def test_products_are_canonical_when_built(self):
        assert SBProduct(C22, (3, 0, 1, 4, 2)).dims == (1, 2, 3)
        assert SBProduct(C22, (d for d in (2, 1))).dims == (1, 2)
        assert SBProduct(C22, (0, 4)).dims == ()
        assert repr(SBProduct(C22, (3, 1))) == "SBProduct(p=2, n=2, dims=(1, 3))"

    def test_validation(self):
        with pytest.raises(DomainError):
            UpperMotive(C22, 3)
        with pytest.raises(DomainError):
            SBProduct(C22, (5,))
        with pytest.raises(DomainError):
            Term(TATE, -1)


class TestExprAlgebra:
    def test_sum_is_multiset_union(self):
        a = MotiveExpr.of((TATE, 0))
        assert (a + a).term_items() == ((Term(TATE, 0), 2),)

    def test_twist_distributes(self):
        e = MotiveExpr.of((TATE, 0))
        assert e.twist(4) == MotiveExpr.of((TATE, 4))
        assert MotiveExpr().twist(3) == MotiveExpr()

    def test_product_concatenates_factor_lists(self):
        a = MotiveExpr.of((SBProduct(C22, (1,)), 0))
        assert a * a == MotiveExpr.of((SBProduct(C22, (1, 1)), 0))

    def test_tate_is_the_unit_and_twists_add(self):
        a = MotiveExpr.of((TATE, 2))
        b = MotiveExpr.of((SBProduct(C22, (2,)), 1))
        assert a * b == MotiveExpr.of((SBProduct(C22, (2,)), 3))

    def test_zero_annihilates(self):
        b = MotiveExpr.of((SBProduct(C22, (2,)), 1))
        assert MotiveExpr() * b == MotiveExpr()

    def test_product_rejects_opaque_upper(self):
        a = MotiveExpr.of((UpperMotive(C22, 1), 0))
        with pytest.raises(UnsupportedOperationError):
            a * a

    def test_product_rejects_mixed_contexts(self):
        a = MotiveExpr.of((SBProduct(C21, (1,)), 0))
        b = MotiveExpr.of((SBProduct(C22, (1,)), 0))
        with pytest.raises(DomainError):
            a * b

    # Each case fails if its guard is removed: the call would return, or
    # raise an AttributeError or a NameError instead.
    @pytest.mark.parametrize("call, outcome", [
        pytest.param(lambda: normalize_object(42), DomainError, id="normalize-not-an-object"),
        pytest.param(lambda: MotiveExpr([42]), DomainError, id="expr-not-a-term"),
        pytest.param(lambda: MotiveExpr.of((TATE, 1)) + 1, TypeError, id="add-an-int"),
        pytest.param(lambda: MotiveExpr.of((TATE, 1)) * 1, TypeError, id="multiply-by-an-int"),
        pytest.param(lambda: MotiveExpr.of((TATE, 1)) == 1, False, id="equal-to-an-int"),
    ])
    def test_guards_refuse_what_is_not_a_motive(self, call, outcome):
        if outcome is False:
            assert call() is False
        else:
            with pytest.raises(outcome, match="not a|unsupported operand"):
                call()


class TestKrullSchmidtEquality:
    def test_order_insensitive(self):
        a = MotiveExpr.of((TATE, 0), (TATE, 4))
        b = MotiveExpr.of((TATE, 4), (TATE, 0))
        assert a == b

    def test_multiplicity_sensitive(self):
        a = MotiveExpr.of((TATE, 0))
        b = MotiveExpr.of((TATE, 0), (TATE, 0))
        assert a != b

    def test_point_products_are_tate(self):
        a = MotiveExpr.of((SBProduct(C21, (0, 0)), 1))
        assert a == MotiveExpr.of((TATE, 1))

    def test_factor_order_is_isomorphism(self):
        a = MotiveExpr.of((SBProduct(C22, (1, 2)), 0))
        b = MotiveExpr.of((SBProduct(C22, (2, 1)), 0))
        assert a == b and hash(a) == hash(b)

    def test_mirrored_pair_is_one_object_at_two_twists(self):
        expr = function_field_decomposition(SBVariety(DivisionContext(2, 3), 2))
        products = [(term.obj.dims, term.twist) for term, _ in expr.term_items() if term.obj != TATE]
        assert products == [((1, 3), 1), ((1, 3), 9), ((2, 2), 4)]

    def test_equivalence_respects_poincare(self):
        a = MotiveExpr.of((SBProduct(C22, (0, 2)), 1))
        b = MotiveExpr.of((SBProduct(C22, (2, 0)), 1))
        assert a == b
        assert a.split_poincare() == b.split_poincare()


class TestSplitPoincare:
    def test_grassmannian_term(self):
        e = MotiveExpr.of((SBProduct(C22, (2,)), 0))
        assert e.split_poincare() == gaussian_binomial(4, 2)

    def test_tate_terms(self):
        e = MotiveExpr.of((TATE, 0), (TATE, 4))
        assert e.split_poincare() == GradedRankPoly({0: 1, 4: 1})

    def test_level_zero_upper_is_a_conic(self):
        e = MotiveExpr.of((UpperMotive(C21, 0), 1))
        assert e.split_poincare() == GradedRankPoly({1: 1, 2: 1})

    def test_opaque_upper_rejected_by_name(self):
        e = MotiveExpr.of((UpperMotive(C22, 1), 0))
        with pytest.raises(UnsupportedOperationError) as excinfo:
            e.split_poincare()
        assert "Upper(p=2, n=2, level=1)" in str(excinfo.value)

    def test_zero_expression(self):
        assert MotiveExpr().split_poincare() == GradedRankPoly()

    def test_far_twist_is_one_coefficient(self):
        assert MotiveExpr.of((TATE, 10**9)).split_poincare() == GradedRankPoly({10**9: 1})

    def test_wide_span_rejected_before_allocating(self, monkeypatch):
        monkeypatch.setattr(qpoly, "_MAX_DENSE_SPAN", 1000)
        assert MotiveExpr.of((TATE, 0), (TATE, 999)).split_poincare().dim() == 999
        with pytest.raises(DomainError, match="dense storage limit"):
            MotiveExpr.of((TATE, 0), (TATE, 2 * 10**6)).split_poincare()

    def test_far_apart_twists_from_json_rejected_quickly(self):
        near = {"object": {"kind": "tate"}, "twist": "0", "multiplicity": "1"}
        far = dict(near, twist=str(10**9))
        start = time.perf_counter()
        with pytest.raises(DomainError, match="dense storage limit"):
            MotiveExpr.from_json_obj([near, far]).split_poincare()
        assert time.perf_counter() - start < 1.0

    def test_first_opaque_upper_in_canonical_order_is_named(self):
        e = MotiveExpr.of(
            (SBProduct(C22, (1,)), 0),
            (UpperMotive(DivisionContext(2, 3), 2), 0),
            (UpperMotive(C22, 1), 3),
        )
        with pytest.raises(UnsupportedOperationError) as excinfo:
            e.split_poincare()
        assert str(excinfo.value) == (
            "the split polynomial of the opaque upper motive "
            "Upper(p=2, n=2, level=1) is not determined; refusing to guess"
        )

    def test_mirrored_products_are_built_once(self, monkeypatch):
        expr = function_field_decomposition(SBVariety(DivisionContext(2, 6), 5))
        keys = {term.obj for term, _ in expr.term_items()}
        assert len(expr.term_items()) == 33 and len(keys) == 17
        drawn = []
        original = motive.gaussian_binomial
        monkeypatch.setattr(motive, "gaussian_binomial", lambda d, k: drawn.append((d, k)) or original(d, k))
        assert expr.split_poincare() == gaussian_binomial(64, 32)
        factors = [(obj.context.degree, d) for obj in keys if isinstance(obj, SBProduct) for d in obj.dims]
        assert len(factors) == 32 and sorted(drawn) == sorted(factors)

    def test_each_product_starts_from_its_first_binomial(self, monkeypatch):
        expr = function_field_decomposition(SBVariety(DivisionContext(2, 6), 5))
        keys = {term.obj for term, _ in expr.term_items()}
        expected = sum(len(obj.dims) - 1 for obj in keys if isinstance(obj, SBProduct))
        assert len(keys) == 17 and expected == 16
        expr.split_poincare()  # every factor is cached, so the sum alone builds a polynomial
        squares, built, products = [], [], []
        original_product, original_trusted = qpoly._term_product, GradedRankPoly._trusted

        def counting_product(factors, pack, multiply):
            return original_product(factors, pack, lambda a, b: squares.append(a is b) or multiply(a, b))

        def counting_trusted(cls, bottom, coeffs):
            built.append(len(coeffs))
            return original_trusted(bottom, coeffs)

        monkeypatch.setattr(qpoly, "_term_product", counting_product)
        monkeypatch.setattr(GradedRankPoly, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(GradedRankPoly, "__mul__", lambda a, b: products.append(b))
        assert expr.split_poincare() == gaussian_binomial(64, 32)
        # [32, i] and [32, 32 - i] are one object, packed once and squared
        assert squares == [True] * expected
        assert built == [32 * 32 + 1] and products == []


class TestIdentifyUpperLower:
    def test_single_term_is_both(self):
        e = MotiveExpr.of((TATE, 0))
        located = e.identify_upper_lower()
        assert located.upper == located.lower == Term(TATE, 0)
        assert located.upper_multiplicity == located.lower_multiplicity == 1

    def test_tie_reports_multiplicity(self):
        e = MotiveExpr.of((TATE, 1), (TATE, 1))
        located = e.identify_upper_lower()
        assert located.upper is None and located.upper_multiplicity == 2
        assert located.lower is None and located.lower_multiplicity == 2

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            MotiveExpr().identify_upper_lower()

    def test_distinct_objects_at_extremes(self):
        e = MotiveExpr.of((TATE, 0), (SBProduct(C21, (1,)), 2))
        located = e.identify_upper_lower()
        assert located.upper == Term(TATE, 0)
        assert located.lower == Term(SBProduct(C21, (1,)), 2)

    def test_opaque_upper_rejected(self):
        e = MotiveExpr.of((TATE, 0), (UpperMotive(C22, 1), 0))
        with pytest.raises(UnsupportedOperationError, match="opaque upper motive"):
            e.identify_upper_lower()


class TestProductRank:
    def test_sbproduct_rank_is_product_of_binomials(self):
        import math

        for context in (C21, C22, C31, DivisionContext(3, 2)):
            degree = context.degree
            for dims in [(1,), (1, 1), (degree - 1, 1), (1, 2, 1)]:
                if any(d > degree for d in dims):
                    continue
                e = MotiveExpr.of((SBProduct(context, dims), 0))
                expected = math.prod(math.comb(degree, d) for d in dims)
                assert e.split_poincare().rank() == expected, (context, dims)


class TestJson:
    def test_round_trip_and_canonical_bytes(self):
        e = MotiveExpr.of(
            (SBProduct(C21, (1, 1)), 1),
            (TATE, 4),
            (TATE, 0),
            (UpperMotive(C22, 1), 2),
        )
        encoded = e.to_json_obj()
        assert MotiveExpr.from_json_obj(encoded) == e
        # canonical order: tate terms, then upper, then products
        kinds = [entry["object"]["kind"] for entry in encoded]
        assert kinds == ["tate", "tate", "upper", "product"]
        import json

        assert json.dumps(encoded) == json.dumps(e.to_json_obj())

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            MotiveExpr.from_json_obj([{"object": {"kind": "mystery"}, "twist": "0", "multiplicity": "1"}])

    @pytest.mark.parametrize("dims", ["13", {"1": 0, "3": 0}])
    def test_dims_that_are_not_a_list_rejected(self, dims):
        obj = {"kind": "product", "p": "2", "n": "2", "dims": dims}
        with pytest.raises(DomainError, match="malformed motive encoding"):
            MotiveExpr.from_json_obj([{"object": obj, "twist": "0", "multiplicity": "1"}])

    def test_object_that_is_not_a_mapping_rejected(self):
        with pytest.raises(DomainError, match="malformed motive encoding"):
            MotiveExpr.from_json_obj([{"object": [], "twist": "0", "multiplicity": "1"}])

    @pytest.mark.parametrize("data", [None, 5, {}, ""])
    def test_top_level_that_is_not_a_list_rejected(self, data):
        with pytest.raises(DomainError, match="malformed motive encoding"):
            MotiveExpr.from_json_obj(data)

    @pytest.mark.parametrize(
        "obj,twist,multiplicity",
        [
            ({"kind": "product", "p": "2", "n": 2.5, "dims": ["1", 2.9]}, 0.5, "1"),
            ({"kind": "product", "p": "2", "n": "2", "dims": ["1", 2.9]}, "0", "1"),
            ({"kind": "product", "p": "2", "n": "2", "dims": ["1"]}, 0.5, "1"),
            ({"kind": "tate"}, "0", True),
            ({"kind": "upper", "p": "2", "n": "2", "level": 1}, "0", "1"),
            ({"kind": "upper", "p": " +0_2 ", "n": "2", "level": "1"}, "0", "1"),
            ({"kind": "upper", "p": "02", "n": "2", "level": "1"}, "0", "1"),
            ({"kind": "upper", "p": "\u0662", "n": "2", "level": "1"}, "0", "1"),
            ({"kind": "upper", "p": "2 ", "n": "2", "level": "1"}, "0", "1"),
            ({"kind": "tate"}, "01", "1"),
        ],
    )
    def test_integer_that_is_not_a_string_rejected(self, obj, twist, multiplicity):
        entry = {"object": obj, "twist": twist, "multiplicity": multiplicity}
        with pytest.raises(DomainError, match="decimal strings"):
            MotiveExpr.from_json_obj([entry])

    def test_negative_multiplicity_rejected_before_summing(self):
        entry = {"object": {"kind": "tate"}, "twist": "0"}
        for mults in (["-2"], ["2", "-2"], ["-2", "2"]):
            encoded = [{**entry, "multiplicity": m} for m in mults]
            with pytest.raises(DomainError, match="multiplicity must be a nonnegative"):
                MotiveExpr.from_json_obj(encoded)


# -- property tests ---------------------------------------------------------

objects = st.sampled_from(
    [
        TATE,
        SBProduct(C21, (1,)),
        SBProduct(C21, (1, 1)),
        SBProduct(C22, (2,)),
        SBProduct(C22, (1, 3)),
        SBProduct(C31, (1, 2)),
    ]
)
terms = st.tuples(objects, st.integers(0, 4))
exprs = st.lists(terms, max_size=4).map(MotiveExpr)


@given(exprs, exprs)
def test_poincare_additive(a, b):
    assert (a + b).split_poincare() == a.split_poincare() + b.split_poincare()


@given(exprs, st.integers(0, 5))
def test_poincare_twist_shifts(a, t):
    assert a.twist(t).split_poincare() == a.split_poincare().shift(t)


same_context_exprs = st.lists(
    st.tuples(st.sampled_from([TATE, SBProduct(C21, (1,))]), st.integers(0, 3)),
    max_size=3,
).map(MotiveExpr)


@given(same_context_exprs, same_context_exprs)
def test_poincare_multiplicative(a, b):
    assert (a * b).split_poincare() == a.split_poincare() * b.split_poincare()


@given(exprs, exprs)
def test_equality_is_symmetric_and_respects_hash(a, b):
    assert a == a
    if a == b:
        assert b == a
        assert hash(a) == hash(b)
        assert a.split_poincare() == b.split_poincare()


@given(terms)
def test_single_term_is_its_own_extremes(term):
    obj, twist = term
    e = MotiveExpr.of((obj, twist))
    located = e.identify_upper_lower()
    assert located.upper == located.lower == Term(obj, twist)


@st.composite
def sbproduct_exprs(draw):
    """Sums of up to five twisted, repeated products over one of a few algebras."""
    context = draw(st.sampled_from([C21, C22, DivisionContext(2, 3), C31, DivisionContext(3, 2)]))
    dims = st.lists(st.integers(0, context.degree), max_size=3)
    entries = draw(
        st.lists(
            st.tuples(dims, st.integers(0, 20), st.integers(1, 3)), min_size=1, max_size=5
        )
    )
    return MotiveExpr(
        [(SBProduct(context, tuple(ds)), twist, mult) for ds, twist, mult in entries]
    )


@given(sbproduct_exprs())
def test_extremes_agree_with_split_polynomials(e):
    spans = []
    for term, mult in e.term_items():
        poly = MotiveExpr.of(term).split_poincare()
        spans.append((term, mult, poly.bottom_degree(), poly.top_degree()))
    bottom = min(s[2] for s in spans)
    top = max(s[3] for s in spans)
    upper = [(t, m) for t, m, b, _ in spans if b == bottom]
    lower = [(t, m) for t, m, _, tp in spans if tp == top]
    located = e.identify_upper_lower()
    assert located.upper_multiplicity == sum(m for _, m in upper)
    assert located.lower_multiplicity == sum(m for _, m in lower)
    assert located.upper == (upper[0][0] if located.upper_multiplicity == 1 else None)
    assert located.lower == (lower[0][0] if located.lower_multiplicity == 1 else None)


@st.composite
def mixed_exprs(draw):
    """Tate terms and products over a few algebras, factors in any order,
    each product possibly joined by its mirror image at another twist."""
    contexts = [C21, C22, DivisionContext(2, 3), C31, DivisionContext(3, 2)]
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        twist, mult = draw(st.integers(0, 50)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            entries.append((TATE, twist, mult))
            continue
        context = draw(st.sampled_from(contexts))
        dims = tuple(draw(st.lists(st.integers(0, context.degree), max_size=3)))
        entries.append((SBProduct(context, dims), twist, mult))
        if draw(st.booleans()):
            entries.append((SBProduct(context, dims[::-1]), draw(st.integers(0, 50)), mult))
    return MotiveExpr(entries)


def reference_split_poincare(e):
    """Sum of mult * q^twist * prod [deg, d] over the terms, one term at a time."""
    total = GradedRankPoly()
    for term, mult in e.term_items():
        poly = GradedRankPoly({0: 1})
        if isinstance(term.obj, SBProduct):
            for d in term.obj.dims:
                poly = poly * gaussian_binomial(term.obj.context.degree, d)
        total = total + poly.shift(term.twist) * mult
    return total


@given(mixed_exprs())
def test_split_poincare_matches_termwise_sum(e):
    assert e.split_poincare() == reference_split_poincare(e)


@given(st.data())
def test_factor_order_and_point_factors_do_not_matter(data):
    """Permuting an SBProduct's factors and inserting point factors gives the
    same object: equal, with equal hash, polynomial and encoding."""
    context = data.draw(st.sampled_from([C21, C22, DivisionContext(2, 3), C31, DivisionContext(3, 2)]))
    dims = data.draw(st.lists(st.integers(0, context.degree), max_size=4))
    points = data.draw(st.lists(st.sampled_from([0, context.degree]), max_size=3))
    shuffled = data.draw(st.permutations(dims + points))
    twist = data.draw(st.integers(0, 5))
    assert SBProduct(context, dims) == SBProduct(context, shuffled)
    assert hash(SBProduct(context, dims)) == hash(SBProduct(context, shuffled))
    a = MotiveExpr.of((SBProduct(context, dims), twist))
    b = MotiveExpr.of((SBProduct(context, shuffled), twist))
    assert a == b and hash(a) == hash(b)
    assert a.split_poincare() == b.split_poincare()
    assert a.to_json_obj() == b.to_json_obj()
