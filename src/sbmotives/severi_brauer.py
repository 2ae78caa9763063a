"""Decomposition rules for Severi-Brauer varieties of p-primary division algebras.

The variety of reduced-dimension ``p**level`` right ideals of a division
algebra of degree ``p**n`` twists a Grassmannian, which fixes its dimension
and all split-level rank data.  This module packages the handful of exact
statements the rest of the engine consumes:

* the count of rational cycle classes on the product with the classical
  Severi-Brauer variety, and the order of the rational Chow group it forces;
* the splitting of the motive over the function field of the half-degree
  ideal variety (explicit twists are only printed for ``p = 2``; for other
  primes only the endpoint summands are produced);
* the classification of reduced dimensions for which the lifting property of
  motivic decompositions is settled.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import count, islice, repeat
from typing import Iterator

from ._record import Record, set_field
from .errors import DomainError, UnsupportedOperationError
from .motive import _PRIMALITY_BOUND, DivisionContext, MotiveExpr, SBProduct, Term, UpperMotive, _is_prime
from .qpoly import _gaussian_coefficient, _is_int, gaussian_binomial

__all__ = [
    "SBVariety",
    "ChowOrderReport",
    "mu",
    "mu_table",
    "rational_chow_order",
    "rational_chow_orders",
    "function_field_decomposition",
    "function_field_endpoints",
    "CoverageReason",
    "PrimaryCase",
    "CaseClassification",
    "classify_reduced_dimension",
]


class SBVariety(Record):
    """The Severi-Brauer variety of reduced-dimension ``p**level`` ideals."""

    context: DivisionContext
    level: int

    def __init__(self, context: DivisionContext, level: int) -> None:
        UpperMotive(context, level)  # the one level check
        set_field(self, "context", context)
        set_field(self, "level", level)

    @cached_property
    def reduced_dimension(self) -> int:
        """``p**level``, computed on first read and kept, like the context's degree."""
        return self.context.p**self.level

    def dimension(self) -> int:
        """k(deg - k) for reduced dimension k: the variety twists G(k, deg)."""
        k = self.reduced_dimension
        return k * (self.context.degree - k)

    def __repr__(self) -> str:
        return f"SB(p={self.context.p}, n={self.context.n}, level={self.level})"


def _top_degree(variety: SBVariety) -> int:
    """``deg + dim``: ``mu`` vanishes above it; Chow orders stop one below."""
    return variety.context.degree + variety.dimension()


def mu(context: DivisionContext, level: int, i: int) -> int:
    """The coefficient of ``q**(deg + dim - i)`` in ``[p**n, p**level]_q``
    (``deg = p**n``, ``dim`` that of ``SB_{p^level}``): the number of
    partitions of that size in a ``(p**n - p**level) x p**level`` box.

    Zero, with no walk, when the size falls outside ``[0, dim]``.  Read from
    ``gaussian_binomial``'s row store when it holds the row; otherwise the row
    walk stops at the coefficient read (or its mirror, when lower), and
    nothing is stored.  These counts index the rational cycle classes in
    homological degree ``i - 1`` on the product of the classical variety with
    the level-``level`` one.
    """
    variety = SBVariety(context, level)  # validates the level range
    if not _is_int(i):
        raise DomainError(f"homological degree must be an integer, got {i!r}")
    return _gaussian_coefficient(context.degree, variety.reduced_dimension, _top_degree(variety) - i)


def _mu_column(variety: SBVariety) -> Iterator[int]:
    """``mu`` at ``i = 0, 1, ..., deg + dim``.  The binomial is built at once, so
    one too wide to store raises before the zeros above the box are read."""
    row = gaussian_binomial(variety.context.degree, variety.reduced_dimension)
    return map(row.coefficient, range(_top_degree(variety), -1, -1))


def mu_table(variety: SBVariety) -> tuple[tuple[int, int], ...]:
    """``(i, mu)`` for every ``0 <= i <= deg + dim``, from one binomial."""
    return tuple(enumerate(_mu_column(variety)))


class ChowOrderReport(Record):
    """Order of a rational Chow group of ``SB_1(D) x SB_{p^level}(D)``.

    The group is a direct sum of ``summand_count`` cyclic groups of order
    ``prime`` (only codimension-0 classes of the classical factor survive on
    rational cycles), so its order is ``prime ** summand_count``.  The product
    ``summand_count * prime`` is recorded alongside as ``literal_order``: it
    is how the order is usually quoted, and the degenerate cases (an empty sum
    must give the trivial group, not order zero) show why the exponent reading
    is the consistent one.  Both are preserved for transparency.
    """

    prime: int
    i: int
    summand_count: int

    @property
    def literal_order(self) -> int:
        return self.summand_count * self.prime

    def group_order(self) -> int:
        return self.prime**self.summand_count

    def to_json_obj(self) -> dict[str, str]:
        return {
            "i": str(self.i),
            "mu": str(self.summand_count),
            "order_exponent": str(self.summand_count),
            "literal_order": str(self.literal_order),
        }


def rational_chow_order(variety: SBVariety, i: int) -> ChowOrderReport:
    """Order report for the rational Chow group in homological degree ``i``.

    Valid for ``0 <= i <= dim(SB_1(D) x SB_{p^level}(D))``.
    """
    max_i = _top_degree(variety) - 1
    if not _is_int(i) or not 0 <= i <= max_i:
        raise DomainError(f"homological degree must satisfy 0 <= i <= {max_i}, got {i!r}")
    return ChowOrderReport(variety.context.p, i, mu(variety.context, variety.level, i + 1))


def rational_chow_orders(variety: SBVariety) -> tuple[ChowOrderReport, ...]:
    """The report of every homological degree, ascending: ``mu`` from
    ``i = 1``, each one degree lower."""
    return tuple(map(ChowOrderReport, repeat(variety.context.p), count(), islice(_mu_column(variety), 1, None)))


def _half_degree(context: DivisionContext) -> DivisionContext:
    """The division part of the algebra over the function field of its
    half-degree ideal variety: exponent ``n - 1``."""
    if context.n == 0:
        raise DomainError("a split algebra has no function-field reduction")
    return DivisionContext(context.p, context.n - 1)


def function_field_decomposition(variety: SBVariety) -> MotiveExpr:
    """Split the motive of ``SB_{2^level}(D)`` over the function field of the
    half-degree ideal variety of ``D``.

    Over that field the algebra's division part ``C`` has degree ``2**(n-1)``
    and the motive decomposes as the sum of the products
    ``M(SB_i(C)) x M(SB_j(C))`` twisted by ``i*(2**(n-1) - j)`` over all
    ``i + j = 2**level``.  Pairs with a component above ``deg C`` index empty
    varieties and contribute nothing.  Restricted to ``p = 2``: for odd primes
    the interior twists are not produced, only the endpoints (see
    :func:`function_field_endpoints`).

    The split polynomial of the result equals the Gaussian binomial
    ``[2**n choose 2**level]_q`` exactly (a q-Vandermonde identity), which the
    verify suite checks coefficient by coefficient.
    """
    context = variety.context
    if context.p != 2:
        raise UnsupportedOperationError(
            "explicit interior twists are only available for p = 2; "
            "use function_field_endpoints for other primes"
        )
    half = _half_degree(context)
    half_degree = half.degree
    m = variety.reduced_dimension
    terms = []
    for i in range(max(0, m - half_degree), min(m, half_degree) + 1):
        j = m - i
        terms.append((SBProduct(half, (i, j)), i * (half_degree - j)))
    return MotiveExpr(terms)


def function_field_endpoints(context: DivisionContext, level: int) -> tuple[Term, Term]:
    """Endpoint summands the level-``level`` upper motive acquires over the
    function field of the half-degree ideal variety.

    Works for every prime: the upper motive of the reduced-degree algebra
    ``C`` (exponent ``n - 1``) appears untwisted and again twisted by
    ``p**(n + level - 1) * (p - 1)``, which is exactly the dimension the
    motive loses in the reduction.
    """
    upper = UpperMotive(_half_degree(context), level)  # checks the level before the power below
    p = context.p
    lower_twist = p ** (context.n + level - 1) * (p - 1)
    return Term(upper, 0), Term(upper, lower_twist)


class CoverageReason(Enum):
    SQUAREFREE = "squarefree"
    FOUR_TIMES_ODD_SQUAREFREE = "four-times-odd-squarefree"


class PrimaryCase(Record):
    """One prime-primary sub-case a reduced dimension reduces to."""

    prime: int
    reduced_dimension: int


class CaseClassification(Record):
    """Whether the decomposition-lifting property is settled for ``SB_k``.

    Covered exactly when ``k`` is squarefree or four times an odd squarefree
    number.  Covered classifications carry the prime-primary sub-cases the
    question reduces to (reduced dimension 1, ``p`` or 4); open ones record
    the smallest prime-power factor that blocks the reduction.
    """

    k: int
    covered: bool
    reason: CoverageReason | None
    odd_squarefree_part: int | None
    blocking_factor: int | None
    reductions: tuple[PrimaryCase, ...]


# Every k below _TRIAL_DIVISION_LIMIT**2 factors completely.
_TRIAL_DIVISION_LIMIT = 2**20


def _factorize(k: int) -> list[tuple[int, int]]:
    """Trial division that stops once the cofactor is prime; a composite
    cofactor without a prime factor up to the limit raises DomainError."""
    factors = []
    rest = k
    p = 2
    try:
        composite = rest > 1 and not _is_prime(rest)
    except DomainError:  # only k itself can reach the bound: every cofactor is smaller
        raise DomainError(f"cannot factor {k}: primality is only decided below {_PRIMALITY_BOUND}") from None
    while composite:
        if p > _TRIAL_DIVISION_LIMIT:
            raise DomainError(f"cannot factor {k}: no prime factor up to {_TRIAL_DIVISION_LIMIT}")
        if rest % p == 0:
            exp = 0
            while rest % p == 0:
                rest //= p
                exp += 1
            factors.append((p, exp))
            composite = rest > 1 and not _is_prime(rest)
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


def classify_reduced_dimension(k: int) -> CaseClassification:
    """Classify a reduced dimension against the settled cases.

    The settled condition is arithmetic: every odd prime must divide ``k`` at
    most once, and 2 may divide it 0, 1 or exactly 2 times.
    """
    if not _is_int(k) or k < 1:
        raise DomainError(f"reduced dimension must be a positive integer, got {k!r}")
    factors = _factorize(k)
    blocking = sorted(
        p**e for p, e in factors if (p == 2 and e >= 3) or (p > 2 and e >= 2)
    )
    reductions = tuple(PrimaryCase(p, p**e) for p, e in factors)
    if blocking:
        reason = None
    elif (2, 2) in factors:
        reason = CoverageReason.FOUR_TIMES_ODD_SQUAREFREE
    else:
        reason = CoverageReason.SQUAREFREE
    return CaseClassification(
        k=k,
        covered=not blocking,
        reason=reason,
        odd_squarefree_part=k // 4 if reason is CoverageReason.FOUR_TIMES_ODD_SQUAREFREE else None,
        blocking_factor=blocking[0] if blocking else None,
        reductions=reductions,
    )
