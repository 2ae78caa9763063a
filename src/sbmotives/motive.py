"""Formal motive expressions with Krull-Schmidt multiset semantics.

A :class:`MotiveExpr` is a finite multiset of Tate-twisted objects standing
for a direct sum of motives.  Because the isomorphism-class monoid of these
summands is free, two expressions describe isomorphic sums exactly when their
normalized term multisets agree; equality here is therefore Krull-Schmidt
equality.

Objects come in three kinds.  :class:`TateUnit` is the unit motive.
:class:`SBProduct` is the motive of a product of Severi-Brauer varieties of a
fixed division algebra, fully computable at the split level.
:class:`UpperMotive` is the level-``k`` upper motive of such an algebra; for
``0 < level < n`` its split polynomial is not determined by anything this
package knows, so it stays an opaque atom and polynomial-hungry operations
reject it instead of guessing.  Level 0 normalizes to the full motive of the
classical Severi-Brauer variety (indecomposable for a division algebra) and
level ``n`` to the Tate unit (the variety is a rational point).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from functools import cached_property
from typing import Union

from ._record import Record, set_field
from .errors import DomainError, UnsupportedOperationError
from .qpoly import GradedRankPoly, _int_from_json, _is_int, _packed_sum, gaussian_binomial

__all__ = [
    "DivisionContext",
    "TateUnit",
    "TATE",
    "UpperMotive",
    "SBProduct",
    "MotiveObject",
    "Term",
    "MotiveExpr",
    "ExtremeTerms",
    "normalize_object",
]


# The least strong pseudoprime to all of these bases is _PRIMALITY_BOUND
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015),
# so Miller-Rabin on them is exact below it.  Dropping 41 would
# lower the bound to 318665857834031151167461.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises :class:`DomainError` at or above ``_PRIMALITY_BOUND``, where these
    bases no longer decide primality.
    """
    if p <= _MILLER_RABIN_BASES[-1]:
        return p in _MILLER_RABIN_BASES
    if p >= _PRIMALITY_BOUND:
        raise DomainError(f"primality is only decided below {_PRIMALITY_BOUND}, got p={p}")
    if p % 2 == 0:
        return False
    odd, halvings = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        halvings += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(halvings - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class DivisionContext(Record):
    """A p-primary division algebra reduced to its prime and exponent.

    The algebra has degree ``p**n``; ``n == 0`` is the split case.  The prime
    also fixes the characteristic of the coefficient field every decomposition
    statement refers to.
    """

    p: int
    n: int

    def __init__(self, p: int, n: int) -> None:
        if not _is_int(p) or not _is_prime(p):
            raise DomainError(f"p must be a prime number, got {p!r}")
        if not _is_int(n) or n < 0:
            raise DomainError(f"exponent n must be a nonnegative integer, got {n!r}")
        set_field(self, "p", p)
        set_field(self, "n", n)

    @cached_property
    def degree(self) -> int:
        """``p**n``, computed on first read and kept: at exponents near 10**8
        one power costs seconds."""
        return self.p**self.n


class TateUnit(Record):
    """The unit object; every twist of it is a Tate motive."""

    def __repr__(self) -> str:
        return "Tate"


TATE = TateUnit()


class UpperMotive(Record):
    """Upper motive of the variety of reduced-dimension ``p**level`` ideals."""

    context: DivisionContext
    level: int

    def __init__(self, context: DivisionContext, level: int) -> None:
        if not isinstance(context, DivisionContext):
            raise DomainError(f"not a division context: {context!r}")
        if not _is_int(level) or not 0 <= level <= context.n:
            raise DomainError(f"level must satisfy 0 <= level <= {context.n}, got {level!r}")
        set_field(self, "context", context)
        set_field(self, "level", level)

    def __repr__(self) -> str:
        return f"Upper(p={self.context.p}, n={self.context.n}, level={self.level})"


class SBProduct(Record):
    """Motive of a product of Severi-Brauer varieties of one division algebra.

    ``dims`` lists the reduced dimensions of the factors, each in
    ``[0, degree]``, in any order.  The product is canonical once built:
    factors of reduced dimension 0 or ``degree`` are points and are dropped,
    and the rest are kept in ascending order.  So equality and hash mean
    isomorphic products: ``SB_1 x SB_2`` and ``SB_2 x SB_1`` are one object.
    """

    context: DivisionContext
    dims: tuple[int, ...]

    def __init__(self, context: DivisionContext, dims: tuple[int, ...]) -> None:
        if not isinstance(context, DivisionContext):
            raise DomainError(f"not a division context: {context!r}")
        if not isinstance(dims, Iterable):
            raise DomainError(f"not a sequence of reduced dimensions: {dims!r}")
        dims = tuple(dims)
        degree = context.degree
        for d in dims:
            if not _is_int(d) or not 0 <= d <= degree:
                raise DomainError(
                    f"reduced dimension must lie in [0, {degree}], got {d!r}"
                )
        set_field(self, "context", context)
        set_field(self, "dims", tuple(sorted(d for d in dims if 0 < d < degree)))

    def __repr__(self) -> str:
        return f"SBProduct(p={self.context.p}, n={self.context.n}, dims={self.dims})"


MotiveObject = Union[TateUnit, UpperMotive, SBProduct]


def normalize_object(obj: MotiveObject) -> MotiveObject:
    """Canonical representative of an object's isomorphism class.

    An :class:`SBProduct` is canonical already; one without factors is the
    Tate unit.  An :class:`UpperMotive` of level ``n`` is the Tate unit, and
    one of level 0 is the full motive of the classical Severi-Brauer variety
    of its algebra.
    """
    if isinstance(obj, TateUnit):
        return TATE
    if isinstance(obj, SBProduct):
        return obj if obj.dims else TATE
    if isinstance(obj, UpperMotive):
        if obj.level == obj.context.n:
            return TATE
        if obj.level == 0:
            return SBProduct(obj.context, (1,))
        return obj
    raise DomainError(f"not a motive object: {obj!r}")


class Term(Record):
    """One summand: an object together with a nonnegative Tate twist.

    The object is normalized on construction to the Tate unit, a canonical
    :class:`SBProduct` with at least one factor, or an opaque
    :class:`UpperMotive` of level strictly between 0 and ``n``.  So
    structurally equal terms are exactly the isomorphic ones.
    """

    obj: MotiveObject
    twist: int

    def __init__(self, obj: MotiveObject, twist: int) -> None:
        if not _is_int(twist) or twist < 0:
            raise DomainError(f"twist must be a nonnegative integer, got {twist!r}")
        set_field(self, "obj", normalize_object(obj))
        set_field(self, "twist", twist)

    def sort_key(self) -> tuple:
        """Total order on terms: object kind, lexicographic payload, twist."""
        obj = self.obj
        if isinstance(obj, TateUnit):
            return (0, (), self.twist)
        if isinstance(obj, UpperMotive):
            return (1, (obj.context.p, obj.context.n, obj.level), self.twist)
        return (2, (obj.context.p, obj.context.n) + obj.dims, self.twist)

    def __repr__(self) -> str:
        return f"({self.obj!r}, twist={self.twist})"


def _object_factors(obj: TateUnit | SBProduct) -> tuple[GradedRankPoly, ...]:
    """The factors whose product is the split polynomial: 1 for the Tate
    unit, the binomial of each factor of a canonical product."""
    if isinstance(obj, TateUnit):
        return (GradedRankPoly({0: 1}),)
    return tuple(gaussian_binomial(obj.context.degree, d) for d in obj.dims)


def _object_top_degree(obj: MotiveObject) -> int:
    """Top degree of the split polynomial, read without building it.

    Every factor ``[degree choose d]_q`` of an :class:`SBProduct` has bottom
    degree 0 and top degree ``d * (degree - d)``, so the product's bottom
    degree is 0 and its top degree is their sum.  Raises for an opaque upper
    motive, whose polynomial is not determined.
    """
    if isinstance(obj, UpperMotive):
        raise UnsupportedOperationError(
            f"the split polynomial of the opaque upper motive {obj!r} is not "
            "determined; refusing to guess"
        )
    if isinstance(obj, TateUnit):
        return 0
    degree = obj.context.degree
    return sum(d * (degree - d) for d in obj.dims)


def _object_product(a: MotiveObject, b: MotiveObject) -> MotiveObject:
    if isinstance(a, UpperMotive) or isinstance(b, UpperMotive):
        raise UnsupportedOperationError(
            f"no product rule exists for opaque upper motives: {a!r} x {b!r}"
        )
    if isinstance(a, TateUnit):
        return b
    if isinstance(b, TateUnit):
        return a
    if a.context != b.context:
        raise DomainError(
            f"cannot multiply products over different algebras: {a!r} x {b!r}"
        )
    return SBProduct(a.context, a.dims + b.dims)


class ExtremeTerms(Record):
    """Result of locating the twist-extremal summands of an expression.

    When several summands (counted with multiplicity) realize the extreme
    degree, the corresponding slot is ``None`` and the multiplicity reports
    how many tied.
    """

    upper: Term | None
    upper_multiplicity: int
    lower: Term | None
    lower_multiplicity: int


_TermLike = Union[Term, tuple]


class MotiveExpr:
    """Multiset of terms; the empty multiset is the zero motive."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[_TermLike] | Mapping[Term, int] = ()):
        counts: Counter[Term] = Counter()
        if isinstance(terms, Mapping):
            entries: Iterable[tuple[_TermLike, int]] = terms.items()
        elif isinstance(terms, Iterable):
            entries = ((t, 1) for t in terms)
        else:
            raise DomainError(f"not a collection of terms: {terms!r}")
        for entry, mult in entries:
            if isinstance(entry, Term):
                term = entry
            elif isinstance(entry, tuple) and len(entry) == 2:
                term = Term(entry[0], entry[1])
            elif isinstance(entry, tuple) and len(entry) == 3:
                term = Term(entry[0], entry[1])
                mult = mult * entry[2] if _is_int(entry[2]) else entry[2]
            else:
                raise DomainError(f"not a term: {entry!r}")
            if not _is_int(mult) or mult < 0:
                raise DomainError(f"multiplicity must be a nonnegative integer, got {mult!r}")
            if mult:
                counts[term] += mult
        self._terms = dict(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))

    @classmethod
    def of(cls, *terms: _TermLike) -> "MotiveExpr":
        return cls(terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def term_items(self) -> tuple[tuple[Term, int], ...]:
        """(term, multiplicity) pairs in canonical order."""
        return tuple(self._terms.items())

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        merged = Counter(self._terms)
        merged.update(other._terms)
        return MotiveExpr(merged)

    def twist(self, t: int) -> "MotiveExpr":
        if not _is_int(t) or t < 0:
            raise DomainError(f"twist must be a nonnegative integer, got {t!r}")
        return MotiveExpr(
            {Term(term.obj, term.twist + t): mult for term, mult in self._terms.items()}
        )

    def __mul__(self, other: "MotiveExpr") -> "MotiveExpr":
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        product: Counter[Term] = Counter()
        for ta, ma in self._terms.items():
            for tb, mb in other._terms.items():
                obj = _object_product(ta.obj, tb.obj)
                product[Term(obj, ta.twist + tb.twist)] += ma * mb
        return MotiveExpr(product)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def split_poincare(self) -> GradedRankPoly:
        """Rank polynomial over a splitting field.

        Sum over terms of the shifted polynomial of each object; a monoid
        homomorphism with respect to sum, twist and product.  Raises for
        opaque upper motives, whose polynomials are not determined.
        The whole sum is one call of ``qpoly._packed_sum``: each object is
        one term, its factors' Gaussian binomials drawn once and multiplied
        once, placed at each of its twists, and the slots are read back once.
        Since products are canonical, the mirrored pairs ``(i, j)`` and
        ``(j, i)`` of a function-field split are one object.  Raises
        :class:`DomainError` before drawing any binomial when the terms
        spread over more than ``qpoly._MAX_DENSE_SPAN`` degrees.
        """
        if not self._terms:
            return GradedRankPoly()
        # Every object's polynomial has bottom degree 0; reading the top
        # degrees first also rejects the first upper motive in canonical order.
        top = max(t.twist + _object_top_degree(t.obj) for t in self._terms)
        bottom = min(t.twist for t in self._terms)
        groups: dict[MotiveObject, list[tuple[int, int]]] = {}
        for term, mult in self._terms.items():
            groups.setdefault(term.obj, []).append((term.twist, mult))
        return _packed_sum(bottom, top, ((_object_factors(obj), at) for obj, at in groups.items()))

    def identify_upper_lower(self) -> ExtremeTerms:
        """Locate the summands realizing the extreme split degrees.

        The upper term realizes the global bottom degree, the lower term the
        global top degree; either is reported absent when the extremal degree
        is shared by more than one summand (with the tied multiplicity).
        """
        if self.is_zero:
            raise DomainError("the zero motive has no upper or lower summand")
        spans = [
            (term, mult, term.twist, term.twist + _object_top_degree(term.obj))
            for term, mult in self._terms.items()
        ]
        global_bottom = min(s[2] for s in spans)
        global_top = max(s[3] for s in spans)
        upper = [(t, m) for t, m, bot, _ in spans if bot == global_bottom]
        lower = [(t, m) for t, m, _, top in spans if top == global_top]
        upper_mult = sum(m for _, m in upper)
        lower_mult = sum(m for _, m in lower)
        return ExtremeTerms(
            upper=upper[0][0] if upper_mult == 1 else None,
            upper_multiplicity=upper_mult,
            lower=lower[0][0] if lower_mult == 1 else None,
            lower_multiplicity=lower_mult,
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{term!r} x{mult}" if mult > 1 else repr(term)
            for term, mult in self._terms.items()
        )
        return f"MotiveExpr([{inner}])"

    # -- JSON encoding ------------------------------------------------------
    # Canonical ordering (object kind, payload, twist) makes the encoding
    # byte-stable; integers travel as canonical decimal strings, and the
    # decoder reads them from nothing else.

    def to_json_obj(self) -> list[dict]:
        encoded = []
        for term, mult in self._terms.items():
            encoded.append(
                {
                    "object": _object_to_json(term.obj),
                    "twist": str(term.twist),
                    "multiplicity": str(mult),
                }
            )
        return encoded

    @classmethod
    def from_json_obj(cls, data: list[Mapping]) -> "MotiveExpr":
        if not isinstance(data, list):
            raise DomainError(f"malformed motive encoding: expected a list, got {type(data).__name__}")
        terms = []
        for entry in data:
            try:
                term = Term(_object_from_json(entry["object"]), _int_from_json(entry["twist"]))
                terms.append((term.obj, term.twist, _int_from_json(entry["multiplicity"])))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"malformed motive encoding: {exc}") from exc
        # the constructor checks each entry's multiplicity before adding it up
        return cls(terms)


def _object_to_json(obj: MotiveObject) -> dict:
    if isinstance(obj, TateUnit):
        return {"kind": "tate"}
    if isinstance(obj, UpperMotive):
        return {
            "kind": "upper",
            "p": str(obj.context.p),
            "n": str(obj.context.n),
            "level": str(obj.level),
        }
    return {
        "kind": "product",
        "p": str(obj.context.p),
        "n": str(obj.context.n),
        "dims": [str(d) for d in obj.dims],
    }


def _object_from_json(data: Mapping) -> MotiveObject:
    kind = data.get("kind")
    if kind == "tate":
        return TATE
    if kind not in ("upper", "product"):
        raise DomainError(f"unknown motive object kind: {kind!r}")
    ctx = DivisionContext(_int_from_json(data["p"]), _int_from_json(data["n"]))
    if kind == "upper":
        return UpperMotive(ctx, _int_from_json(data["level"]))
    dims = data["dims"]
    if not isinstance(dims, list):
        raise TypeError(f"dims must be a list, got {type(dims).__name__}")
    return SBProduct(ctx, tuple(_int_from_json(d) for d in dims))
