"""Exact arithmetic on graded rank polynomials and box-bounded partition counts.

A :class:`GradedRankPoly` records, degree by degree, how many Tate summands a
geometrically split motive acquires over a splitting field.  Coefficients are
arbitrary-precision nonnegative integers: the counts grow like binomial
coefficients, so fixed-width arithmetic would silently overflow and is never
used.  Polynomials are supported on nonnegative degrees only; every twist that
occurs in the decomposition formulas handled by this package is nonnegative.

The degree-``s`` coefficient of ``gaussian_binomial(m + c, c)`` equals the
number of partitions of ``s`` inside an ``m x c`` box (at most ``m`` rows,
every entry at most ``c``), and the package reads box counts only there.
:func:`gaussian_binomial` computes it by the q-product formula, stepping
along row ``d``, up or down, from the nearest row it holds, and holds one
object per degree and narrow side for ``[d, k]`` and ``[d, d-k]``; a single
coefficient is read by the same walk cut after the coefficients it needs.
Two counters sharing no code with it are kept as its oracles: a dynamic-
programming recurrence (:func:`count_partitions_in_box`), which adds only
over the sizes a box can hold, and an exhaustive enumerator
(:func:`enumerate_partitions_in_box`) that checks the DP on small boxes.  The
test suite and the ``verify`` command check all three against each other.

Every dense sum, product and scalar multiple, the Poincare sums of ``motive``
included, goes through one accumulator, :func:`_packed_sum`.  A term of one
factor is added coefficient by coefficient.  The factors of every other term
are packed into big numbers, multiplied, shifted and added into one number,
whose slots are read back once (Kronecker substitution; Harvey, J. Symb.
Comput. 2009).  The carrier is ``int`` (CPython's Karatsuba) below 180 000
packed bits and ``decimal`` (libmpdec's number-theoretic transform, exact at
``MAX_PREC``) from there up.  The ``int`` carrier multiplies at ``+2**b``
and ``-2**b``, ``b`` half a slot (Harvey's multipoint substitution).

Measured with CPython 3.11 on a shared 2-vCPU x86-64 machine, alternating
the two carriers on one input, medians of 11: ``int`` and ``decimal`` break
even between 170 000 and 190 000 packed bits on lone products and on sums
of 16 or 32 squares or general products alike (180 000 bits: 12.0 against
12.0 ms for a lone product of 60-bit slots, 99.7 against 95.1 ms for 32
squares of 250-bit slots), so one switch serves both; ``int`` is the faster
from 130 000 to 160 000.  Between 110 000 and 129 000 bits, just below a
step up in ``decimal``'s times, ``decimal`` takes up to a quarter less time
on sums of equal-length products, but the one real sum there, the 32-product
q-Vandermonde sum of ``verify --max-n 7`` at 123 000 bits, 22 of whose
products are under 110 000, takes 57.2 ms on ``int`` against 62.1 ms on
``decimal``.  The 16-product sum of ``--max-n 8``, at 233 000 bits, takes
116 ms against 99.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import prod
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from ._record import Record, set_field
from .errors import DomainError

__all__ = [
    "GradedRankPoly",
    "PartitionBoxSpec",
    "gaussian_binomial",
    "count_partitions_in_box",
    "enumerate_partitions_in_box",
]

_T = TypeVar("_T")

# Most dense slots (top - bottom + 1) that the public constructor, a sum, a
# product or a Gaussian binomial allocates, and most entries of a box table.
_MAX_DENSE_SPAN = 2**24

# Packed size (shorter operand length times slot bits) of a product from
# which a sum is carried by decimal, not int: where the two carriers were
# measured to break even, on lone products and on sums of many alike (see
# the module docstring and _packed_sum).
_DECIMAL_CARRIER_BITS = 180_000

# Every row gaussian_binomial has built: degree d, then c = min(k, d - k), to [d, c].
_ROWS: dict[int, dict[int, GradedRankPoly]] = {}
_ROW_TRAFFIC = {"hits": 0, "misses": 0}
_CacheInfo = NamedTuple("CacheInfo", [("hits", int), ("misses", int), ("maxsize", None), ("currsize", int)])


def _check_span(span: int) -> None:
    if span > _MAX_DENSE_SPAN:
        raise DomainError(
            f"degree span {span} exceeds the dense storage limit {_MAX_DENSE_SPAN}"
        )


def _str_digit_limit() -> int:
    """The interpreter's int-to-str digit limit, 0 where there is none
    (Python before 3.10.7 has no such limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _is_int(value: object) -> bool:
    """The engine's one integer test: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_from_json(value: object) -> int:
    """The engine's one JSON integer reader: every encoder writes integers as
    canonical decimal strings (``str(n)``), so a JSON number or bool raises
    instead of truncating, and so does another spelling (``"02"``, ``" 2"``,
    ``"+2"``, ``"0_2"``, non-ASCII digits), which would not re-encode as read."""
    if isinstance(value, str) and str(number := int(value)) == value:
        return number
    raise DomainError(f"integers are encoded as canonical decimal strings, got {value!r}")


def _checked_count(value: object, what: str) -> int:
    if not _is_int(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"{what} must be nonnegative, got {value}")
    return value


class GradedRankPoly:
    """Finitely supported map from nonnegative degree to a nonnegative count.

    Instances are immutable; every operation returns a new polynomial.  The
    coefficients are stored densely, as a bottom degree and a tuple whose
    first and last entries are nonzero, so two equal polynomials always have
    equal internal state.  The zero polynomial stores bottom 0 and ``()``.
    The public constructor, sums and products refuse a degree span wider
    than ``_MAX_DENSE_SPAN`` before they allocate anything.
    """

    __slots__ = ("_bottom", "_coeffs")

    def __init__(self, coefficients: Mapping[int, int] | None = None):
        checked: Mapping[int, int] = coefficients or {}
        # every key and value checked by C-level passes; only when one fails
        # does the loop run, to name the first bad entry
        if checked and not (
            {*map(type, checked), *map(type, checked.values())} == {int}
            and min(checked) >= 0
            and min(checked.values()) >= 0
        ):
            checked = {}
            for degree, count in coefficients.items():
                _checked_count(degree, "degree")
                if _checked_count(count, "coefficient"):
                    checked[degree] = count
        elif 0 in checked.values():
            checked = {d: c for d, c in checked.items() if c}
        self._bottom = min(checked, default=0)
        span = max(checked) - self._bottom + 1 if checked else 0
        _check_span(span)
        dense = [0] * span
        for degree, count in checked.items():
            dense[degree - self._bottom] = count
        self._coeffs = tuple(dense)

    @classmethod
    def _trusted(cls, bottom: int, coeffs: Sequence[int]) -> "GradedRankPoly":
        """Polynomial with ``coeffs[i]`` in degree ``bottom + i``, unchecked.

        For results of internal arithmetic, whose entries are nonnegative
        integers by construction; only zero ends are trimmed.
        """
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        poly = object.__new__(cls)
        poly._bottom = bottom + lo if hi else 0
        poly._coeffs = tuple(coeffs[lo:hi])
        return poly

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[int, int], ...]:
        """(degree, coefficient) pairs of the nonzero coefficients, ascending."""
        return tuple((d, c) for d, c in enumerate(self._coeffs, self._bottom) if c)

    def coefficient(self, degree: int) -> int:
        """The coefficient of ``q**degree``; 0 outside the support, a negative
        degree included."""
        if not _is_int(degree):
            raise DomainError(f"degree must be an integer, got {degree!r}")
        index = degree - self._bottom
        return self._coeffs[index] if 0 <= index < len(self._coeffs) else 0

    def bottom_degree(self) -> int:
        if not self._coeffs:
            raise DomainError("the zero polynomial has no bottom degree")
        return self._bottom

    def top_degree(self) -> int:
        if not self._coeffs:
            raise DomainError("the zero polynomial has no top degree")
        return self._bottom + len(self._coeffs) - 1

    def dim(self) -> int:
        """Top degree minus bottom degree (motive dimension at the rank level)."""
        return self.top_degree() - self.bottom_degree()

    def rank(self) -> int:
        """Sum of all coefficients (total number of Tate summands)."""
        return sum(self._coeffs)

    def shift(self, twist: int) -> "GradedRankPoly":
        """Add ``twist`` to every degree; the rank-level effect of a Tate twist."""
        _checked_count(twist, "twist")
        if twist == 0 or not self._coeffs:
            return self
        return GradedRankPoly._trusted(self._bottom + twist, self._coeffs)

    def __add__(self, other: "GradedRankPoly") -> "GradedRankPoly":
        if not isinstance(other, GradedRankPoly):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        bottom = min(self._bottom, other._bottom)
        top = max(self._bottom + len(self._coeffs), other._bottom + len(other._coeffs)) - 1
        return _packed_sum(bottom, top, [((self,), [(0, 1)]), ((other,), [(0, 1)])])

    def __mul__(self, other: "GradedRankPoly | int") -> "GradedRankPoly":
        """Product with a rank polynomial or with a nonnegative integer scalar:
        one term of :func:`_packed_sum`.  A result wider than
        ``_MAX_DENSE_SPAN`` degrees raises :class:`DomainError` before
        anything is allocated.
        """
        top = self._bottom + len(self._coeffs) - 1
        if isinstance(other, int):
            _checked_count(other, "scalar")
            return _packed_sum(self._bottom, top, [((self,), [(0, other)])])
        if not isinstance(other, GradedRankPoly):
            return NotImplemented
        top += other._bottom + len(other._coeffs) - 1
        return _packed_sum(self._bottom + other._bottom, top, [((self, other), [(0, 1)])])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedRankPoly):
            return NotImplemented
        return self._bottom == other._bottom and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._bottom, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"GradedRankPoly({dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for degree, count in self.items():
            if degree == 0:
                parts.append(str(count))
            elif degree == 1:
                parts.append("q" if count == 1 else f"{count}*q")
            else:
                parts.append(f"q^{degree}" if count == 1 else f"{count}*q^{degree}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict[str, str]:
        """Degrees and coefficients as decimal strings, ascending by degree.

        Strings keep values above 2**53 exact for any JSON consumer.
        """
        return {str(d): str(c) for d, c in self.items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "GradedRankPoly":
        """Inverse of :meth:`to_json_dict`; degrees and coefficients are read
        only from canonical decimal strings, so no two keys name one degree."""
        try:
            coeffs = {_int_from_json(d): _int_from_json(c) for d, c in data.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed rank polynomial encoding: {exc}") from exc
        return cls(coeffs)


class PartitionBoxSpec(Record):
    """A box-bounded partition counting query.

    ``parts`` is the fixed number of entries (zero padding allowed),
    ``max_part`` bounds each entry, and ``size`` is the target total.
    """

    parts: int
    max_part: int
    size: int

    def __init__(self, parts: int, max_part: int, size: int) -> None:
        # one pass over the three; only when it fails are they checked one
        # by one, to name the first bad field
        if not (type(parts) is type(max_part) is type(size) is int and min(parts, max_part, size) >= 0):
            _checked_count(parts, "parts")
            _checked_count(max_part, "max_part")
            _checked_count(size, "size")
        set_field(self, "parts", parts)
        set_field(self, "max_part", max_part)
        set_field(self, "size", size)

    @property
    def capacity(self) -> int:
        return self.parts * self.max_part


def _packed_sum(
    bottom: int,
    top: int,
    terms: Iterable[tuple[Sequence[GradedRankPoly], Sequence[tuple[int, int]]]],
) -> GradedRankPoly:
    """``sum(mult * q**twist * prod(factors))`` over every placement of every term.

    Each term is a tuple of one or more factors and the ``(twist, mult)``
    placements of their product, inside ``[bottom, top]``; a span wider than
    ``_MAX_DENSE_SPAN`` raises :class:`DomainError` before a lazy ``terms``
    is drawn.  The products of the terms of two or more factors are packed
    and added into one number, whose slots are read back once into a
    coefficient list; each placement of a one-factor term is then added into
    that list directly, with no packing.  Tate terms, one-factor products,
    both sides of ``+`` and scalar multiples are such terms.  They multiply
    nothing, so packing them would only add a pack and a read-back of every
    slot: measured, it made ``+`` and scalar multiples 2 to 19 times slower
    (``one + one.shift(10**6)``: 0.016 s unpacked, 0.19 s packed).

    One slot width serves the packed sum, from a bound on its largest
    coefficient: a coefficient of a product adds up at most
    ``prod(lengths) // max(lengths)`` products of the factors' coefficients,
    so ``a * b`` is bounded by ``shorter * max(a) * max(b)``.  A factor
    repeated next to itself in a term is packed once and squared, and a
    term's packed factors are dropped once multiplied.  Slots are bytes of an
    ``int``, or zero-padded digits of a ``decimal``, all written by one
    repeated ``%0Nd`` template (``N`` the slot width) and read back in one pass.
    ``decimal`` takes over when some term's factors but its longest reach
    ``_DECIMAL_CARRIER_BITS`` of packed size (their length times slot bits;
    for ``a * b``, the shorter operand's), where the two were measured to
    break even on lone products and on many-product sums alike, unless a
    slot has more digits than ``str`` may convert.

    The ``int`` carrier evaluates at ``X = 2**b`` and ``-X``, ``b`` half a
    slot (Harvey's multipoint Kronecker substitution): with a factor's even
    and odd coefficients packed into slots of ``X**2`` as ``E`` and ``O``,
    ``f(±X) = E ± (O << b)``.  A product is two half-size multiplications,
    added into one total per point, a placement at offset ``t`` entering the
    ``-X`` total with sign ``(-1)**t``.  The sum ``H`` is read back as its
    even part ``(H(X) + H(-X)) / 2`` and odd part ``(H(X) - H(-X)) / (2X)``,
    each at the byte slots of ``X**2``, and the two are interleaved.
    """
    span = top - bottom + 1
    _check_span(span)
    products, singles, bound, shorter = [], [], 0, 0
    for factors, placements in terms:
        count = sum([m for _, m in placements])
        lengths = [len(f._coeffs) for f in factors]
        if not count or not all(lengths):
            continue
        if len(lengths) == 1:
            singles.append((factors[0], placements))
            continue
        products.append((factors, placements))
        longest = max(lengths)
        # no multiplication of the term has a shorter operand longer than all
        # its factors but the longest together
        shorter = max(shorter, sum(lengths) - longest)
        bound += count * prod(lengths) // longest * prod([max(f._coeffs) for f in factors])
    coeffs = _packed_products(bottom, products, bound.bit_length(), shorter) if products else []
    if singles:
        coeffs += [0] * (span - len(coeffs))
        for poly, placements in singles:
            for twist, mult in placements:
                start = poly._bottom + twist - bottom
                end = start + len(poly._coeffs)
                coeffs[start:end] = [x + mult * y for x, y in zip(coeffs[start:end], poly._coeffs)]
    return GradedRankPoly._trusted(bottom, coeffs)


def _packed_products(
    bottom: int,
    products: list[tuple[Sequence[GradedRankPoly], Sequence[tuple[int, int]]]],
    bits: int,
    shorter: int,
) -> list[int]:
    """The packed part of :func:`_packed_sum`: the sum of ``products``, in
    slots of ``bits`` bits, read back from degree ``bottom`` up; ``shorter``
    is the largest packed size in coefficients."""
    width = bits * 30103 // 100000 + 1  # decimal digits; 10**width > 2**bits
    if shorter * bits < _DECIMAL_CARRIER_BITS or 0 < _str_digit_limit() < width:
        # X = 2**xbits, half a slot, and -X; each value is the pair (f(X), f(-X))
        size = (bits + 7) // 8
        xbits = 4 * size

        def slots(coeffs: Sequence[int]) -> int:
            return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")

        def pack(coeffs: Sequence[int]) -> tuple[int, int]:
            even, odd = slots(coeffs[::2]), slots(coeffs[1::2]) << xbits
            return even + odd, even - odd

        def multiply(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
            return x[0] * y[0], x[1] * y[1]

        def place(total: tuple[int, int], product: tuple[int, int], mult: int, offset: int) -> tuple[int, int]:
            shift = xbits * offset
            plus, minus = product[0] * mult << shift, product[1] * (-mult if offset & 1 else mult) << shift
            return (total[0] + plus, total[1] + minus) if total else (plus, minus)

        total, rounds = (), ()
    else:
        import decimal  # here, so that a process packing nothing this large never loads it

        # multiply, scaleb and fma are exact at MAX_PREC; one that would round raises
        context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        rounds = (decimal.Inexact, decimal.Rounded)
        context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True

        slot = f"%0{width}d"

        def pack(coeffs: Sequence[int]) -> "decimal.Decimal":
            return decimal.Decimal(slot * len(coeffs) % tuple(reversed(coeffs)))

        def place(total: "decimal.Decimal", product: "decimal.Decimal", mult: int, offset: int) -> "decimal.Decimal":
            return context.fma(product, context.scaleb(mult, width * offset), total)

        multiply, total = context.multiply, decimal.Decimal(0)
    try:
        for factors, placements in products:
            product = _term_product(factors, pack, multiply)
            start = sum([f._bottom for f in factors]) - bottom
            for twist, mult in placements:
                total = place(total, product, mult, start + twist)
            del product
    except rounds as exc:
        raise DomainError(
            f"a packed sum of {width}-digit slots needs more than the {decimal.MAX_PREC} digits decimal carries exactly"
        ) from exc
    # slots above the highest nonzero one are left out; _trusted trims to it anyway
    if isinstance(total, tuple):
        plus, minus = total
        del total
        even, odd = _byte_slots((plus + minus) >> 1, size), _byte_slots((plus - minus) >> xbits + 1, size)
        del plus, minus
        coeffs = [0] * (2 * max(len(even), len(odd)))
        coeffs[: 2 * len(even) : 2], coeffs[1 : 2 * len(odd) : 2] = even, odd
    else:
        digits = format(total, "f")
        del total
        coeffs = [int(digits[max(i - width, 0) : i]) for i in range(len(digits), 0, -width)]
    return coeffs


def _term_product(
    factors: Sequence[GradedRankPoly], pack: Callable[[Sequence[int]], _T], multiply: Callable[[_T, _T], _T]
) -> _T:
    """The packed product of a term's factors; a factor repeated next to
    itself is packed once and squared."""
    product = previous = None
    for f in factors:
        if f is not previous:
            packed, previous = pack(f._coeffs), f
        product = packed if product is None else multiply(product, packed)
    return product


def _byte_slots(total: int, size: int) -> list[int]:
    """The ``size``-byte slots of ``total``, least significant first, up to
    its highest nonzero byte."""
    view = memoryview(total.to_bytes(-(-total.bit_length() // 8), "little"))
    return [int.from_bytes(view[i : i + size], "little") for i in range(0, len(view), size)]


def gaussian_binomial(d: int, k: int) -> GradedRankPoly:
    """The Gaussian binomial coefficient [d choose k]_q as a rank polynomial.

    Computed along row ``d`` by the product formula
    ``[d, i+1] = [d, i] * (1 - q^(d-i)) / (1 - q^(i+1))``
    (Andrews, *The Theory of Partitions*, ch. 3) over exact integers, to the
    narrow side ``c = min(k, d-k)``, from the nearest held row (:func:`_walk`;
    down by ``[d, i-1] = [d, i] * (1 - q^i) / (1 - q^(d-i+1))``).  Each call
    is checked, then read from ``_ROWS``, which holds one result per
    ``(d, c)``, so ``[d, k]`` and ``[d, d-k]`` are the same object;
    ``cache_info()`` and ``cache_clear()`` count and empty it as on an
    ``lru_cache``.  A result of more than ``_MAX_DENSE_SPAN`` degrees raises
    :class:`DomainError` before the first step.  The result has bottom degree
    0, top degree ``k*(d-k)``, symmetric coefficients and total rank
    ``C(d, k)``; it is the split Poincare polynomial of the Grassmannian of
    ``k``-planes in ``d``-space.  Shares no code with the box DP or the
    enumerator.
    """
    _checked_count(d, "d")
    _checked_count(k, "k")
    if k > d:
        raise DomainError(f"gaussian_binomial requires 0 <= k <= d, got k={k} > d={d}")
    c = min(k, d - k)
    span = c * (d - c) + 1
    _check_span(span)
    held = _ROWS.get(d, {}).get(c)
    _ROW_TRAFFIC["misses" if held is None else "hits"] += 1
    if held is None:
        held = _ROWS.setdefault(d, {})[c] = GradedRankPoly._trusted(0, _walk(d, c, span))
    return held


gaussian_binomial.cache_info = lambda: _CacheInfo(**_ROW_TRAFFIC, maxsize=None, currsize=sum(map(len, _ROWS.values())))
gaussian_binomial.cache_clear = lambda: _ROWS.clear() or _ROW_TRAFFIC.update(hits=0, misses=0)


def _gaussian_coefficient(d: int, k: int, s: int) -> int:
    """Degree ``s`` of ``[d, k]``, ``0 <= k <= d``: from ``_ROWS`` when it
    holds the row, otherwise by the walk cut to ``t = min(s, top - s) + 1``
    coefficients (``top = c*(d-c)``; the mirrored degree when lower), which
    stores nothing.  Both passes of a step only move weight up, so the cut
    rows stay exact; the walk starts at most ``c`` steps away, so a read
    costs at most ``c * t`` coefficients."""
    c = min(k, d - k)
    top = c * (d - c)
    if not 0 <= s <= top:
        return 0
    _check_span(top + 1)
    held = _ROWS.get(d, {}).get(c)
    if held is not None:
        return held.coefficient(s)
    t = min(s, top - s) + 1
    return _walk(d, c, t)[t - 1]


def _walk(d: int, c: int, length: int) -> list[int]:
    """The first ``length`` coefficients of ``[d, c]``, not held, walked from
    the held ``[d, c0]`` nearest ``c`` with ``|c0 - c| < c`` (the lower on a
    tie), else from ``[d, 0] = 1``; ``[d, i]`` has ``i*(d-i) + 1`` in all."""
    held = _ROWS.get(d, {})
    start = min([i for i in held if abs(i - c) < c], key=lambda i: (abs(i - c), i), default=0)
    row = list(held[start]._coeffs[:length]) if start else [1]
    for i in range(start, c):
        row = _walk_step(row, d - i, i + 1, min(length, (i + 1) * (d - i - 1) + 1))
    for i in range(start, c, -1):
        row = _walk_step(row, i, d - i + 1, min(length, (i - 1) * (d - i + 1) + 1))
    return row


def _walk_step(row: list[int], a: int, b: int, length: int) -> list[int]:
    """The first ``length`` coefficients of ``row * (1 - q^a) / (1 - q^b)``.

    Two passes: multiply by the numerator, then divide exactly by the
    denominator as running sums over the residue classes of its degree;
    every intermediate is itself a Gaussian binomial, so the division never
    leaves the integers.  Each coefficient out reads only those at or below
    its degree, so ``row`` is cut or zero-padded to ``length`` first.
    """
    del row[length:]
    row += [0] * (length - len(row))
    row[a:] = map(sub, row[a:], row)  # the slice is built from the old row before it is stored
    for r in range(min(b, length)):
        row[r::b] = accumulate(row[r::b])
    return row


@lru_cache(maxsize=None)
def _box_size_counts(parts: int, max_part: int) -> tuple[int, ...]:
    """Counts of partitions in a ``parts x max_part`` box, indexed by size.

    Dynamic programming on the recurrence
    ``N(m, c, s) = N(m-1, c, s) + N(m, c-1, s-m)``: a partition either uses
    fewer than ``m`` rows, or all rows are positive and a full column can be
    stripped.  One table, updated in place: row ``c`` holds ``N(m, c, .)``
    once pass ``m`` has reached it, adding only over sizes ``m..m*c``, where
    ``N(m, c, .)`` can be nonzero.  Shares no code with the product formula
    of :func:`gaussian_binomial` or with the enumerator.  A table of more
    than ``_MAX_DENSE_SPAN`` entries raises :class:`DomainError` before
    anything is allocated.
    """
    entries = (max_part + 1) * (parts * max_part + 1)
    if entries > _MAX_DENSE_SPAN:
        raise DomainError(
            f"the {parts} x {max_part} box table has {entries} entries, over the dense storage limit {_MAX_DENSE_SPAN}"
        )
    table = [[1] + [0] * (parts * max_part) for _ in range(max_part + 1)]
    for m in range(1, parts + 1):
        for c in range(1, max_part + 1):
            # row c - 1 already holds N(m, c - 1, .), so row c becomes N(m, c, .)
            row, top = table[c], m * c + 1
            row[m:top] = map(add, row[m:top], table[c - 1])
    return tuple(table[max_part])


def count_partitions_in_box(box: PartitionBoxSpec) -> int:
    """Number of weakly decreasing sequences of length ``parts`` with entries
    in ``[0, max_part]`` summing to ``size``.  Sizes beyond the box capacity
    count zero.  An oracle: the package reads these counts as coefficients of
    :func:`gaussian_binomial`, and ``verify`` checks one against the other."""
    if box.size > box.capacity:
        return 0
    return _box_size_counts(box.parts, box.max_part)[box.size]


def enumerate_partitions_in_box(parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition in the box as a zero-padded length-``parts`` tuple.

    Exhaustive and deliberately naive: this is the oracle the recurrence is
    tested against, so it shares no code with :func:`count_partitions_in_box`.
    A partition in the box is a multiset of ``parts`` entries from
    ``max_part`` down to 0, listed weakly decreasing; C-level
    ``combinations_with_replacement`` over the entries in descending order
    yields every one once, in descending lexicographic order, from the full
    box to the empty one.
    """
    _checked_count(parts, "parts")
    _checked_count(max_part, "max_part")
    yield from combinations_with_replacement(range(max_part, -1, -1), parts)
