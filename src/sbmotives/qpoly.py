"""Exact arithmetic on graded rank polynomials and box-bounded partition counts.

A :class:`GradedRankPoly` records, degree by degree, how many Tate summands a
geometrically split motive acquires over a splitting field.  Coefficients are
arbitrary-precision nonnegative integers: the counts grow like binomial
coefficients, so fixed-width arithmetic would silently overflow and is never
used.  Polynomials are supported on nonnegative degrees only; every twist that
occurs in the decomposition formulas handled by this package is nonnegative.

The module also counts integer partitions constrained to a box (at most
``parts`` rows, every entry at most ``max_part``).  Two independent
implementations are shipped on purpose: a dynamic-programming recurrence
(:func:`count_partitions_in_box`, the production path) and an exhaustive
enumerator (:func:`count_partitions_by_enumeration`, kept as a cross-checking
oracle).  The degree-``s`` coefficient of ``gaussian_binomial(m + c, c)``
equals the number of partitions of ``s`` inside an ``m x c`` box.
:func:`gaussian_binomial` computes it by the q-product formula, which shares
no code with the DP or the enumerator; the test suite and the ``verify``
command check the product formula, the DP and the enumerator against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError

__all__ = [
    "GradedRankPoly",
    "PartitionBoxSpec",
    "gaussian_binomial",
    "count_partitions_in_box",
    "count_partitions_by_enumeration",
    "enumerate_partitions_in_box",
]

# Most dense slots (top - bottom + 1) the public constructor allocates.
# Results of internal arithmetic are sized by the operations that make them.
_MAX_DENSE_SPAN = 2**24


def _is_int(value: object) -> bool:
    """The engine's one integer test: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    The public constructor refuses a degree span wider than
    ``_MAX_DENSE_SPAN`` before it allocates anything.
    """

    __slots__ = ("_bottom", "_coeffs")

    def __init__(self, coefficients: Mapping[int, int] | None = None):
        checked: dict[int, int] = {}
        if coefficients:
            for degree, count in coefficients.items():
                _checked_count(degree, "degree")
                if _checked_count(count, "coefficient"):
                    checked[degree] = count
        self._bottom = min(checked, default=0)
        span = max(checked) - self._bottom + 1 if checked else 0
        if span > _MAX_DENSE_SPAN:
            raise DomainError(
                f"degree span {span} exceeds the dense storage limit {_MAX_DENSE_SPAN}"
            )
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

    @classmethod
    def zero(cls) -> "GradedRankPoly":
        return cls()

    @classmethod
    def one(cls) -> "GradedRankPoly":
        """The rank polynomial of a single untwisted Tate summand."""
        return cls({0: 1})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[int, int], ...]:
        """(degree, coefficient) pairs of the nonzero coefficients, ascending."""
        return tuple((d, c) for d, c in enumerate(self._coeffs, self._bottom) if c)

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, c in enumerate(self._coeffs, self._bottom) if c)

    def coefficient(self, degree: int) -> int:
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
        low, high = (self, other) if self._bottom <= other._bottom else (other, self)
        out = list(low._coeffs)
        start = high._bottom - low._bottom
        end = start + len(high._coeffs)
        out.extend([0] * (end - len(out)))
        out[start:end] = [x + y for x, y in zip(out[start:end], high._coeffs)]
        return GradedRankPoly._trusted(low._bottom, out)

    def __mul__(self, other: "GradedRankPoly | int") -> "GradedRankPoly":
        if isinstance(other, int):
            _checked_count(other, "scalar")
            return GradedRankPoly._trusted(self._bottom, [c * other for c in self._coeffs])
        if not isinstance(other, GradedRankPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return GradedRankPoly.zero()
        if len(a) * len(b) > 1 << 12:
            out = _kronecker_convolve(a, b)
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    out[i : i + len(b)] = [y * x + z for y, z in zip(b, out[i : i + len(b)])]
        return GradedRankPoly._trusted(self._bottom + other._bottom, out)

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
        try:
            coeffs = {int(d): int(c) for d, c in data.items()}
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed rank polynomial encoding: {exc}") from exc
        return cls(coeffs)


@dataclass(frozen=True)
class PartitionBoxSpec:
    """A box-bounded partition counting query.

    ``parts`` is the fixed number of entries (zero padding allowed),
    ``max_part`` bounds each entry, and ``size`` is the target total.
    """

    parts: int
    max_part: int
    size: int

    def __post_init__(self) -> None:
        _checked_count(self.parts, "parts")
        _checked_count(self.max_part, "max_part")
        _checked_count(self.size, "size")

    @property
    def capacity(self) -> int:
        return self.parts * self.max_part


def _kronecker_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact convolution of nonnegative coefficient lists via integer packing.

    Each polynomial is evaluated at 256**size with ``size`` bytes chosen so
    that no convolution coefficient can spill into its neighbor; one
    big-integer multiplication then carries out the whole convolution.
    Packing and unpacking go through ``to_bytes``/``from_bytes``, linear in
    the packed length (Harvey, J. Symb. Comput. 2009).
    """
    bound = min(len(a), len(b)) * max(a) * max(b)
    size = (bound.bit_length() + 7) // 8

    def pack(coeffs: Sequence[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coeffs), "little")

    length = (len(a) + len(b) - 1) * size
    packed = memoryview((pack(a) * pack(b)).to_bytes(length, "little"))
    return [int.from_bytes(packed[i : i + size], "little") for i in range(0, length, size)]


def _sum_of_shifts(
    bottom: int,
    top: int,
    parts: Iterable[tuple[GradedRankPoly, Sequence[tuple[int, int]]]],
) -> GradedRankPoly:
    """``sum(mult * q**twist * poly)`` over every placement of every part.

    Each part is a polynomial with the ``(twist, mult)`` placements it is
    added at.  The copies are added in place into one dense buffer spanning
    degrees ``[bottom, top]``, which must contain every placed copy.  Parts
    are consumed one at a time and each polynomial is released before the
    next is drawn, so a lazy ``parts`` keeps only one of them alive.
    """
    out = [0] * (top - bottom + 1)
    for poly, placements in parts:
        coeffs = poly._coeffs
        for twist, mult in placements:
            start = poly._bottom + twist - bottom
            end = start + len(coeffs)
            out[start:end] = [x + mult * y for x, y in zip(out[start:end], coeffs)]
        del poly, coeffs
    return GradedRankPoly._trusted(bottom, out)


@lru_cache(maxsize=None, typed=True)
def gaussian_binomial(d: int, k: int) -> GradedRankPoly:
    """The Gaussian binomial coefficient [d choose k]_q as a rank polynomial.

    Computed by the product formula
    ``[m+i+1, i+1] = [m+i, i] * (1 - q^(m+i+1)) / (1 - q^(i+1))``
    (Andrews, *The Theory of Partitions*, ch. 3) over exact integers, for
    ``i`` up to the narrow side ``min(k, d-k)``.  Each step is one sweep
    that multiplies by the numerator and divides exactly by the
    denominator; every intermediate is itself a Gaussian binomial, so the
    division never leaves the integers.  The result has bottom degree 0,
    top degree ``k*(d-k)``, symmetric coefficients and total rank
    ``C(d, k)``; it is the split Poincare polynomial of the Grassmannian of
    ``k``-planes in ``d``-space.
    """
    _checked_count(d, "d")
    _checked_count(k, "k")
    if k > d:
        raise DomainError(f"gaussian_binomial requires 0 <= k <= d, got k={k} > d={d}")
    col = min(k, d - k)  # [d, k] = [d, d-k]; iterate the narrow side
    m = d - col
    row = [1]  # [m, 0]
    for i in range(col):
        a, b = m + i + 1, i + 1
        prev = [0] * a + row + [0] * m  # prev[j + a] is the degree-j coefficient of row
        row = [0] * (len(row) + m)
        for j in range(len(row)):
            row[j] = prev[j + a] - prev[j] + (row[j - b] if j >= b else 0)
    return GradedRankPoly._trusted(0, row)


@lru_cache(maxsize=None)
def _box_size_counts(parts: int, max_part: int) -> tuple[int, ...]:
    """Counts of partitions in a ``parts x max_part`` box, indexed by size.

    Dynamic programming on the recurrence
    ``N(m, c, s) = N(m-1, c, s) + N(m, c-1, s-m)``: a partition either uses
    fewer than ``m`` rows, or all rows are positive and a full column can be
    stripped.  Shares no code with the product formula of
    :func:`gaussian_binomial` or with the enumerator.
    """
    cap = parts * max_part
    width = cap + 1
    # rows indexed by allowed number of parts; columns by allowed max part
    prev = [[1] + [0] * cap for _ in range(max_part + 1)]
    for m in range(1, parts + 1):
        cur = [[1] + [0] * cap]
        for c in range(1, max_part + 1):
            left = cur[c - 1]
            up = prev[c]
            merged = [
                up[s] + (left[s - m] if s >= m else 0) for s in range(width)
            ]
            cur.append(merged)
        prev = cur
    return tuple(prev[max_part])


def count_partitions_in_box(box: PartitionBoxSpec) -> int:
    """Number of weakly decreasing sequences of length ``parts`` with entries
    in ``[0, max_part]`` summing to ``size``.  Sizes beyond the box capacity
    count zero."""
    if box.size > box.capacity:
        return 0
    return _box_size_counts(box.parts, box.max_part)[box.size]


def enumerate_partitions_in_box(parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition in the box as a zero-padded length-``parts`` tuple.

    Exhaustive and deliberately naive: this is the oracle the recurrence is
    tested against, so it shares no code with :func:`count_partitions_in_box`.
    Partitions come in descending lexicographic order, from the full box to
    the empty one, by an odometer: lower the last nonzero entry by one and
    refill every entry after it with the lowered value.
    """
    _checked_count(parts, "parts")
    _checked_count(max_part, "max_part")
    lam = [max_part] * parts
    while True:
        yield tuple(lam)
        i = parts - 1
        while i >= 0 and not lam[i]:
            i -= 1
        if i < 0:
            return
        lam[i:] = [lam[i] - 1] * (parts - i)

def count_partitions_by_enumeration(box: PartitionBoxSpec) -> int:
    """Brute-force counterpart of :func:`count_partitions_in_box`."""
    return sum(
        1
        for lam in enumerate_partitions_in_box(box.parts, box.max_part)
        if sum(lam) == box.size
    )
