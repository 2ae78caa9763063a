"""Tour of the exact rank-polynomial layer.

Run with:  python demos/poincare_polynomials.py
"""

from sbmotives import (
    GradedRankPoly,
    PartitionBoxSpec,
    count_partitions_in_box,
    enumerate_partitions_in_box,
    gaussian_binomial,
)

# A Gaussian binomial [d choose k]_q is the split Poincare polynomial of the
# Grassmannian G(k, d): its degree-s coefficient counts the partitions of s
# that fit in a k x (d-k) box.
poly = gaussian_binomial(4, 2)
print("[4 choose 2]_q =", poly)
print("rank:", poly.rank(), " dimension:", poly.dim())

# The box picture is literal.  Here are all partitions in the 2x2 box,
# grouped by size; the histogram is the polynomial above.
print("\npartitions in the 2x2 box:")
for lam in enumerate_partitions_in_box(2, 2):
    print("  ", lam, "size", sum(lam))

# Two more counters, independent of the binomial and of each other, serve as
# its oracles: a dynamic-programming recurrence and the exhaustive enumerator.
# Both agree with the degree-2 coefficient above.
box = PartitionBoxSpec(parts=2, max_part=2, size=2)
print("\ncount by recurrence:  ", count_partitions_in_box(box))
by_enumeration = sum(sum(lam) == box.size for lam in enumerate_partitions_in_box(2, 2))
print("count by enumeration: ", by_enumeration)

# Coefficients are exact arbitrary-precision integers.  The middle
# coefficient of [64 choose 32]_q is far beyond 2**53 and still exact;
# the JSON encoding ships integers as decimal strings for the same reason.
big = gaussian_binomial(64, 32)
print("\nmiddle coefficient of [64 choose 32]_q:", big.coefficient(512))
print("rank equals C(64, 32):", big.rank())

# Polynomial arithmetic mirrors direct sum, product and Tate twist of
# split motives: add is coefficientwise, mul is convolution, shift bumps
# every degree.
conic = GradedRankPoly({0: 1, 1: 1})
print("\nconic x conic:", conic * conic)
print("conic twisted by 4:", conic.shift(4))
print("conic + conic:", conic + conic)
