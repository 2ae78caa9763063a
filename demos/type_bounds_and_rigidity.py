"""Deriving type bounds, indecomposability and rigidity with proof traces.

Run with:  python demos/type_bounds_and_rigidity.py
"""

from sbmotives import (
    RULE_CATALOG,
    DivisionContext,
    SBVariety,
    classify_reduced_dimension,
    indecomposability_judgment,
    rigidity_judgment,
    type_bound,
)

# A variety is "of type t" when every summand of its motive other than the
# upper one is a Tate twist of an upper motive of level at most t; type -1
# leaves only the upper motive and forces indecomposability.

# At every prime, the level bound gives type k-1.  At p = 2 a halving
# induction improves this to max(k-2, -1); the numeric heart of the
# induction step is a dimension comparison that holds across the board: the
# candidate factor is smaller than the span of the two endpoint copies.  These
# are the dimensions the rung's obstruction step checks at exponent n; a trace
# records the rung once, at exponent k + 1, and the induction carries it to n.
print("dimension obstruction, small range:")
for n in range(1, 5):
    for k in range(1, n + 1):
        print(f"  n={n} k={k}:", RULE_CATALOG["dimension-obstruction"].record(2, n, k, k - 2))

# The derived bounds, tabulated.
print("\ntype bounds (p=2 improves, odd primes keep the level bound):")
for p in (2, 3):
    for n in (3,):
        row = [type_bound(SBVariety(DivisionContext(p, n), k)).bound for k in range(n + 1)]
        print(f"  p={p}, n={n}: bounds by level {row}")

# Every derivation carries a replayable trace.  Each step sits at a position
# (p, n, k, bound) of the derivation: the variety, with n the step's exponent,
# and the type bound.  The opening level bound records its position; every
# later step records only the numbers its position does not fix.  Its JSON
# holds just the rule id and those conditions.  Each conclusion comes from the
# fixed catalog, rendered below at the step's position, and each citation too;
# the CLI's JSON lists each citation once, under "rules".  replay(variety)
# re-checks each step from its recorded numbers and its position, in closed
# form; the halving induction is one step, so a trace has the same seven
# steps at every exponent above the level.
bound = type_bound(SBVariety(DivisionContext(2, 3), 1))
print(f"\nbound for SB_2, deg D = 8: {bound.bound}  (trace replays: {bound.trace.replay(bound.variety)})")
print(bound.trace.render_text())

# Type -1 plus the rank-one degree-zero Chow group yields indecomposability.
# The calculus never claims the opposite: anything short of -1 is "unknown".
print("\nindecomposability:")
for p, n, k in [(2, 3, 1), (3, 2, 1), (2, 1, 1)]:
    judgment = indecomposability_judgment(SBVariety(DivisionContext(p, n), k))
    print(f"  p={p}, n={n}, k={k}: {judgment.status.value} (bound {judgment.bound})")

# A bound of at most 0 transfers along every division-preserving extension,
# settling the decomposition-lifting question for that variety.
print("\nrigidity:")
for p, n, k in [(2, 3, 2), (5, 2, 1), (3, 2, 2)]:
    judgment = rigidity_judgment(SBVariety(DivisionContext(p, n), k))
    print(f"  p={p}, n={n}, k={k}: {judgment.status.value} (bound {judgment.bound})")

# Arbitrary reduced dimensions reduce to prime-primary sub-cases.  Covered:
# squarefree k (levels 0 and 1) and k = 4 * odd squarefree (level 2 at p=2).
print("\ncoverage of reduced dimensions 1..30:")
for k in range(1, 31):
    case = classify_reduced_dimension(k)
    if case.covered:
        subs = ", ".join(f"SB_{c.reduced_dimension}@p={c.prime}" for c in case.reductions)
        print(f"  k={k:2d}: covered ({case.reason.value}) via {subs or 'trivial'}")
    else:
        print(f"  k={k:2d}: open (blocking factor {case.blocking_factor})")
