"""Rule engine deriving upper bounds on the type of Severi-Brauer varieties.

A variety is *of type t* when every indecomposable summand of its motive is
either its own upper motive or a Tate twist of an upper motive of level at
most ``t``; type -1 therefore means only the upper motive can occur at all.
The calculus proves upper bounds only.  It never claims a decomposition
exists, and "unknown" is a first-class outcome.

Two rules are available.  The level bound holds for every prime: the variety
of level ``k`` is of type ``k - 1``.  At ``p = 2`` a halving induction
excludes level ``k - 1`` as well, giving ``max(k - 2, -1)``: restrict to the
function field of the half-degree ideal variety, split the motive into
products of Severi-Brauer motives of the half-degree algebra, observe that a
surviving level-``(k-1)`` summand could only live in three of the factors,
rule out two by the induction hypothesis, and kill the third by a dimension
count.

Every derivation is returned as a :class:`ProofTrace`: an ordered list of
steps whose numeric side conditions can be re-checked from the recorded
values alone, with no access to engine state (:meth:`ProofTrace.replay`).  A
step stores only its rule id; its citation is read from the fixed rule
catalog, so a trace cannot carry a citation the catalog does not state.  The
induction is replayed in full for the requested exponent rather than
memoized away, so traces are self-contained.  Replay also checks that each
position holds the rule the derivation calls for there, and that every step
speaks about the variety of the opening level bound.  Every rule check
is closed form, so replaying the trace of level ``k`` and exponent ``n``
takes time linear in ``n - k``.  A check builds a power only after the bit
length of a recorded value allows it, so a decoded trace costs time in the
size of its encoding, however large the exponents it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import DomainError
from .qpoly import _is_int
from .severi_brauer import SBVariety

__all__ = [
    "Rule",
    "RULE_CATALOG",
    "ProofStep",
    "ProofTrace",
    "DimensionObstruction",
    "dimension_obstruction",
    "TypeBound",
    "type_bound",
    "IndecomposabilityStatus",
    "RigidityStatus",
    "Judgment",
    "indecomposability_judgment",
    "rigidity_judgment",
]

Conditions = Mapping[str, int]


@dataclass(frozen=True)
class Rule:
    """A named inference rule with a self-contained statement.

    ``check`` re-evaluates the rule's numeric side conditions from a recorded
    mapping alone; it is what :meth:`ProofTrace.replay` runs.
    """

    rule_id: str
    statement: str
    source: str
    check: Callable[[Conditions], bool]

    @property
    def citation(self) -> str:
        return f"{self.statement} [{self.source}]"


def _power_fits(value: int, base: int, exponent: int) -> bool:
    """Whether ``base**exponent`` can be at most ``|value|``, read from bit
    lengths before the power is built: a base of bit length ``b`` has
    ``base**exponent >= 2**(exponent * (b - 1))``.  Guarding each power with
    a recorded value keeps replay cost bounded by the size of the encoding.
    """
    return exponent * (base.bit_length() - 1) < value.bit_length()


def _check_level_bound(c: Conditions) -> bool:
    return c["p"] >= 2 and 0 <= c["k"] <= c["n"] and c["bound"] == c["k"] - 1


def _check_point_base(c: Conditions) -> bool:
    # p^k * (p^n - p^k) vanishes exactly when k = n
    return c["k"] == c["n"] and c["variety_dim"] == 0


def _check_function_field_split(c: Conditions) -> bool:
    p, n, k = c["p"], c["n"], c["k"]
    if p != 2 or not 1 <= k < n or not _power_fits(c["lower_twist"], 2, n + k - 1):
        return False
    return (
        c["degree"] == 2**n
        and c["split_degree"] == 2 ** (n - 1)
        and c["term_count"] == 2**k + 1
        and c["upper_twist"] == 0
        and c["lower_twist"] == 2 ** (n + k - 1)
    )


def _check_halved_endpoints(c: Conditions) -> bool:
    p, n, level = c["p"], c["n"], c["level"]
    if p < 2 or not 0 <= level < n or not _power_fits(c["lower_twist"], p, n + level - 1):
        return False
    return c["upper_twist"] == 0 and c["lower_twist"] == p ** (n + level - 1) * (p - 1)


def _check_valuation_case_split(c: Conditions) -> bool:
    p, n, k = c["p"], c["n"], c["k"]
    if p != 2 or not 1 <= k < n:
        return False
    if c["required_level"] != k - 1:
        return False
    recorded = {
        (c["candidate_0_i"], c["candidate_0_j"]),
        (c["candidate_1_i"], c["candidate_1_j"]),
        (c["candidate_2_i"], c["candidate_2_j"]),
    }
    if not _power_fits(max(max(pair) for pair in recorded), 2, k):
        return False
    # For i + j = 2^k, 2^(k-1) divides gcd(i, j) exactly when it divides i,
    # and gcd(0, m) = m; k < n keeps every i in [0, 2^k] within the half
    # degree 2^(n-1), so the candidates are i = 0, 2^(k-1) and 2^k.
    m, step = 2**k, 2 ** (k - 1)
    return recorded == {(0, m), (step, step), (m, 0)}


def _check_dimension_obstruction(c: Conditions) -> bool:
    n, k = c["n"], c["k"]
    if not 1 <= k <= n or not _power_fits(c["endpoint_dim"], 2, n + k - 2):
        return False
    product_dim = 2 ** (n + k - 1) - 2 ** (2 * k - 1)
    endpoint_dim = 2 ** (n + k - 1) - 2 ** (2 * k - 2)
    return (
        c["product_dim"] == product_dim
        and c["endpoint_dim"] == endpoint_dim
        and product_dim < endpoint_dim
    )


def _check_rank_one_upper(c: Conditions) -> bool:
    return c["bound"] <= -1 and c["ch0_rank"] == 1


def _check_rational_cycle_persistence(c: Conditions) -> bool:
    return c["p"] >= 2 and 0 <= c["k"] <= c["n"]


def _check_classical_summand_exclusion(c: Conditions) -> bool:
    return 1 <= c["k"] <= c["n"]


def _check_classical_base(c: Conditions) -> bool:
    return c["k"] == 0


def _check_type_zero_transfer(c: Conditions) -> bool:
    return c["bound"] <= 0


RULE_CATALOG: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "level-bound",
            "Every indecomposable summand of the motive of the level-k "
            "Severi-Brauer variety of a division algebra is a Tate twist of "
            "an upper motive of level at most k; the level-k upper motive has "
            "maximal dimension and the degree-zero Chow group has rank one, "
            "so it occurs exactly once and untwisted.  The variety is of type "
            "k - 1.",
            "theory of upper motives",
            _check_level_bound,
        ),
        Rule(
            "point-base",
            "The variety of ideals of full reduced dimension is a single "
            "rational point whose motive is the Tate unit; no summand of "
            "positive level can occur, so the induction starts for free.",
            "geometry of ideal varieties",
            _check_point_base,
        ),
        Rule(
            "function-field-split",
            "Over the function field of the half-degree ideal variety, the "
            "motive of the level-k variety splits into the products "
            "M(SB_i(C)) x M(SB_j(C)) twisted by i(2^(n-1) - j), over all "
            "i + j = 2^k, where C is the Brauer-equivalent division algebra "
            "of degree 2^(n-1).",
            "function-field splitting of twisted flag varieties",
            _check_function_field_split,
        ),
        Rule(
            "halved-endpoints",
            "If a Tate twist of the level-l upper motive survives the "
            "function-field restriction, the restricted motive contains the "
            "level-l upper motive of the half-degree algebra twice: untwisted "
            "and twisted by p^(n+l-1)(p-1).",
            "endpoint summands of the split decomposition",
            _check_halved_endpoints,
        ),
        Rule(
            "valuation-case-split",
            "Every indecomposable summand of M(SB_i(C) x SB_j(C)) is a Tate "
            "twist of an upper motive of level at most v_2(gcd(i, j)); by "
            "Krull-Schmidt uniqueness a level-(k-1) summand must sit inside a "
            "factor whose pair (i, j) has 2-adic valuation at least k - 1.",
            "theory of upper motives; Krull-Schmidt uniqueness",
            _check_valuation_case_split,
        ),
        Rule(
            "dimension-obstruction",
            "The two endpoint copies of the level-(k-1) upper motive span "
            "dimension 2^(n+k-1) - 2^(2k-2), strictly more than the dimension "
            "2^(n+k-1) - 2^(2k-1) of the only remaining candidate factor "
            "SB_{2^(k-1)}(C) x SB_{2^(k-1)}(C); the surviving twist cannot "
            "exist, so the variety is of type k - 2.",
            "dimension count",
            _check_dimension_obstruction,
        ),
        Rule(
            "rank-one-upper",
            "For a variety of type -1 every indecomposable summand is the "
            "upper motive; the degree-zero Chow group has rank one, so there "
            "is exactly one summand and the motive is indecomposable.",
            "theory of upper motives",
            _check_rank_one_upper,
        ),
        Rule(
            "rational-cycle-persistence",
            "While the algebra stays division under a field extension, every "
            "extension-rational cycle on the product of the classical variety "
            "with the level-k variety is already rational over the base; the "
            "count of rational classes depends only on (p, n, k).",
            "rationality of cycles on products with the classical variety",
            _check_rational_cycle_persistence,
        ),
        Rule(
            "classical-summand-exclusion",
            "For 0 < k <= n the level-k upper motive acquires no direct "
            "summand isomorphic to a Tate twist of the motive of the "
            "classical Severi-Brauer variety under a division-preserving "
            "extension.",
            "rigidity of classical summands",
            _check_classical_summand_exclusion,
        ),
        Rule(
            "classical-base",
            "The motive of the classical Severi-Brauer variety of a division "
            "algebra is indecomposable and stays indecomposable under every "
            "division-preserving extension.",
            "classical Severi-Brauer rigidity",
            _check_classical_base,
        ),
        Rule(
            "type-zero-transfer",
            "If the variety is of type at most 0 over every division-"
            "preserving extension of the base field, its motivic "
            "decomposition lifts: the indecomposable summands over the "
            "extension are defined over the base.  The derived bound depends "
            "only on (p, n, k), which such extensions preserve.",
            "type-zero transfer principle",
            _check_type_zero_transfer,
        ),
    )
}


@dataclass(frozen=True)
class ProofStep:
    """One applied rule: recorded side conditions plus a drawn conclusion.

    The rule id must name a catalog rule; the citation is the catalog's.
    """

    rule_id: str
    side_conditions: tuple[tuple[str, int], ...]
    conclusion: str

    def __post_init__(self) -> None:
        if self.rule_id not in RULE_CATALOG:
            raise DomainError(f"unknown rule id: {self.rule_id!r}")

    @property
    def citation(self) -> str:
        return RULE_CATALOG[self.rule_id].citation

    def conditions(self) -> dict[str, int]:
        return dict(self.side_conditions)

    def replay(self) -> bool:
        """Re-check this step's side conditions from the recorded values."""
        try:
            return bool(RULE_CATALOG[self.rule_id].check(self.conditions()))
        except KeyError:
            return False


def _step(rule_id: str, conclusion: str, **side: int) -> ProofStep:
    return ProofStep(rule_id, tuple(side.items()), conclusion)


_RUNG = ("function-field-split", "halved-endpoints", "valuation-case-split", "dimension-obstruction")


def _expected_steps(steps: tuple[ProofStep, ...]) -> Iterator[tuple[str, dict[str, int]]]:
    """The rule id and the ``p, n, k, level, bound`` of each position, read
    off the opening level bound: a rule check alone accepts a step sound for
    *any* variety, in any order.  At ``p = 2`` and ``k >= 1`` the point base
    and one ``_RUNG`` per exponent ``k+1..n`` follow, then the closing the
    step after them names: none, ``rank-one-upper`` or the rigidity transfer.
    Lazy, so a trace costs its own length, not that of its exponents."""
    yield "level-bound", {}
    opening = steps[0].conditions() if steps else {}
    if not {"p", "n", "k"} <= opening.keys() or steps[0].rule_id != "level-bound":
        return
    p, n, k = opening["p"], opening["n"], opening["k"]
    halving = p == 2 and 1 <= k <= n
    bound = max(k - 2 if halving else k - 1, -1)

    def subject(exponent: int) -> dict[str, int]:
        return dict(p=p, n=exponent, k=k, level=k - 1, bound=bound)

    if halving:
        yield "point-base", subject(k)
        for m in range(k + 1, n + 1):
            for rule in _RUNG:
                yield rule, subject(m)
    after = 2 + 4 * (n - k) if halving else 1
    classical = "classical-summand-exclusion" if k >= 1 else "classical-base"
    closings = {
        "rank-one-upper": ["rank-one-upper"],
        "rational-cycle-persistence": ["rational-cycle-persistence", classical, "type-zero-transfer"],
    }
    for rule in closings.get(steps[after].rule_id if after < len(steps) else "", []):
        yield rule, subject(n)


@dataclass(frozen=True)
class ProofTrace:
    """Ordered, self-contained derivation."""

    steps: tuple[ProofStep, ...] = ()

    def __iter__(self) -> Iterator[ProofStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def extended(self, *steps: ProofStep) -> "ProofTrace":
        return ProofTrace(self.steps + steps)

    def replay(self) -> bool:
        """True when no position fails (:meth:`failing_steps`)."""
        return not self.failing_steps()

    def failing_steps(self) -> tuple[int, ...]:
        """Positions where replay fails: a step whose rule is not the one its
        position calls for, that records another variety than the opening
        level bound, or whose side conditions do not re-check; and
        ``len(self)`` when the derivation stops short, so 0 for an empty
        trace."""
        expected = _expected_steps(self.steps)
        failing = []
        for i, step in enumerate(self.steps):
            rule, subject = next(expected, ("", {}))
            if (
                step.rule_id != rule
                or any(subject.get(name, value) != value for name, value in step.side_conditions)
                or not step.replay()
            ):
                failing.append(i)
        return tuple(failing) + ((len(self.steps),) if next(expected, None) else ())

    def render_text(self) -> str:
        lines = []
        for index, step in enumerate(self.steps, start=1):
            conds = " ".join(f"{name}={value}" for name, value in step.side_conditions)
            lines.append(f"step {index}: {step.rule_id}")
            lines.append(f"  conditions: {conds}")
            lines.append(f"  conclusion: {step.conclusion}")
            lines.append(f"  citation: {step.citation}")
        return "\n".join(lines)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "rule_id": step.rule_id,
                "citation": step.citation,
                "conditions": {name: str(value) for name, value in step.side_conditions},
                "conclusion": step.conclusion,
            }
            for step in self.steps
        ]

    @classmethod
    def from_json_obj(cls, data: Iterable[Mapping]) -> "ProofTrace":
        """Decode a trace; an unknown rule id or a citation that differs from
        the catalog's raises :class:`DomainError`."""
        steps = []
        for entry in data:
            try:
                step = ProofStep(
                    rule_id=entry["rule_id"],
                    side_conditions=tuple(
                        (name, int(value)) for name, value in entry["conditions"].items()
                    ),
                    conclusion=entry["conclusion"],
                )
                citation = entry["citation"]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"malformed trace encoding: {exc}") from exc
            if citation != step.citation:
                raise DomainError(f"citation of {step.rule_id!r} differs from the rule catalog")
            steps.append(step)
        return cls(tuple(steps))


class DimensionObstruction(NamedTuple):
    """The two dimensions compared in the induction step, and the verdict."""

    product_dim: int
    endpoint_dim: int
    holds: bool


def dimension_obstruction(n: int, k: int) -> DimensionObstruction:
    """Compare the candidate factor against the endpoint span at ``p = 2``.

    ``product_dim = 2^(n+k-1) - 2^(2k-1)`` is the dimension of
    ``SB_{2^(k-1)}(C) x SB_{2^(k-1)}(C)`` for ``deg C = 2^(n-1)``;
    ``endpoint_dim = 2^(n+k-1) - 2^(2k-2)`` is the span of the untwisted and
    twisted endpoint copies.  The obstruction holds (strictly less) for every
    ``1 <= k <= n``; the engine evaluates it rather than assuming it.
    """
    if not _is_int(n) or not _is_int(k) or not 1 <= k <= n:
        raise DomainError(f"dimension obstruction requires 1 <= k <= n, got k={k!r}, n={n!r}")
    product_dim = 2 ** (n + k - 1) - 2 ** (2 * k - 1)
    endpoint_dim = 2 ** (n + k - 1) - 2 ** (2 * k - 2)
    return DimensionObstruction(product_dim, endpoint_dim, product_dim < endpoint_dim)


class IndecomposabilityStatus(Enum):
    INDECOMPOSABLE = "indecomposable"
    UNKNOWN = "unknown"


class RigidityStatus(Enum):
    CONJECTURE_HOLDS = "conjecture-holds"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TypeBound:
    """A derived upper bound on the type of a variety, with its derivation.

    ``bound`` is at most ``level - 1`` (the level bound always applies) and
    at least -1 (there are no upper motives of negative level to exclude).
    Both verdicts are read off the bound; the judgments add the closing
    steps of their derivations.
    """

    variety: SBVariety
    bound: int
    trace: ProofTrace

    @property
    def indecomposability(self) -> IndecomposabilityStatus:
        """Indecomposable when the bound reaches -1, unknown otherwise."""
        if self.bound <= -1:
            return IndecomposabilityStatus.INDECOMPOSABLE
        return IndecomposabilityStatus.UNKNOWN

    @property
    def rigidity(self) -> RigidityStatus:
        """The conjecture holds when the bound is at most 0, unknown otherwise."""
        if self.bound <= 0:
            return RigidityStatus.CONJECTURE_HOLDS
        return RigidityStatus.UNKNOWN


def _halving_induction_steps(n: int, k: int) -> list[ProofStep]:
    """Replay of the level-(k-1) exclusion for ``p = 2``, bottom up.

    The induction bottoms out where the variety is a point (exponent equal to
    the level) and climbs one exponent at a time up to ``n``.
    """
    steps = [
        _step(
            "point-base",
            f"at degree 2^{k} the level-{k} variety is a rational point; "
            f"no twist of the level-{k - 1} upper motive occurs",
            p=2,
            n=k,
            k=k,
            variety_dim=0,
        )
    ]
    for m in range(k + 1, n + 1):
        half = 2 ** (m - 1)
        steps.append(
            _step(
                "function-field-split",
                f"the motive of the level-{k} variety of the degree-2^{m} "
                f"algebra splits over the half-degree function field into "
                f"{2**k + 1} twisted products",
                p=2,
                n=m,
                k=k,
                degree=2**m,
                split_degree=half,
                term_count=2**k + 1,
                upper_twist=0,
                lower_twist=2 ** (m + k - 1),
            )
        )
        steps.append(
            _step(
                "halved-endpoints",
                f"a surviving twist of the level-{k - 1} upper motive would "
                f"contain the half-degree level-{k - 1} upper motive untwisted "
                f"and twisted by 2^{m + k - 2}",
                p=2,
                n=m,
                level=k - 1,
                upper_twist=0,
                lower_twist=2 ** (m + k - 2),
            )
        )
        steps.append(
            _step(
                "valuation-case-split",
                f"only the factors indexed by (2^{k}, 0), (0, 2^{k}) and "
                f"(2^{k - 1}, 2^{k - 1}) can carry a level-{k - 1} summand; "
                f"the first two are the level-{k} motive of the half-degree "
                f"algebra, excluded by the induction hypothesis above",
                p=2,
                n=m,
                k=k,
                required_level=k - 1,
                candidate_0_i=2**k,
                candidate_0_j=0,
                candidate_1_i=0,
                candidate_1_j=2**k,
                candidate_2_i=2 ** (k - 1),
                candidate_2_j=2 ** (k - 1),
            )
        )
        obstruction = dimension_obstruction(m, k)
        steps.append(
            _step(
                "dimension-obstruction",
                f"the remaining factor has dimension {obstruction.product_dim} "
                f"< {obstruction.endpoint_dim}; no twist of the level-{k - 1} "
                f"upper motive occurs at degree 2^{m}, so the variety is of "
                f"type {k - 2}",
                p=2,
                n=m,
                k=k,
                product_dim=obstruction.product_dim,
                endpoint_dim=obstruction.endpoint_dim,
            )
        )
    return steps


def type_bound(variety: SBVariety) -> TypeBound:
    """Best upper bound on the type of the variety the rules can derive.

    The level bound gives ``level - 1`` for every prime.  For ``p = 2`` and
    ``level >= 1`` the halving induction improves it to
    ``max(level - 2, -1)``; the full induction is recorded in the trace.
    """
    p = variety.context.p
    n = variety.context.n
    k = variety.level
    steps = [
        _step(
            "level-bound",
            f"the level-{k} variety of the degree-{p}^{n} algebra is of type {k - 1}",
            p=p,
            n=n,
            k=k,
            bound=k - 1,
        )
    ]
    bound = k - 1
    if p == 2 and k >= 1:
        steps.extend(_halving_induction_steps(n, k))
        bound = k - 2
    bound = max(bound, -1)
    return TypeBound(variety=variety, bound=bound, trace=ProofTrace(tuple(steps)))


@dataclass(frozen=True)
class Judgment:
    """A verdict on a variety, the type bound it rests on, and its derivation."""

    variety: SBVariety
    status: IndecomposabilityStatus | RigidityStatus
    bound: int
    trace: ProofTrace


def indecomposability_judgment(variety: SBVariety) -> Judgment:
    """Indecomposable when the derived type bound reaches -1; never the
    opposite claim, since the calculus only proves upper bounds."""
    derived = type_bound(variety)
    status = derived.indecomposability
    trace = derived.trace
    if status is IndecomposabilityStatus.INDECOMPOSABLE:
        trace = trace.extended(
            _step(
                "rank-one-upper",
                "type -1 leaves only the upper motive, and the rank-one "
                "degree-zero Chow group allows a single summand: the motive "
                "is indecomposable",
                p=variety.context.p,
                n=variety.context.n,
                k=variety.level,
                bound=derived.bound,
                ch0_rank=1,
            )
        )
    return Judgment(variety, status, derived.bound, trace)


def rigidity_judgment(variety: SBVariety) -> Judgment:
    """Decide whether motivic decompositions of the variety lift along every
    division-preserving extension.

    Positive when the derived type bound is at most 0: the only summand a
    type-0 variety could acquire is a twist of the classical variety's
    motive, and that is excluded while the algebra stays division.  The bound
    itself depends only on ``(p, n, k)``, which such extensions preserve, so
    it holds over every extension at once.
    """
    derived = type_bound(variety)
    if derived.rigidity is RigidityStatus.UNKNOWN:
        return Judgment(variety, RigidityStatus.UNKNOWN, derived.bound, derived.trace)
    subject = dict(p=variety.context.p, n=variety.context.n, k=variety.level)
    if variety.level >= 1:
        classical = _step(
            "classical-summand-exclusion",
            "no twist of the classical variety's motive enters the upper "
            "motive under a division-preserving extension",
            **subject,
        )
    else:
        classical = _step(
            "classical-base",
            "the variety is the classical Severi-Brauer variety itself; "
            "its motive stays indecomposable",
            **subject,
        )
    closing = [
        _step(
            "rational-cycle-persistence",
            "rational cycle counts on the product with the classical variety "
            "are unchanged by division-preserving extensions",
            **subject,
        ),
        classical,
        _step(
            "type-zero-transfer",
            f"the derived bound {derived.bound} <= 0 holds over every "
            "division-preserving extension; motivic decompositions lift",
            **subject,
            bound=derived.bound,
        ),
    ]
    return Judgment(
        variety,
        RigidityStatus.CONJECTURE_HOLDS,
        derived.bound,
        derived.trace.extended(*closing),
    )
