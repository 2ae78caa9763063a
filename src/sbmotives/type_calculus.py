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
steps whose numeric side conditions are re-checked at their positions in the
derivation, with no access to engine state (:meth:`ProofTrace.replay`).  Two
generators, the type bound's and a closing's, fix the rule of each step and
its position, one tuple ``(p, n, k, bound)``: the variety, with ``n`` the
step's exponent, and the type bound.  Only the opening level bound records
its position, and a trace replayed with no variety given is about the
variety its opening names; every later step records only what its position
does not fix, and one that records ``p``, ``n``, ``k``, ``level`` or
``bound`` fails replay.  A trace is recorded when it is first read, so a
caller that wants only the bound or the verdict records nothing.  Each
judgment's trace is the type bound's steps followed by the judgment's
closing; the last variety's type bound trace is held, so traces about one
variety read one after another share those steps.  A step records its rule
and its side conditions, and that is all its JSON encoding holds:
``{"rule_id", "conditions"}``.  Its conclusion and citation come from the
fixed rule catalog, the conclusion rendered at the step's position only when
a trace that replays is printed as text; the CLI's JSON lists each citation
once, in a top-level map of the rules the trace uses.  So building,
encoding, decoding and replaying format no text, and a decoded step that
carries a citation or a conclusion is rejected.  The induction is replayed
in full for the requested exponent rather than memoized away, so traces are
self-contained.  Recording fills in side conditions along the positions from
each rule's catalog row (:attr:`Rule.record`), and replay walks them once,
checking that each position holds the rule it calls for there and that the
rule's check accepts the step's side conditions at that position
(:meth:`ProofTrace.failing_steps`): the check takes the position as
arguments and the side conditions as its keyword-only parameters, whose
names are the names a step of the rule records.  A check runs only where
:func:`_derivation` or :func:`_closing` place its rule, and tests only what
that position leaves open: the four rung rules sit only at ``p = 2`` and
``1 <= k < n``, so their checks test neither.  Replay checks the variety
once, where it is named: a given :class:`SBVariety` is already valid, and
with none given the opening must name one the engine builds (``p`` prime,
``0 <= k <= n``), or every position fails.  So an opening about an algebra that
does not exist fails replay, and so does an opening that records another
position than its own, or a step that records other names than its check's
keyword parameters, the same name twice, a value that is not an ``int``, or
anything but (name, value) pairs.  Decoding reads integers only from
canonical decimal strings, as :meth:`ProofTrace.to_json_obj` writes them,
parsing each one once.  Every rule check is closed form, so replaying the
trace of level ``k`` and exponent ``n`` takes time linear in ``n - k``.  A
check builds a power only after the bit length of a recorded value allows
it, so a decoded trace costs time in the size of its encoding, however large
the exponents it names.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

from ._record import Record, set_field
from .errors import DomainError
from .motive import DivisionContext
from .qpoly import _int_from_json
from .severi_brauer import SBVariety

__all__ = [
    "Rule",
    "RULE_CATALOG",
    "ProofStep",
    "ProofTrace",
    "TypeBound",
    "type_bound",
    "IndecomposabilityStatus",
    "RigidityStatus",
    "Judgment",
    "indecomposability_judgment",
    "rigidity_judgment",
]

Conditions = Mapping[str, int]


class Rule(Record):
    """A named inference rule, one row of :data:`RULE_CATALOG`.

    ``citation`` is the rule's statement followed by its source in brackets.
    Each callable takes a position ``(p, n, k, bound)``: the variety
    ``(p, n, k)`` with ``n`` the position's exponent, and the type bound.
    ``record(p, n, k, bound)`` is what a step records there, in encoding
    order: the opening level bound records its position, every later step
    only what its position does not fix.  ``check(p, n, k, bound, **c)``
    re-evaluates the recorded side conditions ``c`` at the position; it is
    what :meth:`ProofTrace.replay` runs, and replay never calls ``record``.
    Its keyword-only parameters are the names a step records (the level
    bound's are its position, which it takes as ``*at``); a step recording
    another name, one twice, or a value that is not an ``int`` fails replay
    unchecked.  A check is meaningful only at a position where the derivation
    places the rule and about a variety the engine builds, and tests only what
    the position leaves open; a rule its position decides accepts anything.
    ``template(c, p, n, k, bound)`` states the conclusion a step draws from
    the same values, never formatting a power.
    """

    rule_id: str
    citation: str
    record: Callable[[int, int, int, int], dict[str, int]]
    check: Callable[..., bool]
    template: Callable[[Conditions, int, int, int, int], str]


def _power_fits(value: int, exponent: int) -> bool:
    """Whether ``2**exponent`` can be at most ``|value|``, read from the bit
    length before the power is built.  Guarding each power with a recorded
    value keeps replay cost bounded by the size of the encoding."""
    return exponent < value.bit_length()


def _check_function_field_split(p: int, n: int, k: int, bound: int, *, degree: int, split_degree: int,
                                term_count: int, upper_twist: int, lower_twist: int) -> bool:
    if not _power_fits(lower_twist, n + k - 1):
        return False
    return (
        degree == 1 << n
        and split_degree == 1 << (n - 1)
        and term_count == (1 << k) + 1
        and upper_twist == 0
        and lower_twist == 1 << (n + k - 1)
    )


def _check_halved_endpoints(p: int, n: int, k: int, bound: int, *, upper_twist: int, lower_twist: int) -> bool:
    # the excluded level is k - 1
    if not _power_fits(lower_twist, n + k - 2):
        return False
    return upper_twist == 0 and lower_twist == 1 << (n + k - 2)


def _check_valuation_case_split(p: int, n: int, k: int, bound: int, *, required_level: int,
                                candidate_0_i: int, candidate_0_j: int, candidate_1_i: int, candidate_1_j: int,
                                candidate_2_i: int, candidate_2_j: int) -> bool:
    if required_level != k - 1:
        return False
    recorded = {(candidate_0_i, candidate_0_j), (candidate_1_i, candidate_1_j), (candidate_2_i, candidate_2_j)}
    if not _power_fits(max(max(pair) for pair in recorded), k):
        return False
    # For i + j = 2^k, 2^(k-1) divides gcd(i, j) exactly when it divides i,
    # and gcd(0, m) = m; k < n keeps every i in [0, 2^k] within the half
    # degree 2^(n-1), so the candidates are i = 0, 2^(k-1) and 2^k.
    m, step = 1 << k, 1 << (k - 1)
    return recorded == {(0, m), (step, step), (m, 0)}


def _check_dimension_obstruction(p: int, n: int, k: int, bound: int, *, product_dim: int, endpoint_dim: int) -> bool:
    if not _power_fits(endpoint_dim, n + k - 2):
        return False
    # product_dim < endpoint_dim follows from these, as 2^(2k-1) > 2^(2k-2)
    return (
        product_dim == (1 << (n + k - 1)) - (1 << (2 * k - 1))
        and endpoint_dim == (1 << (n + k - 1)) - (1 << (2 * k - 2))
    )


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
            "k - 1. [theory of upper motives]",
            lambda p, n, k, bound: {"p": p, "n": n, "k": k, "bound": bound},
            lambda *at, p, n, k, bound: at == (p, n, k, bound),
            lambda c, p, n, k, bound: f"the level-{k} variety of the degree-{p}^{n} algebra is of type {bound}",
        ),
        Rule(
            "point-base",
            "The variety of ideals of full reduced dimension is a single "
            "rational point whose motive is the Tate unit; no summand of "
            "positive level can occur, so the induction starts for free. "
            "[geometry of ideal varieties]",
            lambda p, n, k, bound: {"variety_dim": 0},
            # p^k * (p^n - p^k) vanishes exactly when k = n, where the point base sits
            lambda p, n, k, bound, *, variety_dim: variety_dim == 0,
            lambda c, p, n, k, bound: (
                f"at degree {p}^{n} the level-{k} variety is a rational point; "
                f"no twist of the level-{k - 1} upper motive occurs"
            ),
        ),
        Rule(
            "function-field-split",
            "Over the function field of the half-degree ideal variety, the "
            "motive of the level-k variety splits into the products "
            "M(SB_i(C)) x M(SB_j(C)) twisted by i(2^(n-1) - j), over all "
            "i + j = 2^k, where C is the Brauer-equivalent division algebra "
            "of degree 2^(n-1). [function-field splitting of twisted flag varieties]",
            lambda p, n, k, bound: {
                "degree": 1 << n, "split_degree": 1 << (n - 1),
                "term_count": (1 << k) + 1, "upper_twist": 0, "lower_twist": 1 << (n + k - 1),
            },
            _check_function_field_split,
            lambda c, p, n, k, bound: (
                f"the motive of the level-{k} variety of the degree-{p}^{n} "
                f"algebra splits over the half-degree function field into "
                f"{c['term_count']} twisted products"
            ),
        ),
        Rule(
            "halved-endpoints",
            "If a Tate twist of the level-l upper motive survives the "
            "function-field restriction, the restricted motive contains the "
            "level-l upper motive of the half-degree algebra twice: untwisted "
            "and twisted by 2^(n+l-1). [endpoint summands of the split decomposition]",
            lambda p, n, k, bound: {"upper_twist": 0, "lower_twist": 1 << (n + k - 2)},
            _check_halved_endpoints,
            lambda c, p, n, k, bound: (
                f"a surviving twist of the level-{k - 1} upper motive would contain the "
                f"half-degree level-{k - 1} upper motive untwisted and twisted by 2^{n + k - 2}"
            ),
        ),
        Rule(
            "valuation-case-split",
            "Every indecomposable summand of M(SB_i(C) x SB_j(C)) is a Tate "
            "twist of an upper motive of level at most v_2(gcd(i, j)); by "
            "Krull-Schmidt uniqueness a level-(k-1) summand must sit inside a "
            "factor whose pair (i, j) has 2-adic valuation at least k - 1. "
            "[theory of upper motives; Krull-Schmidt uniqueness]",
            lambda p, n, k, bound: {
                "required_level": k - 1,
                "candidate_0_i": 1 << k, "candidate_0_j": 0, "candidate_1_i": 0, "candidate_1_j": 1 << k,
                "candidate_2_i": 1 << (k - 1), "candidate_2_j": 1 << (k - 1),
            },
            _check_valuation_case_split,
            lambda c, p, n, k, bound: (
                f"only the factors indexed by (2^{k}, 0), (0, 2^{k}) and "
                f"(2^{k - 1}, 2^{k - 1}) can carry a level-{c['required_level']} summand; "
                f"the first two are the level-{k} motive of the half-degree "
                f"algebra, excluded by the induction hypothesis above"
            ),
        ),
        Rule(
            "dimension-obstruction",
            "The two endpoint copies of the level-(k-1) upper motive span "
            "dimension 2^(n+k-1) - 2^(2k-2), strictly more than the dimension "
            "2^(n+k-1) - 2^(2k-1) of the only remaining candidate factor "
            "SB_{2^(k-1)}(C) x SB_{2^(k-1)}(C); the surviving twist cannot "
            "exist, so the variety is of type k - 2. [dimension count]",
            lambda p, n, k, bound: {"product_dim": (1 << (n + k - 1)) - (1 << (2 * k - 1)),
                                    "endpoint_dim": (1 << (n + k - 1)) - (1 << (2 * k - 2))},
            _check_dimension_obstruction,
            lambda c, p, n, k, bound: (
                f"the remaining factor has dimension {c['product_dim']} < "
                f"{c['endpoint_dim']}; no twist of the level-{k - 1} upper motive "
                f"occurs at degree {p}^{n}, so the variety is of type {k - 2}"
            ),
        ),
        Rule(
            "rank-one-upper",
            "For a variety of type -1 every indecomposable summand is the "
            "upper motive; the degree-zero Chow group has rank one, so there "
            "is exactly one summand and the motive is indecomposable. [theory of upper motives]",
            lambda p, n, k, bound: {"ch0_rank": 1},
            lambda p, n, k, bound, *, ch0_rank: bound <= -1 and ch0_rank == 1,
            lambda c, p, n, k, bound: (
                "type -1 leaves only the upper motive, and the rank-one degree-zero "
                "Chow group allows a single summand: the motive is indecomposable"
            ),
        ),
        Rule(
            "rational-cycle-persistence",
            "While the algebra stays division under a field extension, every "
            "extension-rational cycle on the product of the classical variety "
            "with the level-k variety is already rational over the base; the "
            "count of rational classes depends only on (p, n, k). "
            "[rationality of cycles on products with the classical variety]",
            lambda p, n, k, bound: {},
            lambda p, n, k, bound: True,
            lambda c, p, n, k, bound: (
                "rational cycle counts on the product with the classical variety "
                "are unchanged by division-preserving extensions"
            ),
        ),
        Rule(
            "classical-summand-exclusion",
            "For 0 < k <= n the level-k upper motive acquires no direct "
            "summand isomorphic to a Tate twist of the motive of the "
            "classical Severi-Brauer variety under a division-preserving "
            "extension. [rigidity of classical summands]",
            lambda p, n, k, bound: {},
            lambda p, n, k, bound: True,
            lambda c, p, n, k, bound: (
                "no twist of the classical variety's motive enters the upper "
                "motive under a division-preserving extension"
            ),
        ),
        Rule(
            "classical-base",
            "The motive of the classical Severi-Brauer variety of a division "
            "algebra is indecomposable and stays indecomposable under every "
            "division-preserving extension. [classical Severi-Brauer rigidity]",
            lambda p, n, k, bound: {},
            lambda p, n, k, bound: True,
            lambda c, p, n, k, bound: (
                "the variety is the classical Severi-Brauer variety itself; "
                "its motive stays indecomposable"
            ),
        ),
        Rule(
            "type-zero-transfer",
            "If the variety is of type at most 0 over every division-"
            "preserving extension of the base field, its motivic "
            "decomposition lifts: the indecomposable summands over the "
            "extension are defined over the base.  The derived bound depends "
            "only on (p, n, k), which such extensions preserve. [type-zero transfer principle]",
            lambda p, n, k, bound: {},
            lambda p, n, k, bound: bound <= 0,
            lambda c, p, n, k, bound: (
                f"the derived bound {bound} <= 0 holds over every "
                "division-preserving extension; motivic decompositions lift"
            ),
        ),
    )
}


class ProofStep(Record):
    """One applied rule and its recorded side conditions.

    The rule id must name a catalog rule.  A step holds nothing else: its
    citation is the catalog's, and its conclusion is rendered from the side
    conditions at its position by :meth:`ProofTrace.render_text`; neither is
    encoded.  A step is checked and rendered only at a position of a
    derivation, which fixes its variety, exponent and bound.  Its side
    conditions are held as a tuple of what they iterate over; ones that are
    not iterable raise :class:`DomainError`.
    """

    rule_id: str
    side_conditions: tuple[tuple[str, int], ...]

    def __init__(self, rule_id: str, side_conditions: Iterable[tuple[str, int]]) -> None:
        if rule_id not in RULE_CATALOG:
            raise DomainError(f"unknown rule id: {rule_id!r}")
        try:  # held as a tuple, so a step built from a list equals and hashes as the tuple-built one
            side_conditions = tuple(side_conditions)
        except TypeError:
            raise DomainError(f"not a sequence of side conditions: {side_conditions!r}") from None
        set_field(self, "rule_id", rule_id)
        set_field(self, "side_conditions", side_conditions)

    @property
    def citation(self) -> str:
        return RULE_CATALOG[self.rule_id].citation

    def conditions(self) -> dict[str, int]:
        return dict(self.side_conditions)


# The type of every recorded value: a str, a float or a bool fails replay.
_INT_TYPE = frozenset((int,))


def _keyword_only(check: Callable[..., bool]) -> frozenset[str]:
    """The names ``check`` takes as keyword-only parameters, read from its code."""
    code = check.__code__
    return frozenset(code.co_varnames[code.co_argcount:code.co_argcount + code.co_kwonlyargcount])


# Each rule's check, and the names a step of the rule records: its keyword-only parameters.
_CHECKS = {rule_id: (rule.check, _keyword_only(rule.check)) for rule_id, rule in RULE_CATALOG.items()}
# Each such name as the checks' own string, so a decoded name meets its parameter by identity.
_parameter_name = {name: name for _, names in _CHECKS.values() for name in names}.get


_STEP_KEYS = frozenset(("rule_id", "conditions"))
_RUNG = ("function-field-split", "halved-endpoints", "valuation-case-split", "dimension-obstruction")


def _derivation(p: int, n: int, k: int) -> Iterator[tuple[str, tuple[int, int, int, int]]]:
    """The rule id and position ``(p, m, k, bound)`` of each step of the type
    bound's derivation about the level-``k`` variety of the degree-``p^n``
    algebra, ``m`` the step's exponent; a judgment's :func:`_closing` follows it.

    The level bound opens it at ``(p, n, k, k - 1)``.  At ``p = 2`` and
    ``k >= 1`` the point base and one ``_RUNG`` per exponent ``k+1..n``
    follow, and the bound is ``k - 2`` from there on.  Only rule ids and
    positions are fixed here, never side-condition values, so the rule checks
    stay independent of the builders.  Lazy, so a consumer pays for the
    positions it reads.
    """
    yield "level-bound", (p, n, k, k - 1)
    if p == 2 and 1 <= k <= n:
        yield "point-base", (p, k, k, k - 2)
        for m in range(k + 1, n + 1):
            position = (p, m, k, k - 2)
            for rule in _RUNG:
                yield rule, position


def _closing(p: int, n: int, k: int, bound: int, first_rule: str) -> Iterator[tuple[str, tuple[int, int, int, int]]]:
    """The steps of the closing that ``first_rule`` names after :func:`_derivation`, all at
    the position ``(p, n, k, bound)`` of the derived ``bound``; none for a rule that opens no closing."""
    position = (p, n, k, bound)
    if first_rule in ("rank-one-upper", "rational-cycle-persistence"):
        yield first_rule, position
    if first_rule == "rational-cycle-persistence":
        yield ("classical-summand-exclusion" if k >= 1 else "classical-base"), position
        yield "type-zero-transfer", position


def _placed(steps: tuple[ProofStep, ...], p: int, n: int, k: int) -> Iterator[tuple[str, tuple[int, int, int, int]]]:
    """The rule and position of each of ``steps`` in the derivation about
    ``(p, n, k)``: :func:`_derivation`, then the :func:`_closing` the first
    step past it names.  A step past the derivation's end gets the rule
    ``""``.  One more item follows the steps when the derivation goes on past
    them."""
    positions, closing = _derivation(p, n, k), None
    for step in steps:
        placed = next(positions, None)
        if placed is None and closing is None:  # the type bound's positions are done; the last holds its bound
            positions = closing = _closing(p, n, k, position[3], step.rule_id)
            placed = next(positions, None)
        rule, position = placed or ("", position)
        yield rule, position
    if next(positions, None):
        yield "", ()


def _named(steps: tuple[ProofStep, ...]) -> tuple[int, int, int] | None:
    """The ``(p, n, k)`` the opening level bound of ``steps`` records, or
    None when ``steps`` open with no level bound recording an ``int`` for
    each that together name a variety the engine builds.  The one place
    replay checks a variety: a given one is already valid."""
    if not steps or steps[0].rule_id != "level-bound":
        return None
    try:  # a hand-built opening may record no (name, value) pairs; DomainError is a ValueError
        opening = steps[0].conditions()
        named = opening.get("p"), opening.get("n"), opening.get("k")
        SBVariety(DivisionContext(named[0], named[1]), named[2])  # p prime and 0 <= k <= n
    except (TypeError, ValueError):
        return None
    return named if _INT_TYPE.issuperset(map(type, named)) else None


class ProofTrace(Record):
    """Ordered, self-contained derivation; its steps are held as a tuple."""

    steps: tuple[ProofStep, ...]

    def __init__(self, steps: Iterable[ProofStep] = ()) -> None:
        set_field(self, "steps", tuple(steps))

    def __iter__(self) -> Iterator[ProofStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, variety: SBVariety | None = None) -> bool:
        """True when no position fails (:meth:`failing_steps`)."""
        return not self.failing_steps(variety)

    def failing_steps(self, variety: SBVariety | None = None) -> tuple[int, ...]:
        """Positions where replay fails: a step whose rule is not the one its
        position calls for, or whose side conditions do not re-check at that
        position (:func:`_placed`); and ``len(self)`` when the derivation
        stops short, so 0 for an empty trace.  The opening level bound
        records its position ``(p, n, k, bound)`` and fails unless it records
        exactly that; a later step that records any of ``p``, ``n``, ``k``,
        ``level`` or ``bound`` fails.  The trace is about ``variety`` when
        one is given, so an opening that names another ``(p, n, k)`` fails;
        otherwise it is about the variety its opening names, and a trace
        whose opening ``p`` or ``n`` was edited to another variety with a
        derivation of the same shape is a sound trace about that variety.
        An opening whose ``p``, ``n`` or ``k`` is not an ``int``, or that
        names no variety the engine builds, fails every position, and
        nothing more."""
        steps = self.steps
        about = (variety.context.p, variety.context.n, variety.level) if variety is not None else _named(steps)
        if about is None:
            return tuple(range(len(steps))) or (0,)
        placed = _placed(steps, *about)
        failing = []
        for i, (step, (rule, position)) in enumerate(zip(steps, placed)):
            if step.rule_id == rule:
                check, names = _CHECKS[rule]
                recorded = step.side_conditions
                try:  # as many names as the check's, so each is distinct if they are its names
                    c = dict(recorded) if len(recorded) == len(names) else None
                except (TypeError, ValueError):  # a hand-built step that records no (name, value) pairs
                    c = None
                if (c is not None and c.keys() == names
                        and _INT_TYPE.issuperset(map(type, c.values())) and check(*position, **c)):
                    continue
            failing.append(i)
        return tuple(failing) + ((len(steps),) if next(placed, None) else ())

    def render_text(self) -> str:
        """Each step's rule, side conditions, citation and the conclusion
        its rule draws at its position in the derivation about the variety
        the opening names.  Only a trace that replays renders; another
        raises :class:`DomainError`."""
        failing = self.failing_steps()
        if failing:
            raise DomainError(f"the trace fails replay at positions {list(failing)}, so it renders no conclusions")
        lines, placed = [], _placed(self.steps, *_named(self.steps))
        for index, (step, (_, position)) in enumerate(zip(self.steps, placed), start=1):
            conds = "".join(f" {name}={value}" for name, value in step.side_conditions)
            lines.append(f"step {index}: {step.rule_id}")
            lines.append(f"  conditions:{conds}")
            lines.append(f"  conclusion: {RULE_CATALOG[step.rule_id].template(step.conditions(), *position)}")
            lines.append(f"  citation: {step.citation}")
        return "\n".join(lines)

    def to_json_obj(self) -> list[dict]:
        return [
            {"rule_id": step.rule_id, "conditions": {name: str(value) for name, value in step.side_conditions}}
            for step in self.steps
        ]

    @classmethod
    def from_json_obj(cls, data: list[Mapping]) -> "ProofTrace":
        """Decode a trace written by :meth:`to_json_obj`: a list of steps,
        each with exactly the keys ``rule_id`` and ``conditions``.  Another
        top level, a step with other keys (such as a ``citation`` or a
        ``conclusion``), an unknown rule id, or a side condition that is not
        a canonical decimal string raises :class:`DomainError`.  Each
        distinct string is parsed once per call."""
        if not isinstance(data, list):
            raise DomainError(f"malformed trace encoding: expected a list, got {type(data).__name__}")
        steps = []
        known: dict[str, int] = {}  # each canonical string this call has decoded
        for entry in data:
            try:
                if entry.keys() != _STEP_KEYS:
                    raise ValueError(f"step keys {list(entry)} are not ['rule_id', 'conditions']")
                conditions = tuple([
                    (_parameter_name(name, name), known[value] if value.__class__ is str and value in known
                     else known.setdefault(value, _int_from_json(value)))
                    for name, value in entry["conditions"].items()
                ])
                steps.append(ProofStep(entry["rule_id"], conditions))
            except (AttributeError, TypeError, ValueError) as exc:
                raise DomainError(f"malformed trace encoding: {exc}") from exc
        return cls(steps)


class IndecomposabilityStatus(Enum):
    INDECOMPOSABLE = "indecomposable"
    UNKNOWN = "unknown"


class RigidityStatus(Enum):
    CONJECTURE_HOLDS = "conjecture-holds"
    UNKNOWN = "unknown"


class TypeBound(Record):
    """A derived upper bound on the type of a variety, with its derivation.

    ``bound`` is at most ``level - 1`` (the level bound always applies) and
    at least -1 (there are no upper motives of negative level to exclude).
    Both verdicts are read off the bound; the judgments add the closing
    steps of their derivations.  The trace is recorded when first read, or
    is the one held for the last variety whose type bound trace was read.
    """

    variety: SBVariety
    bound: int

    @cached_property
    def trace(self) -> ProofTrace:
        return _prefix(self.variety.context.p, self.variety.context.n, self.variety.level)

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


def _record(positions: Iterator[tuple[str, tuple[int, int, int, int]]]) -> tuple[ProofStep, ...]:
    """Each position recorded from its catalog row (:attr:`Rule.record`)."""
    return tuple([ProofStep(rule, tuple(RULE_CATALOG[rule].record(*position).items())) for rule, position in positions])


@lru_cache(maxsize=1)
def _prefix(p: int, n: int, k: int) -> ProofTrace:
    """The type bound's trace about ``(p, n, k)``, which every trace about it begins
    with; only the last variety's is held, as every caller reads one variety's traces in turn."""
    return ProofTrace(_record(_derivation(p, n, k)))


def type_bound(variety: SBVariety) -> TypeBound:
    """Best upper bound on the type of the variety the rules can derive.

    The level bound gives ``level - 1`` for every prime.  For ``p = 2`` and
    ``level >= 1`` the halving induction improves it to ``level - 2``, which
    is at least -1.  It is read off the derivation, which is not recorded.
    """
    # Each rung keeps the bound of the point base before it, so the first
    # two positions (the level bound, then the point base if any) fix it.
    *_, (_, (_, _, _, bound)) = islice(_derivation(variety.context.p, variety.context.n, variety.level), 2)
    return TypeBound(variety, bound)


_CLOSING = {
    IndecomposabilityStatus.INDECOMPOSABLE: "rank-one-upper",
    RigidityStatus.CONJECTURE_HOLDS: "rational-cycle-persistence",
}


class Judgment(Record):
    """A verdict on a variety, the type bound it rests on, and its derivation:
    the type bound's, then the closing whose first rule ``_CLOSING`` names for
    the status, if any, recorded at ``bound``.  The trace is recorded when
    first read, after the steps of the type bound's trace, which it shares
    with the other traces about the last variety whose trace was read."""

    variety: SBVariety
    status: IndecomposabilityStatus | RigidityStatus
    bound: int

    @cached_property
    def trace(self) -> ProofTrace:
        p, n, k = self.variety.context.p, self.variety.context.n, self.variety.level
        prefix, closing = _prefix(p, n, k), _CLOSING.get(self.status)
        if closing is None:
            return prefix
        return ProofTrace(prefix.steps + _record(_closing(p, n, k, self.bound, closing)))


def indecomposability_judgment(variety: SBVariety) -> Judgment:
    """Indecomposable when the derived type bound reaches -1; never the
    opposite claim, since the calculus only proves upper bounds."""
    derived = type_bound(variety)
    return Judgment(variety, derived.indecomposability, derived.bound)


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
    return Judgment(variety, derived.rigidity, derived.bound)
