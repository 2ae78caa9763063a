import inspect
import json
import time
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sbmotives import (
    DivisionContext,
    DomainError,
    IndecomposabilityStatus,
    ProofStep,
    ProofTrace,
    RigidityStatus,
    Rule,
    RULE_CATALOG,
    SBVariety,
    indecomposability_judgment,
    rigidity_judgment,
    type_bound,
)
from sbmotives import type_calculus
from sbmotives.type_calculus import _RUNG
from sbmotives.verify import _small_varieties


def variety(p, n, k):
    return SBVariety(DivisionContext(p, n), k)


_DERIVATION = type_calculus._derivation  # unwrapped: the (rule_id, position) pairs a walk should draw


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts with no type bound trace held: one held from an
    earlier test would serve its steps without drawing or recording them."""
    type_calculus._prefix.cache_clear()


@pytest.fixture()
def drawn(monkeypatch):
    """The positions drawn from ``_derivation`` while the test runs, in order."""
    positions = []

    def counting(*args):
        for position in _DERIVATION(*args):
            positions.append(position)
            yield position

    monkeypatch.setattr(type_calculus, "_derivation", counting)
    return positions


_DERIVES = (type_bound, indecomposability_judgment, rigidity_judgment)


def _judged_traces(primes, max_n):
    """``(variety, trace)`` for the three derivations about each variety."""
    for p in primes:
        for n in range(max_n + 1):
            for k in range(n + 1):
                v = variety(p, n, k)
                for derive in _DERIVES:
                    yield v, derive(v).trace


def _honest_traces(primes, max_n):
    for _, trace in _judged_traces(primes, max_n):
        yield trace


def _obstruction(n, k):
    """The dimensions the rung at exponent ``n`` records at level ``k``."""
    return RULE_CATALOG["dimension-obstruction"].record(2, n, k, k - 2)


class TestDimensionObstruction:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 1, (2, 3)), (3, 2, (8, 12)), (5, 1, (30, 31))],
    )
    def test_printed_values(self, n, k, expected):
        assert _obstruction(n, k) == dict(zip(("product_dim", "endpoint_dim"), expected))

    def test_holds_over_full_range(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                result = _obstruction(n, k)
                assert result["product_dim"] < result["endpoint_dim"]
                assert result["product_dim"] == 2 ** (n + k - 1) - 2 ** (2 * k - 1)
                assert result["endpoint_dim"] == 2 ** (n + k - 1) - 2 ** (2 * k - 2)


class TestTypeBound:
    def test_two_primary_improves_to_k_minus_two(self):
        for n in range(0, 9):
            for k in range(n + 1):
                derived = type_bound(variety(2, n, k))
                expected = max(k - 2, -1) if k >= 1 else -1
                assert derived.bound == expected, (n, k)

    def test_odd_primes_keep_level_bound(self):
        for p in (3, 5):
            for n in range(0, 9):
                for k in range(n + 1):
                    assert type_bound(variety(p, n, k)).bound == k - 1

    def test_bound_stays_in_range(self):
        for p in (2, 3):
            for n in range(0, 7):
                for k in range(n + 1):
                    derived = type_bound(variety(p, n, k))
                    assert -1 <= derived.bound <= max(k - 1, -1)

    def test_bound_reads_at_most_two_positions(self, drawn):
        assert type_bound(variety(2, 10**6, 1)).bound == -1
        assert len(drawn) <= 2

    def test_trace_ends_with_the_obstruction_ladder(self):
        # the exponent of each obstruction is its position's, and its
        # recorded dimensions are the ones at that exponent
        trace = type_bound(variety(2, 3, 1)).trace
        positions = list(_DERIVATION(2, 3, 1))
        assert [s.rule_id for s in trace] == [rule for rule, _ in positions]
        assert [m for rule, (_, m, _, _) in positions if rule == "dimension-obstruction"] == [2, 3]
        obstruction_steps = [s for s in trace if s.rule_id == "dimension-obstruction"]
        assert [s.conditions() for s in obstruction_steps] == [
            {"product_dim": 2, "endpoint_dim": 3},
            {"product_dim": 6, "endpoint_dim": 7},
        ]
        assert trace.steps[-1].rule_id == "dimension-obstruction" and positions[-1][1] == (2, 3, 1, -1)

    def test_point_case_has_base_only_trace(self):
        trace = type_bound(variety(2, 4, 4)).trace
        assert [s.rule_id for s in trace] == ["level-bound", "point-base"]

    def test_odd_prime_trace_is_level_bound_only(self):
        trace = type_bound(variety(3, 2, 1)).trace
        assert [s.rule_id for s in trace] == ["level-bound"]


class TestTraceReplay:
    def test_all_emitted_traces_replay(self):
        for trace in _honest_traces((2, 3, 5), 8):
            assert trace.replay()

    def test_tampered_side_condition_fails_replay(self):
        trace = type_bound(variety(2, 3, 1)).trace
        last = trace.steps[-1]
        forged = ProofStep(
            rule_id=last.rule_id,
            side_conditions=tuple(
                (name, value + 1 if name == "product_dim" else value)
                for name, value in last.side_conditions
            ),
        )
        tampered = ProofTrace(trace.steps[:-1] + (forged,))
        assert not tampered.replay()
        assert tampered.failing_steps() == (len(trace.steps) - 1,)

    def test_unknown_rule_fails_replay(self):
        with pytest.raises(DomainError):
            ProofStep("no-such-rule", (("x", 1),))

    def test_missing_condition_fails_replay(self):
        step = ProofStep("level-bound", ())
        assert not ProofTrace((step,)).replay()
        assert not ProofTrace((step,)).replay(variety(3, 2, 1))

    def test_empty_trace_fails_replay(self):
        # a trace that does not open with a level bound fails
        assert not ProofTrace().replay()
        assert not ProofTrace.from_json_obj([]).replay()
        # the opening level bound is missing at position 0
        assert ProofTrace().failing_steps() == (0,)

    @pytest.mark.parametrize("pnk", [(2, 6, 2), (2, 3, 1), (2, 4, 4), (2, 5, 0), (3, 4, 1)], ids=str)
    def test_replay_draws_each_position_once(self, drawn, pnk):
        v = variety(*pnk)
        for derive in _DERIVES:
            trace = derive(v).trace
            for about in (None, v):
                drawn.clear()
                assert trace.replay(about)
                assert drawn == list(_DERIVATION(*pnk))

    def test_citations_come_from_the_catalog(self):
        for v in (variety(2, 4, 2), variety(5, 2, 1)):
            for step in rigidity_judgment(v).trace:
                assert step.citation == RULE_CATALOG[step.rule_id].citation


def _rewritten_to_p(trace, p):
    """``trace`` with its opening's ``p``, the only one it records, set to
    ``p`` in its encoding, which holds no text, so only the side conditions
    can fail."""
    encoded = trace.to_json_obj()
    encoded[0]["conditions"]["p"] = str(p)
    rewritten = ProofTrace.from_json_obj(encoded)
    assert rewritten.to_json_obj() == encoded
    return rewritten


def _position_of(rule_id):
    """``(variety, trace, i)``: the first step of ``rule_id`` in the judgments'
    traces at p = 2, n = 3."""
    for k in (0, 1):
        v = variety(2, 3, k)
        for judgment in (indecomposability_judgment, rigidity_judgment):
            trace = judgment(v).trace
            for i, step in enumerate(trace):
                if step.rule_id == rule_id:
                    return v, trace, i
    raise AssertionError(f"no step of {rule_id}")


# The names of a position's values, and the names no step after the opening
# may record: those and the level k - 1 the halving induction excludes.
_POSITION = ("p", "n", "k", "bound")
_COORDINATES = _POSITION + ("level",)


def _fixed_at(trace, i, about):
    """The position ``(p, n, k, bound)`` of step ``i`` in the derivation
    about ``about``."""
    return next(islice(type_calculus._placed(trace.steps, *about), i, None))[1]


def _reads_at(v, trace, i):
    """``(recorded, position)``: what the check of step ``i`` of ``trace``
    reads at its place in the derivation about ``v``, the step's recorded
    side conditions and its position."""
    about = (v.context.p, v.context.n, v.level)
    return trace.steps[i].conditions(), _fixed_at(trace, i, about)


def _conclusions(trace):
    """The conclusion lines ``trace.render_text()`` prints, in order."""
    prefix = "  conclusion: "
    return [line[len(prefix):] for line in trace.render_text().split("\n") if line.startswith(prefix)]


class TestNamedVariety:
    """Replay with no variety given accepts only an opening that names a
    variety the engine itself would build, p prime and 0 <= k <= n, and
    fails every position of any other trace.  The rung rules of the halving
    induction sit only at p = 2, so at an odd prime each fails by its rule."""

    @pytest.mark.parametrize("rule_id", list(RULE_CATALOG))
    def test_step_at_a_composite_fails_replay(self, rule_id):
        # the trace whose opening names p = 6 names no variety, so it fails
        # at every position, the step's among them; against its own variety
        # its opening fails
        v, trace, i = _position_of(rule_id)
        recorded, position = _reads_at(v, trace, i)
        assert RULE_CATALOG[rule_id].check(*position, **recorded)
        assert i in _rewritten_to_p(trace, 6).failing_steps()
        assert not _rewritten_to_p(trace, 6).replay(v)

    @pytest.mark.parametrize("rule_id", _RUNG)
    def test_rung_step_at_an_odd_prime_fails_replay(self, rule_id):
        v, trace, i = _position_of(rule_id)
        # at p = 3 the derivation holds no rung, so every rung position fails
        odd = _rewritten_to_p(trace, 3)
        assert i in odd.failing_steps() and not odd.replay(variety(3, 3, v.level))

    def test_rigidity_trace_at_a_composite_degree_fails_replay(self):
        trace = rigidity_judgment(variety(3, 2, 0)).trace
        assert trace.replay()
        assert not _rewritten_to_p(trace, 6).replay()

    @pytest.mark.parametrize("p", [4, 9])
    def test_one_step_level_bound_at_a_prime_power_fails_replay(self, p):
        trace = type_bound(variety(3, 2, 1)).trace
        assert len(trace) == 1 and trace.replay()
        assert not _rewritten_to_p(trace, p).replay()

    def test_opening_alone_at_a_composite_fails_replay(self):
        assert not ProofTrace((ProofStep("level-bound", (("p", 6), ("n", 2), ("k", 0), ("bound", -1))),)).replay()
        assert ProofTrace((ProofStep("level-bound", (("p", 5), ("n", 2), ("k", 0), ("bound", -1))),)).replay()

    def test_variety_swap_fails_replay_against_the_named_variety(self):
        # the one-step trace of (3, 2, 1) rewritten to a sound trace about
        # (5, 3, 1): it replays on its own, but not as a trace about (3, 2, 1).
        # So does each edit of one recorded value that still names a variety:
        # against (3, 2, 1) the opening fails, and on its own the trace
        # replays exactly when its bound is k - 1 of the variety it names.
        for edit in (dict(p="5", n="3"), dict(p="5"), dict(n="3"), dict(k="2"), dict(k="0"), dict(bound="-1")):
            encoded = type_bound(variety(3, 2, 1)).trace.to_json_obj()
            assert encoded == [{"rule_id": "level-bound", "conditions": {"p": "3", "n": "2", "k": "1", "bound": "0"}}]
            encoded[0]["conditions"].update(edit)
            swapped = ProofTrace.from_json_obj(encoded)
            p, n, k, bound = (int(value) for value in encoded[0]["conditions"].values())
            sound = bound == k - 1
            assert swapped.replay() == sound, edit
            assert not swapped.replay(SBVariety(DivisionContext(3, 2), 1)), edit
            assert swapped.failing_steps(variety(3, 2, 1)) == (0,), edit
            assert swapped.replay(variety(p, n, k)) == sound, edit

    def test_named_variety_fixes_every_position(self):
        # Against a given variety, each position is checked from that
        # variety's derivation, not from the opening step's.  The ladder of
        # exponents 3 and 4 also starts the one for exponent 5, so only the
        # opening (n = 4) and the closing, where the rung of exponent 5
        # belongs, fail; the rung is then missing at position 13.
        steps = rigidity_judgment(variety(2, 4, 2)).trace.steps
        assert len(steps) == 13
        assert ProofTrace(steps).failing_steps(variety(2, 4, 2)) == ()
        assert ProofTrace(steps).failing_steps(variety(2, 5, 2)) == (0, 10, 11, 12, 13)
        assert ProofTrace().failing_steps(variety(3, 2, 1)) == (0,)


class TestStepConjuncts:
    """Each tamper breaks one conjunct of its rule's check and keeps every
    other one true, so only that conjunct can reject it.  A recorded value is
    tampered in the trace; a value of the step's position is tampered by
    placing the step where the position holds another value.  The opening
    records its position, whose bound is always k - 1, so only its recorded
    bound is tampered."""

    @pytest.mark.parametrize(
        "rule_id, name, tampered",
        [
            pytest.param(rule_id, name, tampered, id=f"{rule_id}-{name}")
            for rule_id, name, tampered in (
                ("valuation-case-split", "required_level", lambda c: c["required_level"] + 1),
                ("function-field-split", "term_count", lambda c: c["term_count"] + 1),
                ("rank-one-upper", "bound", lambda c: 0),
                ("type-zero-transfer", "bound", lambda c: 1),
                ("level-bound", "bound", lambda c: c["k"]),
            )
        ],
    )
    def test_tamper_fails_replay(self, rule_id, name, tampered):
        v, trace, i = _position_of(rule_id)
        recorded, position = _reads_at(v, trace, i)
        check = RULE_CATALOG[rule_id].check
        assert check(*position, **recorded)
        c = {**dict(zip(_POSITION, position)), **recorded}
        value = tampered(c)
        assert value != c[name]
        if name in recorded:
            recorded = {**recorded, name: value}
        else:
            position = tuple(value if coordinate == name else x for coordinate, x in zip(_POSITION, position))
        assert not check(*position, **recorded)
        if name in trace.steps[i].conditions():
            step = trace.steps[i]
            forged = ProofStep(rule_id, tuple((n, value if n == name else x) for n, x in step.side_conditions))
            edited = _with_step(trace, i, forged)
            assert edited.failing_steps(v) == (i,)
            assert i in edited.failing_steps()

    @pytest.mark.parametrize(
        "pnk, closing, failing",
        [
            # rank-one-upper where the derived bound is 0
            ((3, 2, 1), ("rank-one-upper",), (1,)),
            # type-zero-transfer where the derived bound is 1
            ((3, 2, 2), ("rational-cycle-persistence", "classical-summand-exclusion", "type-zero-transfer"), (3,)),
            # classical-summand-exclusion at level 0, where the position calls for the classical base
            ((3, 2, 0), ("rational-cycle-persistence", "classical-summand-exclusion", "type-zero-transfer"), (2,)),
            # the classical base at level 1, where the position calls for the summand exclusion
            ((3, 2, 1), ("rational-cycle-persistence", "classical-base", "type-zero-transfer"), (2,)),
        ],
        ids=["rank-one-upper-bound", "type-zero-transfer-bound", "classical-summand-exclusion-k", "classical-base-k"],
    )
    def test_closing_where_its_position_breaks_a_conjunct_fails_replay(self, pnk, closing, failing):
        # each closing step is sound where the judgments about (2, 3, 1) or
        # (2, 3, 0) put it
        sound = {
            step.rule_id: step
            for v in (variety(2, 3, 1), variety(2, 3, 0))
            for judgment in (indecomposability_judgment, rigidity_judgment)
            for step in judgment(v).trace.steps[len(type_bound(v).trace):]
        }
        steps = type_bound(variety(*pnk)).trace.steps
        forged = ProofTrace(steps + tuple(sound[rule] for rule in closing))
        assert forged.failing_steps() == forged.failing_steps(variety(*pnk)) == failing

    @pytest.mark.parametrize(
        "rule_id, recorded, position",
        [
            pytest.param(rule_id, recorded, position, id=case)
            for case, rule_id, recorded, position in (
                (
                    "dimension-obstruction-endpoint_dim", "dimension-obstruction",
                    dict(product_dim=8, endpoint_dim=13), (2, 3, 2, 0),
                ),
                # n = 2^64 makes 2^n unbuildable: only the bit-length guard
                # keeps the check from raising instead of answering
                (
                    "function-field-split-power", "function-field-split",
                    dict(degree=4, split_degree=2, term_count=3, upper_twist=0, lower_twist=8), (2, 2**64, 1, -1),
                ),
                ("halved-endpoints-power", "halved-endpoints", dict(upper_twist=0, lower_twist=4), (2, 2**64, 2, 0)),
            )
        ],
    )
    def test_guard_alone_rejects(self, rule_id, recorded, position):
        # every other conjunct of the check holds on these values, each at a
        # position where the derivation places a step of that rule
        assert not RULE_CATALOG[rule_id].check(*position, **recorded)

    @pytest.mark.parametrize(
        "rule_id, recorded, position",
        [
            pytest.param(rule_id, recorded, position, id=case)
            for case, rule_id, recorded, position in (
                ("point-base-k-below-n", "point-base", dict(variety_dim=0), (2, 3, 1, -1)),
                ("classical-base-k-positive", "classical-base", {}, (2, 3, 1, -1)),
                (
                    "function-field-split-k-zero", "function-field-split",
                    dict(degree=8, split_degree=4, term_count=2, upper_twist=0, lower_twist=4), (2, 3, 0, -2),
                ),
                # the excluded level k - 1 is 1, n = 3 and -1
                ("halved-endpoints-odd-p", "halved-endpoints", dict(upper_twist=0, lower_twist=8), (3, 3, 2, 0)),
                ("halved-endpoints-level-n", "halved-endpoints", dict(upper_twist=0, lower_twist=32), (2, 3, 4, 2)),
                ("halved-endpoints-level-negative", "halved-endpoints", dict(upper_twist=0, lower_twist=2), (2, 3, 0, -2)),
                (
                    "valuation-case-split-k-n", "valuation-case-split",
                    dict(
                        required_level=2, candidate_0_i=8, candidate_0_j=0,
                        candidate_1_i=0, candidate_1_j=8, candidate_2_i=4, candidate_2_j=4,
                    ),
                    (2, 3, 3, 1),
                ),
                (
                    "dimension-obstruction-k-above-n", "dimension-obstruction",
                    dict(product_dim=-384, endpoint_dim=-128), (2, 3, 5, 3),
                ),
            )
        ],
    )
    def test_step_where_no_derivation_places_its_rule_fails_replay(self, rule_id, recorded, position):
        # the check accepts these values, as it tests nothing its positions
        # fix; but no derivation puts a step of the rule at this position (the
        # point base sits at n = k, the closing at level 0 is the classical
        # base, the rungs sit at p = 2 and 1 <= k < n), so the step fails
        # replay where a trace about (p, n, k) closes with it, and a trace
        # whose opening names no variety fails at every position
        assert RULE_CATALOG[rule_id].check(*position, **recorded)
        p, n, k, _ = position
        step = ProofStep(rule_id, tuple(recorded.items()))
        if k <= n:
            v = variety(p, n, k)
            forged = ProofTrace(type_bound(v).trace.steps + (step,))
            assert forged.failing_steps() == forged.failing_steps(v) == (len(forged) - 1,)
        else:
            forged = ProofTrace.from_json_obj([
                _encoded_step("level-bound", p=p, n=n, k=k, bound=k - 1),
                _encoded_step(rule_id, **recorded),
            ])
            assert forged.failing_steps() == (0, 1)
        assert not forged.replay()

    def test_guard_rejects_at_its_position(self):
        # the guard cases placed in traces: the obstruction of
        # (2, 3, 2) with the endpoint dimension edited, and a rung at
        # exponent 2^64, which only the bit-length guards reject in time
        trace = type_bound(variety(2, 3, 2)).trace
        i = len(trace) - 1
        forged = ProofStep("dimension-obstruction", (("product_dim", 8), ("endpoint_dim", 13)))
        assert trace.steps[i].conditions() == {"product_dim": 8, "endpoint_dim": 12}
        assert _with_step(trace, i, forged).failing_steps() == (i,)
        n = 2**64
        start = time.perf_counter()
        huge = ProofTrace.from_json_obj([
            _encoded_step("level-bound", p=2, n=n, k=n - 1, bound=n - 2),
            _encoded_step("point-base", variety_dim=0),
            _encoded_step("function-field-split", degree=4, split_degree=2, term_count=3, upper_twist=0, lower_twist=8),
            _encoded_step("halved-endpoints", upper_twist=0, lower_twist=4),
        ])
        assert huge.failing_steps() == (2, 3, 4)
        assert time.perf_counter() - start < 1.0

    def test_step_where_the_derivation_places_another_rule_fails_replay(self):
        # the checks test neither p, k nor n, which the derivation fixes:
        # the rungs of (2, 3, 1) fail after the openings of level 0 and of
        # level n, whose derivations hold no rung, and so does the point base
        # at a rung's position; an opening with k above n names no variety
        trace = type_bound(variety(2, 3, 1)).trace
        for k in (0, 3):
            opening = type_bound(variety(2, 3, k)).trace.steps
            forged = ProofTrace(opening + trace.steps[2:6])
            failing = tuple(range(len(opening), len(forged)))
            assert forged.failing_steps() == forged.failing_steps(variety(2, 3, k)) == failing
        assert _with_step(trace, 2, trace.steps[1]).failing_steps() == (2,)
        encoded = trace.to_json_obj()
        encoded[0]["conditions"].update(k="4", bound="3")
        assert ProofTrace.from_json_obj(encoded).failing_steps() == tuple(range(len(encoded)))


def _off_by_one_survivors(bound_to_variety):
    """Every ±1 edit of every encoded side condition of the 189 traces for
    p in 2, 3, 5 and n <= 5 that still replays, as ``(p, n, k, length,
    rule_id, name, delta)``; replay is against the trace's variety when
    ``bound_to_variety``, and against its opening level bound otherwise."""
    survivors = []
    for v, trace in _judged_traces((2, 3, 5), 5):
        encoded = trace.to_json_obj()
        assert ProofTrace.from_json_obj(encoded) == trace
        for entry in encoded:
            conditions = entry["conditions"]
            for name, value in list(conditions.items()):
                for delta in (-1, 1):
                    conditions[name] = str(int(value) + delta)
                    if ProofTrace.from_json_obj(encoded).replay(v if bound_to_variety else None):
                        key = (v.context.p, v.context.n, v.level, len(trace), entry["rule_id"], name, delta)
                        survivors.append(key)
                conditions[name] = value
    return survivors


class TestConclusions:
    """A step's conclusion is the catalog's rendering of its side conditions
    at its position, and its encoding holds no text: a decoded step that
    carries a conclusion is rejected."""

    def test_step_carrying_a_conclusion_fails_to_decode(self):
        trace = indecomposability_judgment(variety(2, 3, 1)).trace
        for i, rendered in enumerate(_conclusions(trace)):
            for conclusion in (rendered, "the motive decomposes into two summands"):
                encoded = trace.to_json_obj()
                encoded[i]["conclusion"] = conclusion
                with pytest.raises(DomainError, match="malformed trace encoding: .*conclusion"):
                    ProofTrace.from_json_obj(encoded)

    def test_every_off_by_one_fails_replay_against_its_variety(self):
        assert _off_by_one_survivors(bound_to_variety=True) == []

    def test_off_by_one_survivors_without_a_variety(self):
        # Only the opening names the variety, so where the type bound's
        # derivation is the opening alone (odd p, or level 0), an edited p
        # or n that still names a variety is a sound trace about that other
        # variety, closing and all: the closing's steps record no coordinate.
        # Every other edit fails even without a variety.
        survivors = _off_by_one_survivors(bound_to_variety=False)
        assert len(survivors) == 285
        assert {(rule_id, name) for *_, rule_id, name, _ in survivors} == {("level-bound", "p"), ("level-bound", "n")}
        # 177 in type bounds, 45 with the rank-one closing, 63 with the transfer closing
        lengths = [length for _, _, _, length, *_ in survivors]
        assert {length: lengths.count(length) for length in lengths} == {1: 177, 2: 45, 4: 63}
        assert all(p != 2 or k == 0 for p, _, k, *_ in survivors)

    def test_building_and_replaying_render_no_text(self, monkeypatch):
        def refuse(conditions):
            raise AssertionError("a conclusion was rendered")

        for rule_id, rule in list(RULE_CATALOG.items()):
            monkeypatch.setitem(RULE_CATALOG, rule_id, Rule(rule.rule_id, rule.citation, rule.record, rule.check, refuse))
        for trace in _honest_traces((2, 3), 4):
            assert trace.replay()

    def test_replay_never_records(self, monkeypatch):
        encoded = [trace.to_json_obj() for trace in _honest_traces((2, 3, 5), 4)]
        v = variety(2, 5, 1)
        trace = rigidity_judgment(v).trace

        def refuse(p, n, k, bound):
            raise AssertionError("side conditions were recorded")

        for rule_id, rule in list(RULE_CATALOG.items()):
            monkeypatch.setitem(RULE_CATALOG, rule_id, Rule(rule.rule_id, rule.citation, refuse, rule.check, rule.template))
        for entries in encoded:
            assert ProofTrace.from_json_obj(entries).replay()
        # nor does it build the variety more than once: a given variety is
        # already built, and only the opening's is checked
        built = []
        init = SBVariety.__init__
        monkeypatch.setattr(SBVariety, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        assert trace.replay(v) and built == []
        assert trace.replay() and len(built) <= 1
        # only the split's check reads lower_twist
        tampered = next(e for e in encoded if any(s["rule_id"] == "function-field-split" for s in e))
        split = next(s for s in tampered if s["rule_id"] == "function-field-split")
        split["conditions"]["lower_twist"] = str(int(split["conditions"]["lower_twist"]) + 1)
        assert not ProofTrace.from_json_obj(tampered).replay()

    def test_bounds_and_verdicts_never_record(self, monkeypatch, run_cli):
        def refuse(p, n, k, bound):
            raise AssertionError("side conditions were recorded")

        for rule_id, rule in list(RULE_CATALOG.items()):
            monkeypatch.setitem(RULE_CATALOG, rule_id, Rule(rule.rule_id, rule.citation, refuse, rule.check, rule.template))
        monkeypatch.delenv("SBMOTIVES_FORMAT", raising=False)
        v = variety(2, 40, 3)
        derived = type_bound(v)
        assert (derived.bound, derived.indecomposability, derived.rigidity) == (
            1, IndecomposabilityStatus.UNKNOWN, RigidityStatus.UNKNOWN,
        )
        for judgment in (indecomposability_judgment(v), rigidity_judgment(v)):
            assert (judgment.bound, judgment.status.value) == (1, "unknown")
        for fmt in ("text", "json", "csv"):
            result = run_cli("type-bound", "--p", "2", "--n", "40", "--k", "3", "--format", fmt)
            assert result.exit_code == 0, (fmt, result.stdout, result.stderr)
        with pytest.raises(AssertionError, match="recorded"):
            derived.trace

    def test_trace_is_recorded_once(self):
        v = variety(2, 5, 2)
        for built in (type_bound(v), indecomposability_judgment(v), rigidity_judgment(v)):
            assert built.trace is built.trace

    def test_closing_conclusions(self):
        rank_one = (
            "type -1 leaves only the upper motive, and the rank-one degree-zero Chow "
            "group allows a single summand: the motive is indecomposable"
        )
        persistence = (
            "rational cycle counts on the product with the classical variety are "
            "unchanged by division-preserving extensions"
        )
        exclusion = (
            "no twist of the classical variety's motive enters the upper motive under "
            "a division-preserving extension"
        )
        base = (
            "the variety is the classical Severi-Brauer variety itself; its motive "
            "stays indecomposable"
        )
        transfer_minus_one = (
            "the derived bound -1 <= 0 holds over every division-preserving "
            "extension; motivic decompositions lift"
        )
        transfer_zero = (
            "the derived bound 0 <= 0 holds over every division-preserving "
            "extension; motivic decompositions lift"
        )
        expected = {
            (2, 3, 1): ([rank_one], [persistence, exclusion, transfer_minus_one]),
            (2, 4, 2): ([], [persistence, exclusion, transfer_zero]),
            (3, 2, 0): ([rank_one], [persistence, base, transfer_minus_one]),
        }
        for (p, n, k), (indecomposable, rigid) in expected.items():
            v = variety(p, n, k)
            start = len(type_bound(v).trace)
            assert _conclusions(indecomposability_judgment(v).trace)[start:] == indecomposable
            assert _conclusions(rigidity_judgment(v).trace)[start:] == rigid

    def test_every_catalog_conclusion_renders(self):
        # the three traces of every (p, n, k) with p in 2, 3 and n <= 3
        # render the conclusion of every catalog rule, the closings' among them
        rendered = {}
        for v, trace in _judged_traces((2, 3), 3):
            lines = trace.render_text().split("\n")
            assert len(lines) == 4 * len(trace)
            for header, conclusion in zip(lines[::4], lines[2::4]):
                rule_id = header.split(": ", 1)[1]
                assert conclusion.startswith("  conclusion: ") and len(conclusion) > len("  conclusion: ")
                rendered.setdefault(rule_id, conclusion)
        assert rendered.keys() == RULE_CATALOG.keys()
        assert rendered["point-base"] == (
            "  conclusion: at degree 2^1 the level-1 variety is a rational point; "
            "no twist of the level-0 upper motive occurs"
        )
        assert rendered["halved-endpoints"] == (
            "  conclusion: a surviving twist of the level-0 upper motive would contain the "
            "half-degree level-0 upper motive untwisted and twisted by 2^1"
        )

    def test_a_trace_that_fails_replay_renders_nothing(self):
        # the trace about (2, 3, 1) with its opening's n edited to 4, without
        # its opening, and an empty trace
        trace = rigidity_judgment(variety(2, 3, 1)).trace
        encoded = trace.to_json_obj()
        encoded[0]["conditions"]["n"] = "4"
        for edited in (ProofTrace.from_json_obj(encoded), ProofTrace(trace.steps[1:]), ProofTrace()):
            with pytest.raises(DomainError, match="fails replay at positions"):
                edited.render_text()


# The trace of (2, 3, 1) in the encoding where every step recorded its
# variety: each rung step its p, exponent and k (or level), the point base
# its p, n and k.
_EVERY_STEP_NAMES_ITS_VARIETY = [
    {"rule_id": "level-bound", "conditions": {"p": "2", "n": "3", "k": "1", "bound": "0"}},
    {"rule_id": "point-base", "conditions": {"p": "2", "n": "1", "k": "1", "variety_dim": "0"}},
    {"rule_id": "function-field-split", "conditions": {"p": "2", "n": "2", "k": "1", "degree": "4", "split_degree": "2", "term_count": "3", "upper_twist": "0", "lower_twist": "4"}},
    {"rule_id": "halved-endpoints", "conditions": {"p": "2", "n": "2", "level": "0", "upper_twist": "0", "lower_twist": "2"}},
    {"rule_id": "valuation-case-split", "conditions": {"p": "2", "n": "2", "k": "1", "required_level": "0", "candidate_0_i": "2", "candidate_0_j": "0", "candidate_1_i": "0", "candidate_1_j": "2", "candidate_2_i": "1", "candidate_2_j": "1"}},
    {"rule_id": "dimension-obstruction", "conditions": {"p": "2", "n": "2", "k": "1", "product_dim": "2", "endpoint_dim": "3"}},
    {"rule_id": "function-field-split", "conditions": {"p": "2", "n": "3", "k": "1", "degree": "8", "split_degree": "4", "term_count": "3", "upper_twist": "0", "lower_twist": "8"}},
    {"rule_id": "halved-endpoints", "conditions": {"p": "2", "n": "3", "level": "0", "upper_twist": "0", "lower_twist": "4"}},
    {"rule_id": "valuation-case-split", "conditions": {"p": "2", "n": "3", "k": "1", "required_level": "0", "candidate_0_i": "2", "candidate_0_j": "0", "candidate_1_i": "0", "candidate_1_j": "2", "candidate_2_i": "1", "candidate_2_j": "1"}},
    {"rule_id": "dimension-obstruction", "conditions": {"p": "2", "n": "3", "k": "1", "product_dim": "6", "endpoint_dim": "7"}}
]


class TestPositionEncoding:
    """Only the opening level bound records coordinates; every later step
    records what its position does not fix, and a later step that records a
    coordinate fails replay, even one equal to its position's."""

    def test_no_step_after_the_opening_records_a_coordinate(self):
        for v, trace in _judged_traces((2, 3, 5), 7):
            assert trace.steps[0].conditions().keys() == {"p", "n", "k", "bound"}
            for step in trace.steps[1:]:
                assert not step.conditions().keys() & set(_COORDINATES), (v, step)

    def test_a_recorded_coordinate_fails_replay(self):
        # every later step of the three traces of each (p, n, k) in verify's
        # N = 4 grid, with each coordinate added at its position's own value
        for p, n, k, v in _small_varieties(4):
            for derive in _DERIVES:
                trace = derive(v).trace
                for i in range(1, len(trace)):
                    step, position = trace.steps[i], _fixed_at(trace, i, (p, n, k))
                    fixed = dict(zip(_POSITION, position), level=position[2] - 1)
                    for name in _COORDINATES:
                        forged = ProofStep(step.rule_id, step.side_conditions + ((name, fixed[name]),))
                        edited = _with_step(trace, i, forged)
                        assert edited.failing_steps(v) == edited.failing_steps() == (i,), (p, n, k, i, name)

    def test_a_trace_whose_later_steps_name_their_variety_fails_replay(self):
        old = ProofTrace.from_json_obj(json.loads(json.dumps(_EVERY_STEP_NAMES_ITS_VARIETY)))
        assert [step.rule_id for step in old] == [step.rule_id for step in type_bound(variety(2, 3, 1)).trace]
        assert old.failing_steps() == old.failing_steps(variety(2, 3, 1)) == tuple(range(1, len(old)))
        assert not old.replay() and not old.replay(variety(2, 3, 1))

    def test_every_trace_of_the_grid_round_trips_and_replays(self):
        for p, n, k, v in _small_varieties(7):
            for derive in _DERIVES:
                trace = derive(v).trace
                decoded = ProofTrace.from_json_obj(json.loads(json.dumps(trace.to_json_obj())))
                assert decoded == trace
                assert decoded.replay() and decoded.replay(v), (p, n, k)


class TestSharedPrefix:
    """The traces about one variety share the type bound's recorded steps,
    through a memo that holds the last variety's only."""

    @pytest.mark.parametrize("pnk", [(2, 6, 2), (2, 3, 1), (2, 4, 4), (2, 5, 0), (3, 4, 1)], ids=str)
    @pytest.mark.parametrize("order", list(permutations(range(3))), ids=lambda order: "-".join(map(str, order)))
    def test_every_prefix_position_is_drawn_once(self, drawn, order, pnk):
        v = variety(*pnk)
        built = {i: derive(v) for i, derive in enumerate(_DERIVES)}
        drawn.clear()  # the bounds read their first positions
        # only the traces are held: each object is dropped once read
        traces = {i: built.pop(i).trace for i in order}
        assert drawn == list(_DERIVATION(*pnk))
        prefix = traces[0].steps
        for trace in traces.values():
            assert all(a is b for a, b in zip(trace.steps, prefix))
        assert traces == {i: derive(v).trace for i, derive in enumerate(_DERIVES)}

    def test_memo_holds_one_prefix_so_a_variety_read_again_is_recorded_again(self, drawn):
        read = []
        for pnk in ((2, 6, 2), (3, 4, 1), (2, 6, 2)):
            derived = type_bound(variety(*pnk))
            drawn.clear()  # the bound reads its first positions
            read.append(derived.trace)
            assert drawn == list(_DERIVATION(*pnk)), pnk
            assert type_calculus._prefix.cache_info().currsize == 1
        assert read[0] == read[2]
        assert not any(a is b for a, b in zip(read[0].steps, read[2].steps))

    def test_traces_of_different_varieties_share_no_step(self):
        held, owner = [], {}  # every trace is held, so no step's id is reused
        for p in (2, 3):
            for n in range(5):
                for k in range(n + 1):
                    for derive in _DERIVES:
                        trace = derive(variety(p, n, k)).trace
                        held.append(trace)
                        for step in trace:
                            assert owner.setdefault(id(step), (p, n, k)) == (p, n, k)


def _with_step(trace, i, step):
    return ProofTrace(trace.steps[:i] + (step,) + trace.steps[i + 1:])


class TestSideConditionValues:
    """Replay reads each step's side conditions as one dict of ints: a step
    that repeats a name, or records a value that is not an int, fails its
    position, and neither entry point raises."""

    @pytest.mark.parametrize("rule_id, name, spelled", [
        ("function-field-split", "lower_twist", str),
        ("function-field-split", "lower_twist", float),
        ("function-field-split", "degree", float),
        ("halved-endpoints", "upper_twist", str),
        ("valuation-case-split", "candidate_2_i", float),
        ("dimension-obstruction", "product_dim", str),
        ("level-bound", "bound", float),
        ("point-base", "variety_dim", float),
        ("level-bound", "k", str),
        ("level-bound", "n", float),
        ("level-bound", "p", bool),
        ("level-bound", "p", float),
    ])
    def test_value_that_is_not_an_int_fails_its_position(self, rule_id, name, spelled):
        v = variety(2, 3, 1)
        trace = type_bound(v).trace
        i, step = next((i, step) for i, step in enumerate(trace) if step.rule_id == rule_id)
        assert name in step.conditions()
        forged = ProofStep(rule_id, tuple((n, spelled(x) if n == name else x) for n, x in step.side_conditions))
        edited = _with_step(trace, i, forged)
        assert edited.failing_steps(v) == (i,)
        # an opening whose p, n or k is not an int names no variety
        opening = i == 0 and name in ("p", "n", "k")
        assert edited.failing_steps() == (tuple(range(len(trace))) if opening else (i,))
        assert not edited.replay() and not edited.replay(v)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_step_that_repeats_a_name_fails_replay(self, where):
        v = variety(2, 3, 1)
        trace = rigidity_judgment(v).trace
        for i, step in enumerate(trace):
            for name, value in step.side_conditions:
                for repeat in (value, value + 1):
                    extra = ((name, repeat),)
                    conditions = extra + step.side_conditions if where == "first" else step.side_conditions + extra
                    forged = ProofStep(step.rule_id, conditions)
                    assert _with_step(trace, i, forged).failing_steps(v) == (i,)
                    assert i in _with_step(trace, i, forged).failing_steps()


def _name_edits(step):
    """``step``'s side conditions with a name its rule does not read added,
    with one name dropped, and with one name swapped for an unread one."""
    conditions = step.side_conditions
    yield "extra", conditions + (("zzz", 5),)
    for j, (name, value) in enumerate(conditions):
        yield f"missing {name}", conditions[:j] + conditions[j + 1:]
        yield f"renamed {name}", conditions[:j] + (("zzz", value),) + conditions[j + 1:]


class TestSideConditionPairs:
    @pytest.mark.parametrize("conditions", [((["x"], 0),), (("variety_dim", 0, 1),), {"variety_dim": 0}],
                             ids=["unhashable-name", "three-tuple", "a-dict"])
    def test_side_conditions_that_are_not_pairs_fail_their_position(self, conditions):
        # a hand-built step; decoding always builds (name, value) pairs
        v = variety(2, 3, 3)
        trace = rigidity_judgment(v).trace
        assert [step.rule_id for step in trace.steps[:2]] == ["level-bound", "point-base"]
        edited = _with_step(trace, 1, ProofStep("point-base", conditions))
        assert edited.failing_steps(v) == edited.failing_steps() == (1,)
        assert not edited.replay(v)
        with pytest.raises(DomainError, match="fails replay at positions"):
            edited.render_text()
        # an opening that records no pairs names no variety
        opening = _with_step(trace, 0, ProofStep("level-bound", conditions))
        assert opening.failing_steps(v) == (0,)
        assert opening.failing_steps() == tuple(range(len(trace)))

    def test_side_conditions_that_are_not_iterable_are_refused_at_construction(self):
        with pytest.raises(DomainError, match="not a sequence of side conditions: 5"):
            ProofStep("point-base", 5)

    def test_side_conditions_given_as_a_list_are_held_as_the_tuple(self):
        v = variety(2, 3, 3)
        trace = rigidity_judgment(v).trace
        listed = ProofStep("point-base", [("variety_dim", 0)])
        assert listed == trace.steps[1] and hash(listed) == hash(trace.steps[1])
        assert listed.side_conditions == (("variety_dim", 0),)
        edited = _with_step(trace, 1, listed)
        assert edited == trace and hash(edited) == hash(trace) and edited.replay(v)


class TestSideConditionNames:
    """A step names exactly its rule's check's keyword parameters: one
    with an extra name, a missing name, or a name swapped for one the check
    does not take fails its position, and neither entry point raises.  A
    swapped name keeps the count, so only the comparison of names rejects it."""

    @pytest.mark.parametrize("rule_id", list(RULE_CATALOG))
    def test_step_with_other_names_fails_its_position(self, rule_id):
        v, trace, i = _position_of(rule_id)
        assert trace.failing_steps(v) == ()
        for edit, conditions in _name_edits(trace.steps[i]):
            forged = ProofStep(rule_id, conditions)
            edited = _with_step(trace, i, forged)
            assert edited.failing_steps(v) == (i,), edit
            assert i in edited.failing_steps(), edit

    @pytest.mark.parametrize("rule_id", list(RULE_CATALOG))
    def test_each_recorder_records_its_checks_keyword_parameters(self, rule_id):
        # in encoding order, read through inspect apart from the code-object
        # reading that replay uses; the position comes as arguments
        v, trace, i = _position_of(rule_id)
        recorded, position = _reads_at(v, trace, i)
        rule = RULE_CATALOG[rule_id]
        keyword = [name for name, arg in inspect.signature(rule.check).parameters.items() if arg.kind is arg.KEYWORD_ONLY]
        assert list(recorded) == list(rule.record(*position)) == keyword
        assert type_calculus._CHECKS[rule_id] == (rule.check, frozenset(keyword))
        assert rule.check(*position, **recorded)
        # only the opening records a coordinate
        assert (i == 0) == bool(recorded.keys() & set(_COORDINATES))

    def test_fault_inside_a_check_raises(self, monkeypatch):
        # replay catches nothing: a check that raises is a fault of the
        # engine, not a position that fails
        v = variety(2, 3, 1)
        _, names = type_calculus._CHECKS["point-base"]

        def faulty(p, n, k, bound, *, variety_dim):
            raise KeyError("variety_dim")

        monkeypatch.setitem(type_calculus._CHECKS, "point-base", (faulty, names))
        with pytest.raises(KeyError):
            rigidity_judgment(v).trace.failing_steps(v)

    def test_decoded_names_are_the_checks_own_strings(self):
        # so replay's keyword call meets each name's parameter by identity;
        # matching by value made replay about a fifth slower
        encoded = json.dumps(rigidity_judgment(variety(2, 5, 2)).trace.to_json_obj())
        for step in ProofTrace.from_json_obj(json.loads(encoded)):
            parameters = RULE_CATALOG[step.rule_id].check.__code__.co_varnames
            for name, _ in step.side_conditions:
                assert any(name is parameter for parameter in parameters), name

    def test_unread_name_in_a_decoded_trace_fails_replay(self):
        v = variety(2, 3, 1)
        encoded = rigidity_judgment(v).trace.to_json_obj()
        encoded[0]["conditions"]["zzz"] = "5"
        decoded = ProofTrace.from_json_obj(encoded)
        assert decoded.failing_steps(v) == decoded.failing_steps() == (0,)
        assert not decoded.replay(v) and not decoded.replay()
        opening = ProofStep("level-bound", (("p", 2), ("n", 3), ("k", 1), ("bound", 0), ("extra", 7)))
        assert not ProofTrace((opening,)).replay()


class TestJudgments:
    def test_level_one_two_primary_is_indecomposable(self):
        for n in range(1, 9):
            judgment = indecomposability_judgment(variety(2, n, 1))
            assert judgment.status is IndecomposabilityStatus.INDECOMPOSABLE
            assert judgment.trace.steps[-1].rule_id == "rank-one-upper"

    def test_degenerate_point_is_indecomposable(self):
        judgment = indecomposability_judgment(variety(2, 1, 1))
        assert judgment.status is IndecomposabilityStatus.INDECOMPOSABLE

    def test_odd_prime_level_one_is_unknown(self):
        judgment = indecomposability_judgment(variety(3, 2, 1))
        assert judgment.status is IndecomposabilityStatus.UNKNOWN
        assert judgment.bound == 0

    def test_never_claims_decomposable(self):
        assert {s.value for s in IndecomposabilityStatus} == {"indecomposable", "unknown"}

    def test_rigidity_cases(self):
        assert (
            rigidity_judgment(variety(2, 3, 2)).status is RigidityStatus.CONJECTURE_HOLDS
        )
        assert (
            rigidity_judgment(variety(5, 2, 1)).status is RigidityStatus.CONJECTURE_HOLDS
        )
        assert rigidity_judgment(variety(3, 2, 2)).status is RigidityStatus.UNKNOWN

    def test_rigidity_trace_cites_the_transfer_chain(self):
        trace = rigidity_judgment(variety(2, 3, 2)).trace
        tail = [s.rule_id for s in trace][-3:]
        assert tail == [
            "rational-cycle-persistence",
            "classical-summand-exclusion",
            "type-zero-transfer",
        ]

    def test_rigidity_at_level_zero_uses_classical_base(self):
        trace = rigidity_judgment(variety(3, 2, 0)).trace
        assert "classical-base" in [s.rule_id for s in trace]


class TestTraceSerialization:
    def test_json_round_trip(self):
        trace = type_bound(variety(2, 4, 2)).trace
        encoded = trace.to_json_obj()
        assert ProofTrace.from_json_obj(encoded) == trace
        assert ProofTrace.from_json_obj(json.loads(json.dumps(encoded))).replay()

    def test_rejects_unknown_rule(self):
        with pytest.raises(DomainError):
            ProofTrace.from_json_obj([{"rule_id": "bogus", "conditions": {}}])

    def test_conditions_that_are_not_a_mapping_rejected(self):
        encoded = type_bound(variety(2, 4, 2)).trace.to_json_obj()
        encoded[0]["conditions"] = []
        with pytest.raises(DomainError, match="malformed trace encoding"):
            ProofTrace.from_json_obj(encoded)

    @pytest.mark.parametrize("data", [None, 5, {}, ""])
    def test_top_level_that_is_not_a_list_rejected(self, data):
        with pytest.raises(DomainError, match="malformed trace encoding"):
            ProofTrace.from_json_obj(data)

    def test_conclusion_that_is_not_text_rejected(self):
        encoded = type_bound(variety(2, 4, 2)).trace.to_json_obj()
        encoded[1]["conclusion"] = None
        with pytest.raises(DomainError, match="malformed trace encoding"):
            ProofTrace.from_json_obj(encoded)

    @pytest.mark.parametrize("value", [6.9, 6, True, " +0_6 ", "06", "\u0666", "6 "])
    def test_integer_that_is_not_a_string_rejected(self, value):
        encoded = type_bound(variety(2, 3, 1)).trace.to_json_obj()
        assert encoded[-1]["conditions"]["product_dim"] == "6"
        encoded[-1]["conditions"]["product_dim"] = value
        with pytest.raises(DomainError, match="decimal strings"):
            ProofTrace.from_json_obj(encoded)

    def test_a_repeated_value_decodes_to_equal_ints(self):
        trace = rigidity_judgment(variety(2, 5, 2)).trace
        encoded = json.loads(json.dumps(trace.to_json_obj()))
        decoded = ProofTrace.from_json_obj(encoded)
        assert decoded == trace
        by_text = {}
        for entry, step in zip(encoded, decoded):
            for (_, value), text in zip(step.side_conditions, entry["conditions"].values()):
                assert type(value) is int
                by_text.setdefault(text, set()).add(value)
        assert by_text["2"] == {2} and by_text["0"] == {0}
        assert all(values == {int(text)} for text, values in by_text.items())

    @pytest.mark.parametrize("repeat, shown", [("02", "'02'"), (2, "2"), (True, "True")])
    def test_a_later_spelling_of_a_decoded_value_is_rejected(self, repeat, shown):
        encoded = type_bound(variety(2, 3, 1)).trace.to_json_obj()
        assert encoded[0]["conditions"]["p"] == encoded[2]["conditions"]["split_degree"] == "2"
        encoded[2]["conditions"]["split_degree"] = repeat
        with pytest.raises(DomainError) as raised:
            ProofTrace.from_json_obj(encoded)
        assert str(raised.value) == (
            f"malformed trace encoding: integers are encoded as canonical decimal strings, got {shown}"
        )

    def test_steps_given_as_a_list_are_held_as_a_tuple(self):
        v = variety(2, 3, 1)
        trace = rigidity_judgment(v).trace
        listed = ProofTrace(list(trace.steps))
        assert type(listed.steps) is tuple and listed.replay(v)
        assert listed == trace and hash(listed) == hash(trace)
        assert ProofTrace(trace.steps).steps is trace.steps

    def test_text_rendering_lists_every_step(self):
        trace = type_bound(variety(2, 3, 1)).trace
        text = trace.render_text()
        assert text.count("step ") == len(trace)
        assert "dimension-obstruction" in text
        assert "conditions:" in text and "citation:" in text


two_primary = st.integers(2, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


class TestReplayProperties:
    @settings(max_examples=25, deadline=None)
    @given(two_primary)
    def test_rigidity_trace_replays_within_a_second(self, nk):
        start = time.perf_counter()
        assert rigidity_judgment(variety(2, *nk)).trace.replay()
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=100, deadline=None)
    @given(two_primary, st.data())
    def test_any_side_condition_off_by_one_fails_replay(self, nk, data):
        encoded = rigidity_judgment(variety(2, *nk)).trace.to_json_obj()
        entry = data.draw(st.sampled_from([entry for entry in encoded if entry["conditions"]]))
        name = data.draw(st.sampled_from(sorted(entry["conditions"])))
        entry["conditions"][name] = str(int(entry["conditions"][name]) + data.draw(st.sampled_from((-1, 1))))
        assert not ProofTrace.from_json_obj(encoded).replay()

    @settings(max_examples=25, deadline=None)
    @given(two_primary, st.data())
    def test_step_carrying_a_citation_fails_to_decode(self, nk, data):
        # the catalog's own citation is rejected as firmly as an edited one
        encoded = rigidity_judgment(variety(2, *nk)).trace.to_json_obj()
        entry = data.draw(st.sampled_from(encoded))
        entry["citation"] = RULE_CATALOG[entry["rule_id"]].citation + data.draw(st.text(max_size=3))
        with pytest.raises(DomainError, match="malformed trace encoding: .*citation"):
            ProofTrace.from_json_obj(encoded)

    def test_level_25_exponent_50_replays(self):
        assert rigidity_judgment(variety(2, 50, 25)).trace.replay()

    def test_ladder_cut_short_fails_replay(self):
        trace = rigidity_judgment(variety(2, 6, 2)).trace
        assert not ProofTrace(trace.steps[:6] + trace.steps[-3:]).replay()

    def test_step_about_another_variety_fails_replay(self):
        other = rigidity_judgment(variety(2, 5, 2)).trace
        trace = rigidity_judgment(variety(2, 6, 2)).trace
        assert not ProofTrace(trace.steps + other.steps[-1:]).replay()


def _one_step_edits(steps):
    """Copies of ``steps`` with one step deleted, duplicated, or swapped with
    its right neighbour."""
    for i in range(len(steps)):
        yield "deleted", steps[:i] + steps[i + 1 :]
        yield "duplicated", steps[: i + 1] + steps[i:]
        if i + 1 < len(steps):
            yield "swapped", steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2 :]


class TestRuleOrder:
    """Replay checks which rule sits at each position, not only what each
    step records: every step of the forged traces below is taken from an
    honest trace about the same variety, where it replays."""

    def test_rung_made_of_one_step_fails_replay(self):
        steps = type_bound(variety(2, 5, 2)).trace.steps
        assert [step.rule_id for step in steps[2:6]] == [
            "function-field-split",
            "halved-endpoints",
            "valuation-case-split",
            "dimension-obstruction",
        ]
        forged = ProofTrace(steps[:2] + (steps[5],) * 4 + steps[6:])
        assert all(step in steps for step in forged)
        assert forged.failing_steps() == (2, 3, 4)
        assert not forged.replay()

    def test_reversed_rung_fails_replay(self):
        steps = type_bound(variety(2, 5, 2)).trace.steps
        forged = ProofTrace(steps[:2] + steps[2:6][::-1] + steps[6:])
        assert forged.failing_steps() == (2, 3, 4, 5)
        assert not forged.replay()

    def test_transfer_without_its_premises_fails_replay(self):
        steps = rigidity_judgment(variety(2, 4, 2)).trace.steps
        assert [step.rule_id for step in steps[-3:]] == [
            "rational-cycle-persistence",
            "classical-summand-exclusion",
            "type-zero-transfer",
        ]
        forged = ProofTrace(steps[:-3] + steps[-1:])
        assert forged.failing_steps() == (len(forged) - 1,)
        assert not forged.replay()

    def test_repeated_closing_fails_replay(self):
        steps = rigidity_judgment(variety(2, 4, 2)).trace.steps
        forged = ProofTrace(steps + steps[-3:])
        assert forged.failing_steps() == tuple(range(len(steps), len(forged)))
        assert not forged.replay()

    def test_truncated_closing_reports_the_missing_position(self):
        steps = rigidity_judgment(variety(3, 2, 1)).trace.steps
        assert ProofTrace(steps[:-1]).failing_steps() == (len(steps) - 1,)
        # a trace whose opening names no variety has no derivation to miss a
        # position of: each of its steps fails, and nothing more
        assert _rewritten_to_p(ProofTrace(steps[:-1]), 6).failing_steps() == tuple(range(len(steps) - 1))

    def test_replay_agrees_with_failing_steps(self):
        for trace in _honest_traces((2, 3, 5), 5):
            assert trace.replay() and trace.failing_steps() == ()
            for edit, steps in _one_step_edits(trace.steps):
                edited = ProofTrace(steps)
                assert edited.replay() == (edited.failing_steps() == ())
                if edit != "deleted":
                    assert not edited.replay(), (edit, [step.rule_id for step in steps])


def _encoded_step(rule_id, **conditions):
    return {"rule_id": rule_id, "conditions": {name: str(value) for name, value in conditions.items()}}


class TestHandEncodedTraces:
    """Replay reads only the recorded values: huge exponents with small
    recorded values must not build huge powers."""

    def test_point_base_requires_a_zero_dimensional_variety(self):
        for dim in (-1, 1):
            trace = ProofTrace.from_json_obj(
                [
                    _encoded_step("level-bound", p=2, n=3, k=3, bound=2),
                    _encoded_step("point-base", variety_dim=dim),
                ]
            )
            assert trace.failing_steps() == (1,)

    def test_point_base_at_huge_exponent_replays(self):
        n = k = 10**12
        start = time.perf_counter()
        trace = ProofTrace.from_json_obj(
            [
                _encoded_step("level-bound", p=2, n=n, k=k, bound=k - 1),
                _encoded_step("point-base", variety_dim=0),
            ]
        )
        assert trace.replay()
        assert time.perf_counter() - start < 1.0

    def test_halving_step_with_small_values_fails_fast(self):
        k = 10**9
        n = k + 1
        start = time.perf_counter()
        trace = ProofTrace.from_json_obj(
            [
                _encoded_step("level-bound", p=2, n=n, k=k, bound=k - 1),
                _encoded_step("point-base", variety_dim=0),
                _encoded_step(
                    "function-field-split", degree=4, split_degree=2, term_count=3, upper_twist=0, lower_twist=8,
                ),
                _encoded_step("halved-endpoints", upper_twist=0, lower_twist=4),
                _encoded_step(
                    "valuation-case-split", required_level=k - 1,
                    candidate_0_i=2, candidate_0_j=0, candidate_1_i=0, candidate_1_j=2,
                    candidate_2_i=1, candidate_2_j=1,
                ),
                _encoded_step("dimension-obstruction", product_dim=2, endpoint_dim=3),
            ]
        )
        assert trace.failing_steps() == (2, 3, 4, 5)
        assert not trace.replay()
        assert time.perf_counter() - start < 1.0
