"""Value semantics shared by every immutable record of the package.

Each record compares equal exactly to a record of its own class with equal
fields, hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
unless its class says otherwise, and refuses assignment.
"""

import pytest

from sbmotives import (
    RULE_CATALOG,
    TATE,
    ChowOrderReport,
    DivisionContext,
    ExtremeTerms,
    Judgment,
    PartitionBoxSpec,
    PrimaryCase,
    ProofStep,
    ProofTrace,
    SBProduct,
    SBVariety,
    Term,
    TypeBound,
    UpperMotive,
    classify_reduced_dimension,
    indecomposability_judgment,
    type_bound,
)
from sbmotives.motive import TateUnit
from sbmotives.severi_brauer import CoverageReason
from sbmotives.type_calculus import IndecomposabilityStatus, Rule
from sbmotives.verify import IdentityResult, SuiteReport

C22 = DivisionContext(2, 2)
C23 = DivisionContext(2, 3)
LEVEL_BOUND = RULE_CATALOG["level-bound"]
OPENING = ProofStep("level-bound", (("p", 3), ("n", 1), ("k", 1), ("bound", 0)))
OPENING_TEXT = "ProofStep(rule_id='level-bound', side_conditions=(('p', 3), ('n', 1), ('k', 1), ('bound', 0)))"
PASSING = IdentityResult("demo/pass", True, ())

# (build, fields, repr): ``build`` makes a fresh record from ``fields``
CASES = [
    (
        lambda: PartitionBoxSpec(3, 4, 5),
        (3, 4, 5),
        "PartitionBoxSpec(parts=3, max_part=4, size=5)",
    ),
    (lambda: DivisionContext(2, 3), (2, 3), "DivisionContext(p=2, n=3)"),
    (lambda: TateUnit(), (), "Tate"),
    (lambda: TATE, (), "Tate"),
    (lambda: UpperMotive(C23, 1), (C23, 1), "Upper(p=2, n=3, level=1)"),
    (lambda: SBProduct(C22, (2, 0, 1, 4)), (C22, (1, 2)), "SBProduct(p=2, n=2, dims=(1, 2))"),
    (
        lambda: Term(SBProduct(C22, (1,)), 3),
        (SBProduct(C22, (1,)), 3),
        "(SBProduct(p=2, n=2, dims=(1,)), twist=3)",
    ),
    (
        lambda: ExtremeTerms(upper=Term(TATE, 0), upper_multiplicity=1, lower=None, lower_multiplicity=2),
        (Term(TATE, 0), 1, None, 2),
        "ExtremeTerms(upper=(Tate, twist=0), upper_multiplicity=1, lower=None, lower_multiplicity=2)",
    ),
    (lambda: SBVariety(C23, 1), (C23, 1), "SB(p=2, n=3, level=1)"),
    (
        lambda: ChowOrderReport(prime=2, i=1, summand_count=1),
        (2, 1, 1),
        "ChowOrderReport(prime=2, i=1, summand_count=1)",
    ),
    (lambda: PrimaryCase(2, 4), (2, 4), "PrimaryCase(prime=2, reduced_dimension=4)"),
    (
        lambda: classify_reduced_dimension(12),
        (12, True, CoverageReason.FOUR_TIMES_ODD_SQUAREFREE, 3, None, (PrimaryCase(2, 4), PrimaryCase(3, 3))),
        "CaseClassification(k=12, covered=True, "
        "reason=<CoverageReason.FOUR_TIMES_ODD_SQUAREFREE: 'four-times-odd-squarefree'>, "
        "odd_squarefree_part=3, blocking_factor=None, "
        "reductions=(PrimaryCase(prime=2, reduced_dimension=4), PrimaryCase(prime=3, reduced_dimension=3)))",
    ),
    (
        lambda: Rule(*(getattr(LEVEL_BOUND, name) for name in ("rule_id", "citation", "record", "check", "template"))),
        (LEVEL_BOUND.rule_id, LEVEL_BOUND.citation, LEVEL_BOUND.record, LEVEL_BOUND.check, LEVEL_BOUND.template),
        f"Rule(rule_id='level-bound', citation={LEVEL_BOUND.citation!r}, record={LEVEL_BOUND.record!r}, "
        f"check={LEVEL_BOUND.check!r}, template={LEVEL_BOUND.template!r})",
    ),
    (lambda: ProofStep(OPENING.rule_id, OPENING.side_conditions), (OPENING.rule_id, OPENING.side_conditions), OPENING_TEXT),
    (
        lambda: ProofStep("point-base", (("k", 1),)),
        ("point-base", (("k", 1),)),
        "ProofStep(rule_id='point-base', side_conditions=(('k', 1),))",
    ),
    (lambda: type_bound(SBVariety(DivisionContext(3, 1), 1)).trace, ((OPENING,),), f"ProofTrace(steps=({OPENING_TEXT},))"),
    (lambda: ProofTrace(), ((),), "ProofTrace(steps=())"),
    (lambda: type_bound(SBVariety(C23, 1)), (SBVariety(C23, 1), -1), "TypeBound(variety=SB(p=2, n=3, level=1), bound=-1)"),
    (
        lambda: indecomposability_judgment(SBVariety(C23, 1)),
        (SBVariety(C23, 1), IndecomposabilityStatus.INDECOMPOSABLE, -1),
        "Judgment(variety=SB(p=2, n=3, level=1), "
        "status=<IndecomposabilityStatus.INDECOMPOSABLE: 'indecomposable'>, bound=-1)",
    ),
    (
        lambda: IdentityResult("demo/fail", False, ("broken",)),
        ("demo/fail", False, ("broken",)),
        "IdentityResult(identity='demo/fail', passed=False, failures=('broken',))",
    ),
    (
        lambda: SuiteReport(max_n=2, results=(PASSING,)),
        (2, (PASSING,)),
        "SuiteReport(max_n=2, results=(IdentityResult(identity='demo/pass', passed=True, failures=()),))",
    ),
]


def test_every_record_class_has_a_case():
    classes = {type(build()) for build, _, _ in CASES}
    assert len(classes) == 18 and TateUnit in classes
    assert type(TATE) is TateUnit


@pytest.mark.parametrize(("build", "fields", "text"), CASES, ids=[type(build()).__name__ for build, _, _ in CASES])
def test_record_value_semantics(build, fields, text):
    record, twin = build(), build()
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record.__eq__(fields) is NotImplemented
    assert record != fields and fields != record
    assert hash(record) == hash(fields)
    assert repr(record) == text
    name = next(iter(vars(record)), "anything")
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert build() == record


def test_records_of_other_classes_never_compare_equal():
    # same field values, different classes
    assert PrimaryCase(2, 3) != DivisionContext(2, 3)
    assert SBVariety(C23, 1) != UpperMotive(C23, 1)
    assert IdentityResult("a", True, ()) != ProofStep("level-bound", ())


def test_derived_traces_are_cached_and_leave_the_value_alone():
    v = SBVariety(C23, 2)
    derived = type_bound(v)
    judgment = indecomposability_judgment(v)
    assert derived.trace is derived.trace and judgment.trace is judgment.trace
    assert derived == TypeBound(v, derived.bound)
    assert judgment == Judgment(v, judgment.status, judgment.bound)
    assert hash(derived) == hash((v, derived.bound))


# The base constructor, on a record that declares only its fields.


def test_fields_by_keyword_equal_fields_by_position():
    assert ChowOrderReport(prime=2, i=1, summand_count=5) == ChowOrderReport(2, 1, 5)
    assert ChowOrderReport(2, summand_count=5, i=1) == ChowOrderReport(2, 1, 5)


@pytest.mark.parametrize(("values", "named"), [((2, 1), {}), ((2, 1, 5, 7), {}), ((2,), {"i": 1})])
def test_too_few_or_too_many_values_raise(values, named):
    with pytest.raises(TypeError, match=r"takes the fields \('prime', 'i', 'summand_count'\)"):
        ChowOrderReport(*values, **named)


def test_unknown_keyword_raises():
    with pytest.raises(TypeError, match="got an unknown field 'order'"):
        ChowOrderReport(2, 1, order=5)


@pytest.mark.parametrize("values", [(2,), (2, 1, 5)])
def test_field_given_by_position_and_keyword_raises(values):
    with pytest.raises(TypeError, match="second value for field 'prime'"):
        ChowOrderReport(*values, prime=2)


def test_tate_unit_takes_no_fields():
    assert TateUnit() == TATE and vars(TateUnit()) == {}
    with pytest.raises(TypeError):
        TateUnit(0)
    with pytest.raises(TypeError):
        TateUnit(twist=0)
