import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sbmotives import (
    TATE,
    CaseClassification,
    ChowOrderReport,
    DivisionContext,
    qpoly,
    type_calculus,
    GradedRankPoly,
    MotiveExpr,
    ProofTrace,
    RULE_CATALOG,
    Rule,
    SBProduct,
    SBVariety,
    Term,
    classify_reduced_dimension,
    function_field_decomposition,
    gaussian_binomial,
    mu,
    rational_chow_order,
    type_bound,
)
from sbmotives.cli import FORMATS
from sbmotives import verify as verify_module
from sbmotives.verify import IdentityResult, SuiteReport

from conftest import run_python


class TestGaussianCommand:
    def test_json_matches_engine(self, run_cli):
        result = run_cli("gaussian", "4", "2", "--format", "json")
        assert result.exit_code == 0
        assert result.stdout.strip() == '{"0":"1","1":"1","2":"2","3":"1","4":"1"}'
        parsed = GradedRankPoly.from_json_dict(json.loads(result.stdout))
        assert parsed == gaussian_binomial(4, 2)

    def test_text(self, run_cli):
        result = run_cli("gaussian", "4", "2")
        assert result.exit_code == 0
        assert "1 + q + 2*q^2 + q^3 + q^4" in result.stdout
        assert "rank 6, dimension 4" in result.stdout

    def test_csv(self, run_cli):
        result = run_cli("gaussian", "4", "1", "--format", "csv")
        assert result.stdout.splitlines() == [
            "degree,coefficient",
            "0,1",
            "1,1",
            "2,1",
            "3,1",
        ]

    def test_domain_error_exits_one(self, run_cli):
        result = run_cli("gaussian", "2", "5")
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_too_wide_binomial_exits_one_within_a_second(self, run_cli):
        start = time.perf_counter()
        result = run_cli("gaussian", "1000000000", "500000000")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert "dense storage limit" in result.stderr

    def test_usage_error_exits_two(self, run_cli):
        result = run_cli("gaussian", "two", "1")
        assert result.exit_code == 2

    def test_out_writes_file(self, run_cli, tmp_path):
        target = tmp_path / "poly.json"
        result = run_cli("gaussian", "4", "2", "--format", "json", "--out", str(target))
        assert result.exit_code == 0
        assert json.loads(target.read_text()) == {"0": "1", "1": "1", "2": "2", "3": "1", "4": "1"}

    def test_format_from_environment(self, run_cli):
        result = run_cli("gaussian", "4", "2", env={"SBMOTIVES_FORMAT": "json"})
        assert result.stdout.strip().startswith("{")


class TestOutOption:
    def assert_open_error(self, result, target):
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot open '{target}': ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("target", ["", "missing/x"])
    def test_unopenable_target_exits_one_and_creates_nothing(self, run_cli, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        result = run_cli("gaussian", "4", "2", "--out", target)
        self.assert_open_error(result, target)
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_exits_one(self, run_cli, tmp_path):
        result = run_cli("gaussian", "4", "2", "--out", str(tmp_path))
        self.assert_open_error(result, str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_dash_writes_stdout(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_cli("gaussian", "4", "2", "--format", "json", "--out", "-")
        assert result.exit_code == 0
        assert result.stdout == '{"0":"1","1":"1","2":"2","3":"1","4":"1"}\n'
        assert list(tmp_path.iterdir()) == []

    def test_reader_closing_stdout_exits_one_without_traceback(self):
        # as `sbmotives ... | head` does, with the reader gone before the first write
        reader, writer = os.pipe()
        os.close(reader)
        try:
            done = cli_process("chow-order", "--p", "2", "--n", "12", "--k", "0", stdout=writer)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
    @pytest.mark.parametrize("via_out", [False, True], ids=["stdout", "out-option"])
    def test_full_device_exits_one_with_one_error_line(self, via_out):
        with open("/dev/full", "w") as full:
            if via_out:
                done = cli_process("gaussian", "4", "2", "--out", "/dev/full", stdout=subprocess.DEVNULL)
            else:
                done = cli_process("gaussian", "4", "2", stdout=full)
        stderr = done.stderr.decode()
        assert done.returncode == 1
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
        assert "Traceback" not in stderr


def cli_process(*args: str, stdout) -> subprocess.CompletedProcess:
    """``sbmotives ARGS`` run in a fresh interpreter, stderr captured."""
    return run_python("-m", "sbmotives.cli", *args, stdout=stdout, stderr=subprocess.PIPE, timeout=30)


# the options each command requires (mu: --i, one of its two selectors); None stands for a positional
REQUIRED = {
    "gaussian": (None, None),
    "mu": ("--p", "--n", "--k", "--i"),
    "chow-order": ("--p", "--n", "--k"),
    "decompose": ("--p", "--n", "--k"),
    "type-bound": ("--p", "--n", "--k"),
    "conjecture": ("--k",),
    "verify": (),
}
VALUED = ("--p", "--n", "--k", "--i", "--max-n", "--out", "--format", "-f")
# flags, argparse's own markers, misspelt and abbreviated option names
BARE = ("--all", "--trace", "-h", "--", "--form", "--tra", "--max", "--pp", "--P", "---p", "-p", "--all=1", "--format=")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _spellings(x: int) -> list[str]:
    """Ways to write ``x`` that ``int()`` may accept; none means a larger integer."""
    sign, digits = "-" if x < 0 else "", str(abs(x))
    return [
        str(x),
        f"{sign}0_{digits}",
        sign + digits.translate(ARABIC_INDIC),
        sign + digits.zfill(5000),  # 5 000 digits: past the int-to-str digit limit
    ]


@st.composite
def command_lines(draw):
    """A command, its required options, then extra tokens, with the option groups in any order.

    About half the lines are well formed (plain small integers, primes for
    ``--p``, only ``-f``/``--format`` extra) and reach the engine; every
    integer that reaches it stays small.
    """
    command = draw(st.sampled_from([*REQUIRED, "nope", "", "gauss", "-h", "--help"]))
    bound = 3 if command == "verify" else 4
    plain = {"--p": st.sampled_from(["2", "3"])}
    values = st.integers(-bound, bound).flatmap(lambda x: st.sampled_from(_spellings(x))) | st.sampled_from(
        ["True", "", "x", "-", "json", "csv", "xml", "1.5"]
    )
    extra = st.tuples(st.sampled_from(VALUED), values).map(list) | st.sampled_from(BARE).map(lambda t: [t])
    extra |= values.map(lambda v: [v])
    if draw(st.booleans()):  # well formed
        values = st.nothing()
        extra = st.tuples(st.sampled_from(["-f", "--format"]), st.sampled_from(FORMATS)).map(list)
    groups = [
        [draw(st.integers(0, bound).map(str) | values)] if name is None
        else [name, draw(plain.get(name, st.integers(0, bound).map(str)) | values)]
        for name in REQUIRED.get(command, ())
    ]
    groups += draw(st.lists(extra, max_size=3))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


class TestParser:
    @pytest.mark.parametrize(
        "args, unrecognized",
        [
            (("gaussian", "4", "2", "--form", "json"), "--form json"),
            (("type-bound", "--p", "2", "--n", "3", "--k", "1", "--tra"), "--tra"),
            (("verify", "--max", "2"), "--max 2"),
        ],
        ids=["--form", "--tra", "--max"],
    )
    def test_abbreviated_option_is_usage_error(self, run_cli, args, unrecognized):
        result = run_cli(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(f": error: unrecognized arguments: {unrecognized}\n")

    def test_invalid_format_from_environment_is_usage_error(self, run_cli):
        result = run_cli("gaussian", "4", "2", env={"SBMOTIVES_FORMAT": "xml"})
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "argument -f/--format: invalid choice: 'xml'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_format_option_wins_over_environment(self, run_cli):
        result = run_cli("gaussian", "4", "2", "--format", "json", env={"SBMOTIVES_FORMAT": "csv"})
        assert result.exit_code == 0
        assert result.stdout == '{"0":"1","1":"1","2":"2","3":"1","4":"1"}\n'

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=command_lines())
    def test_any_command_line_exits_zero_to_three(self, run_cli, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)  # --out may name any drawn value
        result = run_cli(*args)  # raises on any exception but SystemExit
        assert result.exit_code in (0, 1, 2, 3), args
        assert "Traceback" not in result.stderr


class TestMuCommand:
    def test_single_value(self, run_cli):
        result = run_cli("mu", "--p", "2", "--n", "1", "--k", "0", "--i", "2", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["values"] == [{"i": "2", "mu": "1"}]

    def test_all_matches_engine(self, run_cli):
        result = run_cli("mu", "--p", "2", "--n", "1", "--k", "0", "--all", "--format", "json")
        payload = json.loads(result.stdout)
        context = DivisionContext(2, 1)
        for row in payload["values"]:
            assert int(row["mu"]) == mu(context, 0, int(row["i"]))

    def test_requires_exactly_one_selector(self, run_cli):
        assert run_cli("mu", "--p", "2", "--n", "1", "--k", "0").exit_code == 2
        assert (
            run_cli("mu", "--p", "2", "--n", "1", "--k", "0", "--i", "1", "--all").exit_code
            == 2
        )

    def test_non_prime_rejected_as_usage_error(self, run_cli):
        result = run_cli("mu", "--p", "4", "--n", "1", "--k", "0", "--all")
        assert result.exit_code == 2

    def test_level_out_of_range_is_engine_error(self, run_cli):
        result = run_cli("mu", "--p", "2", "--n", "1", "--k", "3", "--all")
        assert result.exit_code == 1


class TestPrimeOption:
    def test_mersenne_61_answers_within_a_second(self, run_cli):
        start = time.perf_counter()
        result = run_cli("type-bound", "--p", str(2**61 - 1), "--n", "1", "--k", "0")
        assert result.exit_code == 0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p", [2**61 + 1, 561, 2047])
    def test_composite_is_usage_error(self, run_cli, p):
        result = run_cli("type-bound", "--p", str(p), "--n", "1", "--k", "0")
        assert result.exit_code == 2
        assert f"argument --p: {p} is not prime" in result.stderr

    def test_beyond_primality_bound_is_usage_error(self, run_cli):
        # 2^89 - 1 is prime, but above the bound below which primality is decided
        result = run_cli("type-bound", "--p", str(2**89 - 1), "--n", "1", "--k", "0")
        assert result.exit_code == 2
        assert (
            "argument --p: primality is only decided below "
            f"3317044064679887385961981, got p={2**89 - 1}"
        ) in result.stderr


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)


def run_with_digit_limit(run_cli, digits, *args):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        return run_cli(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def assert_render_error(result):
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "limit" in result.stderr
    assert len(result.stderr.splitlines()) == 1


class TestBoxCountsReadTheBinomial:
    """``mu`` and ``chow-order`` read box counts from the Gaussian binomial;
    the box DP is only the oracle ``verify`` compares them with."""

    @pytest.mark.parametrize(
        "args",
        [
            ("chow-order", "--p", "3", "--n", "2", "--k", "1"),
            ("mu", "--p", "3", "--n", "2", "--k", "1", "--all"),
            ("mu", "--p", "2", "--n", "3", "--k", "2", "--i", "20"),
        ],
        ids=["chow-order", "mu-all", "mu-i"],
    )
    def test_command_runs_no_box_dp(self, run_cli, args):
        qpoly._box_size_counts.cache_clear()
        result = run_cli(*args)
        assert result.exit_code == 0
        assert qpoly._box_size_counts.cache_info().misses == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("mu", "--p", "2", "--n", "40", "--k", "20", "--all"),
            ("chow-order", "--p", "2", "--n", "30", "--k", "1"),
        ],
        ids=["mu-all", "chow-order"],
    )
    def test_table_past_the_span_limit_exits_one_within_a_second(self, run_cli, args):
        # the binomial is built before the first row, so its span check is
        # not left behind the ~2^40 (~2^30) zero rows above the box
        start = time.perf_counter()
        result = run_cli(*args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert result.stderr.startswith("error: degree span ")


class TestChowOrderCommand:
    @needs_digit_limit
    def test_order_past_digit_limit_is_error(self, run_cli):
        # 7^mu at the top degree has more digits than the default limit allows
        default = sys.int_info.default_max_str_digits
        start = time.perf_counter()
        result = run_with_digit_limit(run_cli, default, "chow-order", "--p", "7", "--n", "2", "--k", "1")
        assert time.perf_counter() - start < 5.0
        assert_render_error(result)

    def test_round_trip(self, run_cli):
        result = run_cli("chow-order", "--p", "2", "--n", "1", "--k", "0", "--format", "json")
        payload = json.loads(result.stdout)
        v = SBVariety(DivisionContext(2, 1), 0)
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            report = rational_chow_order(v, int(row["i"]))
            assert row == report.to_json_obj()

    def test_csv_header(self, run_cli):
        result = run_cli("chow-order", "--p", "2", "--n", "1", "--k", "0", "--format", "csv")
        lines = result.stdout.splitlines()
        assert lines[0] == "i,mu,order_exponent,literal_order"
        assert lines[1] == "0,0,0,0"


class TestDecomposeCommand:
    def test_text_shows_conservation(self, run_cli):
        result = run_cli("decompose", "--p", "2", "--n", "2", "--k", "1")
        assert result.exit_code == 0
        assert "conservation: OK" in result.stdout
        assert "(twist 0)" in result.stdout
        assert "(twist 1)" in result.stdout
        assert "(twist 4)" in result.stdout

    def test_json_round_trips_to_engine_expr(self, run_cli):
        result = run_cli("decompose", "--p", "2", "--n", "2", "--k", "1", "--format", "json")
        payload = json.loads(result.stdout)
        expr = MotiveExpr.from_json_obj(payload["terms"])
        engine = function_field_decomposition(SBVariety(DivisionContext(2, 2), 1))
        assert expr == engine
        assert payload["conservation"] == "ok"

    def test_odd_prime_exits_one(self, run_cli):
        result = run_cli("decompose", "--p", "3", "--n", "2", "--k", "1")
        assert result.exit_code == 1

    def test_sum_past_the_decimal_precision_exits_one(self, run_cli, monkeypatch):
        # the (8, 5) sum, at about 233 000 packed bits, is carried by decimal;
        # at a precision of 1 000 digits its products can only round
        import decimal

        monkeypatch.setattr(decimal, "MAX_PREC", 1000)
        result = run_cli("decompose", "--p", "2", "--n", "8", "--k", "5")
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


class TestTypeBoundCommand:
    def test_text(self, run_cli):
        result = run_cli("type-bound", "--p", "2", "--n", "3", "--k", "1")
        assert "type bound" in result.stdout and ": -1" in result.stdout
        assert "indecomposability: indecomposable" in result.stdout
        assert "rigidity: conjecture-holds" in result.stdout

    @pytest.mark.parametrize("n, k", [(4, 2), (40, 3)])
    def test_trace_round_trip(self, run_cli, n, k):
        result = run_cli("type-bound", "--p", "2", "--n", str(n), "--k", str(k), "--trace", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        trace = ProofTrace.from_json_obj(payload["trace"])
        engine = type_bound(SBVariety(DivisionContext(2, n), k))
        assert trace == engine.trace
        assert int(payload["bound"]) == engine.bound
        assert trace.replay() and trace.replay(engine.variety)
        assert list(payload["rules"]) == list(dict.fromkeys(step.rule_id for step in trace))
        # only the opening records coordinates
        for entry in payload["trace"][1:]:
            assert not entry["conditions"].keys() & {"p", "n", "k", "level", "bound"}, entry
        # an opening edited to name no variety fails every position on its
        # own, and only the opening against the variety
        for name, value in (("p", "6"), ("k", str(n + 1))):
            encoded = json.loads(result.stdout)["trace"]
            encoded[0]["conditions"][name] = value
            edited = ProofTrace.from_json_obj(encoded)
            assert edited.failing_steps() == tuple(range(len(trace))), name
            assert edited.failing_steps(engine.variety) == (0,), name

    def test_text_trace_rendering(self, run_cli):
        result = run_cli("type-bound", "--p", "2", "--n", "3", "--k", "1", "--trace")
        assert "step 1: level-bound" in result.stdout
        assert "dimension-obstruction" in result.stdout

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_large_exponent_prints_no_power_without_trace(self, run_cli):
        # the trace records integers of about 660 digits; only --trace prints them
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run_cli("type-bound", "--p", "2", "--n", "1101", "--k", "1100")
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0, result.stdout
        assert "degree-2^1101 division algebra: 1098" in result.stdout

    @needs_digit_limit
    def test_trace_past_digit_limit_is_error_except_in_csv(self, run_cli):
        # text and JSON print the rung's ~660-digit integers, which grow with
        # the level, not the exponent; CSV lists rule ids
        args = ("type-bound", "--p", "2", "--n", "1101", "--k", "1100", "--trace", "--format")
        start = time.perf_counter()
        for fmt in ("text", "json"):
            assert_render_error(run_with_digit_limit(run_cli, 640, *args, fmt))
        assert time.perf_counter() - start < 5.0
        result = run_with_digit_limit(run_cli, 640, *args, "csv")
        assert result.exit_code == 0, result.stdout
        assert "step 1,level-bound" in result.stdout

    @needs_digit_limit
    def test_header_power_past_digit_limit_is_refused_before_it_is_built(self, run_cli):
        # under a 640-digit limit, 2^2126 has 640 digits and 2^2127 has 641
        args = ("type-bound", "--p", "2", "--n")
        result = run_with_digit_limit(run_cli, 640, *args, "2126", "--k", "2126")
        assert result.exit_code == 0 and f"SB_{2**2126} of" in result.stdout
        assert_render_error(run_with_digit_limit(run_cli, 640, *args, "2127", "--k", "2127"))
        start = time.perf_counter()  # building 2^300000000 alone takes seconds
        assert_render_error(run_cli(*args, "300000000", "--k", "300000000"))
        assert time.perf_counter() - start < 1.0

    def test_one_derivation_per_invocation(self, run_cli, monkeypatch):
        # counts every build, whether the command or a judgment asks for it
        builds = []
        original = type_calculus.type_bound

        def counting(variety):
            builds.append(variety)
            return original(variety)

        monkeypatch.setattr(type_calculus, "type_bound", counting)
        result = run_cli("type-bound", "--p", "2", "--n", "4", "--k", "2", "--trace")
        assert result.exit_code == 0
        assert builds == [SBVariety(DivisionContext(2, 4), 2)]


class TestConjectureCommand:
    def test_open_output(self, run_cli):
        result = run_cli("conjecture", "--k", "8")
        assert result.stdout.strip() == "OPEN (blocking factor 8)"

    def test_covered_output(self, run_cli):
        result = run_cli("conjecture", "--k", "12")
        lines = result.stdout.splitlines()
        assert lines[0] == "COVERED (4 x odd squarefree, odd part 3)"
        assert "  reduces to: SB_4 at p=2" in lines
        assert "  reduces to: SB_3 at p=3" in lines

    def test_json_round_trip(self, run_cli):
        result = run_cli("conjecture", "--k", "12", "--format", "json")
        payload = json.loads(result.stdout)
        case = classify_reduced_dimension(12)
        assert payload["covered"] is True
        assert payload["reason"] == case.reason.value
        assert payload["odd_squarefree_part"] == "3"
        assert [(r["p"], r["reduced_dimension"]) for r in payload["reductions"]] == [
            (str(c.prime), str(c.reduced_dimension)) for c in case.reductions
        ]


class TestConjectureBounds:
    def test_mersenne_61_answers_within_a_second(self, run_cli):
        start = time.perf_counter()
        result = run_cli("conjecture", "--k", str(2**61 - 1))
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "COVERED (squarefree)"
        assert time.perf_counter() - start < 1.0

    def test_product_of_two_large_primes_exits_one_within_a_second(self, run_cli):
        # 2147483659 and 2147483693 are the two least primes above 2**31
        start = time.perf_counter()
        result = run_cli("conjecture", "--k", str(2147483659 * 2147483693))
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot factor")
        assert time.perf_counter() - start < 1.0

    def test_k_beyond_primality_bound_names_k(self, run_cli):
        k = 2 * 3317044064679887385961981
        result = run_cli("conjecture", "--k", str(k))
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")
        assert str(k) in result.stderr and "primality is only decided below" in result.stderr
        assert "p=" not in result.stderr


def plant_box_faults(monkeypatch, planted):
    """Add one to the box DP's count at each planted ``(parts, max_part, size)``:
    in the whole table that ``verify`` reads for sizes up to the capacity, and
    past it in the public counter, whose in-box counts are left right so a
    check that read them instead would miss the fault."""
    table, counter = verify_module._box_size_counts, verify_module.count_partitions_in_box

    def planted_table(parts, max_part):
        return tuple(count + ((parts, max_part, s) in planted) for s, count in enumerate(table(parts, max_part)))

    def planted_counter(box):
        past = box.size > box.capacity and (box.parts, box.max_part, box.size) in planted
        return counter(box) + past

    monkeypatch.setattr(verify_module, "_box_size_counts", planted_table)
    monkeypatch.setattr(verify_module, "count_partitions_in_box", planted_counter)


class TestVerifyCommand:
    def test_suite_rejects_nonpositive_range(self):
        from sbmotives import DomainError, run_identity_suite

        with pytest.raises(DomainError):
            run_identity_suite(0)

    def test_passes_on_correct_build(self, run_cli):
        result = run_cli("verify", "--max-n", "3")
        assert result.exit_code == 0
        assert "identities hold" in result.stdout
        assert "FAIL" not in result.stdout

    def test_json_report(self, run_cli):
        result = run_cli("verify", "--max-n", "2", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["passed"] is True
        assert all(entry["passed"] for entry in payload["results"])
        from sbmotives import run_identity_suite

        engine = run_identity_suite(2)
        assert [entry["identity"] for entry in payload["results"]] == [
            r.identity for r in engine.results
        ]

    @pytest.mark.parametrize(
        "check, line",
        [
            (verify_module._check_gaussian_brute_force, "gaussian_binomial(6,3) != brute-force histogram"),
            (verify_module._check_gaussian_symmetry, "gaussian_binomial(6,3) is not symmetric"),
            (verify_module._check_gaussian_total_rank, "rank of gaussian_binomial(6,3) != C(6,3)"),
        ],
        ids=["brute-force", "symmetry", "total-rank"],
    )
    def test_gaussian_identities_report_every_planted_mismatch(self, monkeypatch, check, line):
        # one extra class at degree 0 of [6, 3]: the coefficient, the mirror
        # coefficient at degree 9 and the rank 20 each disagree with it
        original = verify_module.gaussian_binomial

        def planted(d, k):
            poly = original(d, k)
            return poly + GradedRankPoly({0: 1}) if (d, k) == (6, 3) else poly

        monkeypatch.setattr(verify_module, "gaussian_binomial", planted)
        assert list(check(1)) == [line]

    def test_identity_suite_enumerates_each_box_once_per_run(self, monkeypatch):
        # the 91 boxes with parts + max_part <= 12, whose partitions number
        # 2**0 + ... + 2**12; box-count-oracle's 49 boxes are among them
        original = qpoly.enumerate_partitions_in_box

        def counting(calls, partitions):
            def enumerate_counted(parts, max_part):
                calls.append((parts, max_part))
                for lam in original(parts, max_part):
                    partitions.append(lam)
                    yield lam

            return enumerate_counted

        boxes = sorted((m, c) for m in range(13) for c in range(13 - m))
        for _ in range(2):  # a second run sees the enumerator patched after the first
            calls, partitions = [], []
            monkeypatch.setattr(verify_module, "enumerate_partitions_in_box", counting(calls, partitions))
            assert verify_module.run_identity_suite(1).passed
            assert sorted(calls) == boxes and len(boxes) == 91
            assert len(partitions) == 8191

    def test_mu_duality_walks_only_whole_rows(self, monkeypatch):
        # each (p, n, k) row is built once and held, so no mu read walks a cut row
        walks, original = [], qpoly._walk
        monkeypatch.setattr(qpoly, "_walk", lambda d, c, length: walks.append((d, c, length)) or original(d, c, length))
        gaussian_binomial.cache_clear()
        assert list(verify_module._check_mu_duality(3)) == []
        assert walks and all(length == c * (d - c) + 1 for d, c, length in walks)

    def test_box_count_oracle_reports_every_planted_mismatch(self, monkeypatch):
        # (3, 4, 5) lies in its box's DP table; (2, 2, 5) is one past the capacity
        plant_box_faults(monkeypatch, {(3, 4, 5), (2, 2, 5)})
        assert list(verify_module._check_box_count_oracle(1)) == [
            "recurrence vs enumeration mismatch at (2,2,5)",
            "recurrence vs enumeration mismatch at (3,4,5)",
        ]

    def test_box_count_duality_reports_every_planted_mismatch(self, monkeypatch):
        plant_box_faults(monkeypatch, {(3, 4, 5), (2, 2, 5)})
        assert list(verify_module._check_box_count_duality(1)) == [
            "box count (2,2,5) != coefficient",
            "box count (3,4,5) != coefficient",
        ]

    def test_both_box_identities_report_a_fault_one_past_the_capacity(self, monkeypatch):
        # the public counter's out-of-box branch; two past the capacity is never read
        plant_box_faults(monkeypatch, {(3, 3, 10), (3, 3, 11)})
        assert list(verify_module._check_box_count_duality(1)) == ["box count (3,3,10) != coefficient"]
        assert list(verify_module._check_box_count_oracle(1)) == ["recurrence vs enumeration mismatch at (3,3,10)"]

    def test_rank_homomorphism_reports_every_planted_mismatch(self, monkeypatch):
        # one extra class in 1 + 2q^3 shifted by 7, and in (5q)^2
        original_mul = GradedRankPoly.__mul__
        original_shift = GradedRankPoly.shift

        def planted_mul(self, other):
            product = original_mul(self, other)
            return product + GradedRankPoly({0: 1}) if self == other == GradedRankPoly({1: 5}) else product

        def planted_shift(self, twist):
            shifted = original_shift(self, twist)
            return shifted + GradedRankPoly({0: 1}) if (self, twist) == (GradedRankPoly({0: 1, 3: 2}), 7) else shifted

        monkeypatch.setattr(GradedRankPoly, "__mul__", planted_mul)
        monkeypatch.setattr(GradedRankPoly, "shift", planted_shift)
        assert list(verify_module._check_rank_homomorphism(1)) == [
            "rank not shift-invariant for 1 + 2*q^3 shifted by 7",
            "rank not multiplicative for 5*q * 5*q",
        ]

    def test_poincare_homomorphism_reports_every_planted_mismatch(self, monkeypatch):
        # a stray untwisted Tate summand in one sum, one twist and one product
        tate = MotiveExpr.of((TATE, 0))
        c21 = DivisionContext(2, 1)
        faulty = {
            "__add__": (tate, tate),
            "twist": (MotiveExpr.of((SBProduct(c21, (1, 1)), 1)), 5),
            "__mul__": (MotiveExpr.of((TATE, 1)), MotiveExpr.of((SBProduct(c21, (1,)), 0))),
        }
        add = MotiveExpr.__add__

        def planting(name):
            original = getattr(MotiveExpr, name)

            def planted(self, other):
                result = original(self, other)
                return add(result, tate) if (self, other) == faulty[name] else result

            return planted

        for name in faulty:
            monkeypatch.setattr(MotiveExpr, name, planting(name))
        assert list(verify_module._check_poincare_homomorphism(1)) == [
            "poincare(sum) mismatch for MotiveExpr([(Tate, twist=0)]) + MotiveExpr([(Tate, twist=0)])",
            "poincare(twist 5) mismatch for MotiveExpr([(SBProduct(p=2, n=1, dims=(1, 1)), twist=1)])",
            "poincare(product) mismatch for MotiveExpr([(Tate, twist=1)])"
            " * MotiveExpr([(SBProduct(p=2, n=1, dims=(1,)), twist=0)])",
        ]

    def test_ks_equality_reports_every_planted_mismatch(self, monkeypatch):
        # MotiveExpr.of misreads a twist in one pair and drops a repeated
        # summand in another
        original = MotiveExpr.of
        misread = {
            ((TATE, 4), (TATE, 0)): ((TATE, 4), (TATE, 1)),
            ((TATE, 0), (TATE, 0)): ((TATE, 0),),
        }
        monkeypatch.setattr(MotiveExpr, "of", staticmethod(lambda *terms: original(*misread.get(terms, terms))))
        assert list(verify_module._check_ks_equality(1)) == [
            "(MotiveExpr([(Tate, twist=0), (Tate, twist=4)]) == MotiveExpr([(Tate, twist=1), (Tate, twist=4)])) != True",
            "equal expressions with different polynomials: MotiveExpr([(Tate, twist=0), (Tate, twist=4)])",
            "(MotiveExpr([(Tate, twist=0)]) == MotiveExpr([(Tate, twist=0)])) != False",
        ]

    def test_mu_duality_reports_every_planted_mismatch(self, monkeypatch):
        # mu reads the Gaussian binomial, so a fault planted in the box DP
        # that verify compares it with shows up as a mu-duality failure.
        # Box (2, 2, s) is queried only at (p=2, n=2, k=1), at i = 8 - s;
        # box (2, 1, s) only at (p=3, n=1, k=0), at i = 5 - s.
        plant_box_faults(monkeypatch, {(2, 2, 5), (2, 2, 3), (2, 1, 0)})
        assert list(verify_module._check_mu_duality(3)) == [
            "mu duality fails at (p=2, n=2, k=1, i=3)",
            "mu duality fails at (p=2, n=2, k=1, i=5)",
            "mu duality fails at (p=3, n=1, k=0, i=5)",
        ]

    def test_vandermonde_conservation_reports_every_planted_mismatch(self, monkeypatch):
        original = verify_module.function_field_decomposition

        def extra_summand(variety):
            split = original(variety)
            if (variety.context.n, variety.level) in {(3, 2), (2, 1)}:
                return split + MotiveExpr.of((TATE, 1))
            return split

        monkeypatch.setattr(verify_module, "function_field_decomposition", extra_summand)
        assert list(verify_module._check_vandermonde_conservation(3)) == [
            "conservation fails at (n=2, k=1)",
            "conservation fails at (n=3, k=2)",
        ]

    def test_upper_lower_endpoints_reports_every_planted_mismatch(self, monkeypatch):
        # a second untwisted summand ties the upper end; a summand twisted
        # past the top degree takes the lower end
        original_split = verify_module.function_field_decomposition
        original_endpoints = verify_module.function_field_endpoints
        extra = {(3, 2): (TATE, 0), (4, 1): (TATE, 10**3)}

        def planted_split(variety):
            split = original_split(variety)
            key = (variety.context.n, variety.level)
            return split + MotiveExpr.of(extra[key]) if key in extra else split

        def planted_endpoints(context, level):
            upper, lower = original_endpoints(context, level)
            if (context.n, level) == (3, 1):
                return upper, Term(lower.obj, lower.twist + 1)
            return upper, lower

        monkeypatch.setattr(verify_module, "function_field_decomposition", planted_split)
        monkeypatch.setattr(verify_module, "function_field_endpoints", planted_endpoints)
        assert list(verify_module._check_upper_lower_endpoints(4)) == [
            "endpoint twist mismatch at (n=3, k=1)",
            "upper term mismatch at (n=3, k=2)",
            "lower term mismatch at (n=4, k=1)",
        ]

    def test_chow_order_degenerate_reports_every_planted_mismatch(self, monkeypatch):
        # one class too many at i = 0; the wrong prime at i = 2
        original = verify_module.rational_chow_order

        def planted(variety, i):
            report = original(variety, i)
            if i == 0:
                return ChowOrderReport(report.prime, i, report.summand_count + 1)
            if i == 2:
                return ChowOrderReport(3, i, report.summand_count)
            return report

        monkeypatch.setattr(verify_module, "rational_chow_order", planted)
        assert list(verify_module._check_chow_degenerate(1)) == [
            "chow order at i=0: exponent 1",
            "chow order at i=2: exponent 1",
            "literal order not preserved at i=2",
            "exponent-zero locus disagrees with the out-of-box sizes",
        ]

    def test_classifier_known_cases_reports_every_planted_mismatch(self, monkeypatch):
        # 8 = 2^3 is open but claimed covered; 9 = 3^2 is open without its blocking factor
        original = verify_module.classify_reduced_dimension

        def planted(k):
            got = original(k)
            if k == 8:
                return CaseClassification(8, True, None, None, None, got.reductions)
            if k == 9:
                return CaseClassification(9, False, None, None, None, got.reductions)
            return got

        monkeypatch.setattr(verify_module, "classify_reduced_dimension", planted)
        assert list(verify_module._check_classifier_known_cases(1)) == [
            "classifier disagrees with factorization at k=8",
            "open case without blocking factor at k=9",
        ]

    def test_classifier_known_cases_catches_a_planted_calculus_verdict(self, monkeypatch):
        # the (p = 2, level 3) case given bound 0 covers every k <= 100 whose only square factor is 8
        original = type_calculus.type_bound

        def planted(variety):
            if (variety.context.p, variety.level) == (2, 3):
                return type_calculus.TypeBound(variety, 0)
            return original(variety)

        monkeypatch.setattr(type_calculus, "type_bound", planted)
        assert list(verify_module._check_classifier_known_cases(1)) == [
            f"classifier disagrees with factorization at k={k}" for k in (8, 24, 40, 56, 88)
        ]

    @staticmethod
    def _plant_obstruction_row(monkeypatch, planted):
        rule = RULE_CATALOG["dimension-obstruction"]

        def record(p, n, k, bound):
            return planted.get((n, k)) or rule.record(p, n, k, bound)

        monkeypatch.setitem(RULE_CATALOG, rule.rule_id, Rule(rule.rule_id, rule.citation, record, rule.check, rule.template))

    def test_dimension_obstruction_reports_every_planted_mismatch(self, monkeypatch):
        recorded = RULE_CATALOG["dimension-obstruction"].record(2, 6, 3, 1)
        planted = {(6, 3): {**recorded, "endpoint_dim": recorded["endpoint_dim"] + 1}}
        self._plant_obstruction_row(monkeypatch, planted)
        assert list(verify_module._check_dimension_obstruction(1)) == ["obstruction fails at (n=6, k=3)"]

    def test_dimension_obstruction_needs_the_factor_below_the_endpoints(self, monkeypatch):
        # the row and the endpoint twist agree at (6, 3) on two equal
        # dimensions, so only the comparison can fail there
        factor_dim = SBVariety(DivisionContext(2, 5), 2).dimension()
        endpoints = verify_module.function_field_endpoints

        def planted_endpoints(context, level):
            upper, lower = endpoints(context, level)
            return (upper, Term(lower.obj, factor_dim)) if (context.n, level) == (6, 2) else (upper, lower)

        monkeypatch.setattr(verify_module, "function_field_endpoints", planted_endpoints)
        self._plant_obstruction_row(monkeypatch, {(6, 3): {"product_dim": 2 * factor_dim, "endpoint_dim": 2 * factor_dim}})
        assert list(verify_module._check_dimension_obstruction(1)) == ["obstruction fails at (n=6, k=3)"]

    def test_type_bound_table_reports_every_planted_mismatch(self, monkeypatch):
        # -2 at (2, 3, 1) is also below the range; 0 at (3, 2, 2) is inside it
        original = verify_module.type_bound
        planted = {(2, 3, 1): -2, (3, 2, 2): 0}

        def wrong_bound(variety):
            derived = original(variety)
            key = (variety.context.p, variety.context.n, variety.level)
            return type_calculus.TypeBound(derived.variety, planted.get(key, derived.bound))

        monkeypatch.setattr(verify_module, "type_bound", wrong_bound)
        assert list(verify_module._check_type_bound_table(3)) == [
            "type bound (p=2, n=3, k=1) = -2",
            "bound outside [-1, k-1] at (p=2, n=3, k=1)",
            "type bound (p=3, n=2, k=2) = 0",
        ]

    def test_indecomposability_level_one_reports_every_planted_mismatch(self, monkeypatch):
        original = verify_module.indecomposability_judgment

        def unknown_at_two(variety):
            judgment = original(variety)
            if variety.context.n != 2:
                return judgment
            return type_calculus.Judgment(judgment.variety, type_calculus.IndecomposabilityStatus.UNKNOWN, judgment.bound)

        monkeypatch.setattr(verify_module, "indecomposability_judgment", unknown_at_two)
        assert list(verify_module._check_indecomposability_level_one(3)) == [
            "level-1 variety not judged indecomposable at n=2"
        ]

    def test_trace_replay_reports_every_planted_mismatch(self, monkeypatch):
        # claiming rigidity at bound 1 closes with a type-zero transfer of
        # bound 1, which fails replay
        original = verify_module.rigidity_judgment

        def overclaiming(variety):
            judgment = original(variety)
            if (variety.context.p, variety.context.n, variety.level) != (3, 2, 2):
                return judgment
            return type_calculus.Judgment(judgment.variety, type_calculus.RigidityStatus.CONJECTURE_HOLDS, judgment.bound)

        monkeypatch.setattr(verify_module, "rigidity_judgment", overclaiming)
        assert list(verify_module._check_trace_replay(2)) == ["trace replay fails at (p=3, n=2, k=2)"]

    def test_trace_replay_reports_a_trace_about_another_variety(self, monkeypatch):
        # the type bound of (3, 2, 1) handed out for (5, 2, 1): a sound trace,
        # but not about the variety it is checked for
        original = verify_module.type_bound

        def swapped(variety):
            if (variety.context.p, variety.context.n, variety.level) != (5, 2, 1):
                return original(variety)
            return original(SBVariety(DivisionContext(3, 2), 1))

        monkeypatch.setattr(verify_module, "type_bound", swapped)
        assert list(verify_module._check_trace_replay(2)) == ["trace replay fails at (p=5, n=2, k=1)"]

    def test_rigidity_classifier_agreement_reports_every_planted_mismatch(self, monkeypatch):
        original = verify_module.rigidity_judgment

        def unknown_at(variety):
            judgment = original(variety)
            if (variety.context.p, variety.context.n, variety.level) != (5, 2, 1):
                return judgment
            return type_calculus.Judgment(judgment.variety, type_calculus.RigidityStatus.UNKNOWN, judgment.bound)

        monkeypatch.setattr(verify_module, "rigidity_judgment", unknown_at)
        assert list(verify_module._check_rigidity_classifier_agreement(1)) == [
            "rigidity unknown at (p=5, n=2, level=1)"
        ]

    def test_failure_exits_three(self, run_cli, monkeypatch):
        fake = SuiteReport(
            max_n=2,
            results=(
                IdentityResult("demo/pass", True, ()),
                IdentityResult("demo/fail", False, ("broken",)),
            ),
        )
        monkeypatch.setattr(verify_module, "run_identity_suite", lambda max_n: fake)
        result = run_cli("verify", "--max-n", "2")
        assert result.exit_code == 3
        assert "FAIL demo/fail" in result.stdout
        assert "failing: demo/fail" in result.stdout
