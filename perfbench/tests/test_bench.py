"""Tests of the benchmark itself: generator, oracle, tracer and a smoke run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SEEDED = ("grassmannian", "trace-replay", "cli-mix")


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)


@pytest.mark.parametrize("workload", SEEDED)
def test_generator_differs_across_seeds(workload):
    assert inputs.generate(workload, 7)["ops"] != inputs.generate(workload, 8)["ops"]


def test_grassmannian_never_repeats_a_query_and_straddles_the_kronecker_switch():
    spec = inputs.generate("grassmannian", 3)
    keys = [(op["d"], op["k"]) for op in spec["ops"] if op["kind"] == "gaussian"]
    assert len(keys) == len(set(keys))
    assert all(32 <= d <= 128 and 0 <= k <= d for d, k in keys)
    assert spec["properties"]["kronecker_share"] == 0.5


def test_trace_replay_and_cli_mix_shares_are_fixed():
    replay = inputs.generate("trace-replay", 3)["properties"]
    assert replay["tampered_share"] == 0.2 and replay["largest_k_at_p2"] == 16
    assert inputs.generate("cli-mix", 3)["properties"]["invalid_share"] == 0.1


# -- oracle --------------------------------------------------------------------


def _gaussian_coeffs(d, k):
    """[d choose k]_q by the q-Pascal rule [m, j] = [m-1, j-1] + q^j [m-1, j]."""
    rows = {(0, 0): {0: 1}}
    for m in range(1, d + 1):
        for j in range(0, min(m, k) + 1):
            out: dict[int, int] = {}
            for deg, c in rows.get((m - 1, j - 1), {}).items():
                out[deg] = out.get(deg, 0) + c
            for deg, c in rows.get((m - 1, j), {}).items():
                out[deg + j] = out.get(deg + j, 0) + c
            rows[(m, j)] = out
    return rows[(d, k)]


def test_oracle_accepts_a_correct_gaussian_and_rejects_a_perturbed_coefficient():
    coeffs = _gaussian_coeffs(9, 4)
    assert sum(coeffs.values()) == math.comb(9, 4)
    assert oracle.check_gaussian(9, 4, coeffs) == []
    bad = dict(coeffs)
    bad[7] += 1
    assert oracle.check_gaussian(9, 4, bad)


def test_oracle_rejects_a_perturbed_product_and_box_count():
    a, b = {0: 3, 2: 5}, {1: 7, 2: 1}
    good = {1: 21, 2: 3, 3: 35, 4: 5}
    assert oracle.check_product(a, b, good) == []
    assert oracle.check_product(a, b, {**good, 3: 36})
    counts = [_gaussian_coeffs(7, 3).get(s, 0) for s in range(13)]
    assert oracle.check_box_table(3, 4, counts) == []
    counts[5] -= 1
    assert oracle.check_box_table(3, 4, counts)


def test_oracle_rejects_a_wrong_bound():
    op = {"p": 2, "n": 5, "k": 3, "tamper": ["level-bound", "bound", 1]}
    good = {
        "bound": 1,
        "statuses": ["unknown", "unknown"],
        "replays": [True, True, True],
        "round_trip_equal": True,
        "tampered_replay": False,
    }
    assert oracle.check_judgments(op, good) == []
    assert oracle.check_judgments(op, {**good, "bound": 2})
    assert oracle.check_judgments({**op, "p": 3}, good)  # closed form is k - 1 at odd p
    assert oracle.check_judgments(op, {**good, "tampered_replay": True})


def test_oracle_rejects_a_wrong_exit_code_and_a_traceback():
    assert oracle.check_exit(2, 2, "Error: 4 is not prime") == []
    assert oracle.check_exit(2, 1, "")
    assert oracle.check_exit(0, 0, "Traceback (most recent call last):\n  ...")


def test_squarefree_classification():
    covered = [k for k in range(1, 30) if oracle.squarefree_classification(k)]
    assert 4 in covered and 12 in covered and 20 in covered
    assert not any(k in covered for k in (8, 9, 16, 18, 24, 25, 27))


# -- tracer --------------------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    # root 0..10 with children a 1..4 (grandchild b 2..3) and c 5..9
    parents = [-1, 0, 1, 0]
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, names, starts, ends) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}


def test_self_time_sums_repeated_names():
    parents = [-1, 0, 0]
    names = ["x", "x", "y"]
    assert self_times(parents, names, [0.0, 1.0, 3.0], [5.0, 2.0, 4.0]) == {"x": 4.0, "y": 1.0}


def test_tracer_links_nested_spans_to_their_parent():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    second = tracer.begin("outer")
    tracer.end(second)
    assert list(tracer.parents) == [-1, 0, -1]
    totals = tracer.summary()["self_s"]
    assert set(totals) == {"outer", "inner"} and all(v >= 0 for v in totals.values())


def test_tail_point_leaves_ten_ops_beyond():
    for count in (11, 40, 120, 128, 1000):
        pct, rank = run.tail_point(count)
        assert count - rank >= 10
        assert count - math.ceil((pct + 1) * count / 100) < 10
    assert run.tail_point(1) == (100, 1)


# -- smoke runs ----------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_run_at_tiny_sizes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert list(result["metrics"]) == declared
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "trace-replay":
        assert all(values[n] == 0 for n in values if n.startswith("qpoly.") and n.endswith(".calls"))
        assert values["type_calculus.replay.calls"] > 0
    if workload == "grassmannian":
        assert all(values[n] == 0 for n in values if n.startswith("type_calculus.") and n.endswith(".calls"))
        assert values["qpoly.gaussian_binomial.calls"] > 0
        assert values["qpoly.gaussian_binomial.hit_ratio"] == 0
    if workload in ("verify", "cli-mix"):
        # bound by name in verify and cli, not only in qpoly
        assert values["qpoly.gaussian_binomial.calls"] > 0
        assert values["cli.invocations"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "grassmannian", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
