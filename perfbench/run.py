"""The sbmotives benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout.  Workloads (see README.md for why each):

    grassmannian   distinct Gaussian binomials, polynomial products on both
                   sides of the Kronecker switch, box-count tables (qpoly)
    verify         ``sbmotives verify --max-n 7`` through the CLI entry point
    trace-replay   type-calculus judgments, JSON round trips and replays
    cli-mix        a stream of ``sbmotives`` invocations, one process each

A pass runs the workload's seeded op set in fresh child processes; passes
repeat for about ``--seconds``.  Every output is checked against the oracle
outside the timed region.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics (medians over passes), with ``--trace 1`` the
per-layer metrics of a traced pass next to an untraced one.  The exit code
is 1 when any op failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clicheck  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

IN_PROCESS = {"grassmannian", "trace-replay"}


SETUP_SAMPLES = 7
# Every child must end well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "qpoly.gaussian_binomial.calls": "count",
    "qpoly.gaussian_binomial.self_s": "s",
    "qpoly.gaussian_binomial.hit_ratio": "ratio",
    "qpoly.count_partitions_in_box.calls": "count",
    "qpoly.count_partitions_in_box.self_s": "s",
    "qpoly.mul.calls": "count",
    "qpoly.mul.self_s": "s",
    "qpoly.mul.kronecker_share": "ratio",
    "qpoly.enumerate_partitions_in_box.calls": "count",
    "qpoly.enumerate_partitions_in_box.self_s": "s",
    "qpoly.coeff_count": "count",
    "qpoly.coeff_bits_max": "bits",
    "motive.split_poincare.calls": "count",
    "motive.split_poincare.self_s": "s",
    "motive.identify_upper_lower.calls": "count",
    "motive.identify_upper_lower.self_s": "s",
    "severi_brauer.function_field_decomposition.calls": "count",
    "severi_brauer.function_field_decomposition.self_s": "s",
    "severi_brauer.mu.calls": "count",
    "severi_brauer.mu.self_s": "s",
    "severi_brauer.rational_chow_order.calls": "count",
    "severi_brauer.rational_chow_order.self_s": "s",
    "severi_brauer.classify_reduced_dimension.calls": "count",
    "severi_brauer.classify_reduced_dimension.self_s": "s",
    "type_calculus.build.calls": "count",
    "type_calculus.build.self_s": "s",
    "type_calculus.replay.calls": "count",
    "type_calculus.replay.self_s": "s",
    "type_calculus.json.self_s": "s",
    "type_calculus.trace_steps": "count",
    "verify.run_identity_suite.calls": "count",
    "verify.run_identity_suite.self_s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.exit_nonzero_ratio": "ratio",
    "trace.overhead_s": "s",
}

# layer metrics whose calls and self time the tracer records as spans
SPAN_METRICS = sorted({entry[0] for entry in tracer.FUNCTIONS + tracer.METHODS})


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


class Pass:
    """Results of one pass over the op set."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.latencies: list[float] = []
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.layers: list[dict] = []  # tracer summaries, one per child
        self.speed: list[float] = []  # reference factor of each child
        self.stdout_bytes = 0
        self.nonzero_exits = 0


class Runner:
    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.spec = inputs.generate(workload, seed, scale)
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.env["PYTHONHASHSEED"] = "0"
        self.work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
        self.spawned_at = 0.0
        self.child_s = 0.0  # wall time of the last child, unscaled

    def _remaining(self) -> float:
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def _spawn(self, argv: list[str]) -> tuple[int, str, str]:
        """Run a child to completion: exit code, stdout and stderr."""
        self.spawned_at = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child timed out: {argv[2:]}")
        self.child_s = time.monotonic() - self.spawned_at
        return proc.returncode, out, err

    # -- set-up -----------------------------------------------------------

    def setup_samples(self, count: int) -> list[float]:
        """Reference seconds from a fresh interpreter until ``import sbmotives.cli``
        returns.

        One unmeasured import first, so bytecode caches exist as they do for a
        user after the first run.
        """
        argv = [sys.executable, str(HERE / "child.py"), "import"]
        samples = []
        for i in range(count + 1):
            status, out, err = self._spawn(argv)
            if status != 0:
                raise BenchError(f"import sbmotives.cli failed: {err.strip()[-500:]}")
            data = json.loads(out)
            if i:
                took = data["imported_at"] - self.spawned_at - data["sampling_s"]
                samples.append(took * speed.factor(data["speed_samples"]))
        return samples

    # -- passes -----------------------------------------------------------

    def run_pass(self, traced: bool) -> Pass:
        if self.workload in IN_PROCESS:
            return self._ops_pass(traced)
        return self._cli_pass(traced)

    def _ops_pass(self, traced: bool) -> Pass:
        argv = [sys.executable, str(HERE / "child.py"), "ops", self.workload, str(self.seed), self.scale]
        status, out, err = self._spawn(argv + (["--trace"] if traced else []))
        if status != 0:
            raise BenchError(f"{self.workload} child exited {status}: {err.strip()[-2000:]}")
        data = json.loads(out.splitlines()[-1])
        factor = speed.factor(data["speed_samples"])
        result = Pass(traced)
        result.speed.append(factor)
        result.latencies = data["latencies_s"]  # already in reference seconds, op by op
        result.wall_s = data["wall_s"]
        result.attempted = data["attempted"]
        result.failed = data["failed"]
        result.failures = data["failures"]
        result.peak_rss_kb = data["peak_rss_kb"]
        if data["layers"] is not None:
            result.layers.append(_scaled(data["layers"], factor))
        return result

    def _cli_pass(self, traced: bool) -> Pass:
        result = Pass(traced)
        stats_path = self.work / "stats.json"
        child = [sys.executable, str(HERE / "child.py"), "cli", str(stats_path)]
        child += ["--trace", "--"] if traced else ["--"]
        for op in self.spec["ops"]:
            stats_path.unlink(missing_ok=True)
            code, out, err = self._spawn(child + op["args"])
            result.attempted += 1
            result.stdout_bytes += len(out.encode())
            result.nonzero_exits += code != 0
            problems = clicheck.check_invocation(op, code, out, err)
            if not stats_path.is_file():
                result.failed += 1
                result.failures.extend(problems + [f"{' '.join(op['args'])}: child wrote no stats"])
                result.latencies.append(self.child_s)
                result.wall_s += self.child_s
                continue
            if problems:
                result.failed += 1
                result.failures.extend(problems)
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            factor = speed.factor(stats["speed_samples"])
            result.speed.append(factor)
            result.latencies.append((self.child_s - stats["sampling_s"]) * factor)
            # verify's wall time is the suite time; a stream's is its total
            result.wall_s += stats["elapsed_s"] * factor if self.workload == "verify" else result.latencies[-1]
            result.peak_rss_kb = max(result.peak_rss_kb, stats["peak_rss_kb"])
            if stats["layers"] is not None:
                result.layers.append(_scaled(stats["layers"], factor))
        return result

    def passes(self, seconds: float, kinds: list[bool]) -> list[Pass]:
        """Passes cycling through ``kinds`` (traced or not) for about ``seconds``:
        another pass starts while at least a third of one still fits."""
        done: list[Pass] = []
        start = time.monotonic()
        while True:
            done.append(self.run_pass(kinds[len(done) % len(kinds)]))
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(done)
            if len(done) >= len(kinds) and (
                elapsed + per_pass / 3 > seconds
                or time.monotonic() - self.started + per_pass > RUN_BUDGET_S * 0.8
            ):
                return done


def _scaled(summary: dict, factor: float) -> dict:
    """A tracer summary with its self times scaled to reference seconds."""
    return {**summary, "self_s": {name: t * factor for name, t in summary["self_s"].items()}}


def tail_point(count: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten ops beyond it, and its rank.

    Nearest-rank: the value at 1-based rank ``ceil(pct * count / 100)``.  With
    ten ops or fewer no percentile qualifies; the slowest op (100) is used.
    """
    if count <= 10:
        return 100, count
    pct = (100 * (count - 10)) // count
    return pct, math.ceil(pct * count / 100)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    _, rank = tail_point(len(passes[0].latencies))
    return {
        "setup_s": _median(setup),
        "wall_s": _median([p.wall_s for p in passes]),
        "op_p50_ms": 1000 * _median([_median(p.latencies) for p in passes]),
        "op_tail_ms": 1000 * _median([sorted(p.latencies)[rank - 1] for p in passes]),
        "peak_rss_mb": _median([p.peak_rss_kb for p in passes]) / 1024,
    }


def _layer_totals(p: Pass) -> tuple[dict, dict, dict]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for summary in p.layers:
        for name, n in summary["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in summary["counters"].items():
            if name == "qpoly.coeff_bits_max":
                counters[name] = max(counters.get(name, 0), n)
            else:
                counters[name] = counters.get(name, 0) + n
    return calls, self_s, counters


def per_layer(passes: list[Pass], cli_workload: bool) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every traced pass counted the same calls."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    totals = [_layer_totals(p) for p in traced]
    calls, _, counters = totals[0]
    repeatable = all(t[0] == calls and t[2] == counters for t in totals)
    metrics: dict[str, float] = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = _median([t[1].get(name, 0.0) for t in totals])
    gb_hits = counters.get("qpoly.gaussian_binomial.hits", 0)
    gb_lookups = gb_hits + counters.get("qpoly.gaussian_binomial.misses", 0)
    muls = calls.get("qpoly.mul", 0)
    invocations = traced[0].attempted if cli_workload else 0
    metrics.update(
        {
            "qpoly.gaussian_binomial.hit_ratio": gb_hits / gb_lookups if gb_lookups else 0.0,
            "qpoly.mul.kronecker_share": counters.get("qpoly.mul.kronecker", 0) / muls if muls else 0.0,
            "qpoly.coeff_count": counters.get("qpoly.coeff_count", 0),
            "qpoly.coeff_bits_max": counters.get("qpoly.coeff_bits_max", 0),
            "type_calculus.trace_steps": counters.get("type_calculus.trace_steps", 0),
            "cli.invocations": invocations,
            "cli.self_s": _median([t[1].get("cli", 0.0) for t in totals]),
            "cli.stdout_bytes": traced[0].stdout_bytes,
            "cli.exit_nonzero_ratio": traced[0].nonzero_exits / invocations if invocations else 0.0,
            "trace.overhead_s": _median([p.wall_s for p in traced]) - _median([p.wall_s for p in plain]),
        }
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}, repeatable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=inputs.SCALES, help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sbmotives" / "cli.py").is_file():
        print(f"error: no sbmotives sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # library answers that cli-mix output is checked against
    runner = Runner(args.workload, args.seed, args.scale)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else runner.setup_samples(SETUP_SAMPLES if args.scale == "full" else 1)
        passes = runner.passes(args.seconds, [False, True] if args.trace else [False])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs": runner.spec["properties"],
        "passes": len(passes),
        "reference_factor": _median([f for p in passes for f in p.speed]),
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
    }
    if args.trace:
        metrics, repeatable = per_layer(passes, args.workload not in IN_PROCESS)
        units = PER_LAYER_UNITS
        details["calls_repeat_across_passes"] = repeatable
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
        pct, rank = tail_point(len(passes[0].latencies))
        details["op_tail"] = {"percentile": pct, "ops_per_pass": len(passes[0].latencies), "ops_beyond": len(passes[0].latencies) - rank}
        details["setup_samples"] = len(setup)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, value in metrics.items():
        print(f"{name:50s} {value:14.6f} {units[name]}")
    print(f"{'failed_ratio':50s} {failed / attempted:14.6f} ratio ({failed} of {attempted} ops)")
    print("details " + json.dumps(details, sort_keys=True))
    correct = failed == 0 and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
