"""Child process of the benchmark, and its tracer entry point.

Every pass of a workload runs in fresh processes started from here, so the
unbounded ``lru_cache``s of ``sbmotives`` start empty and the peak resident
memory belongs to that pass alone.

    python3 perfbench/child.py ops WORKLOAD SEED SCALE [--trace]

runs the in-process op set of ``grassmannian`` or ``trace-replay``, checks
each output against the oracle outside the op's clock, and prints one JSON
line: per-op latencies in reference seconds, failed ops, peak memory, the
speed samples and, when traced, the per-layer summary.

    python3 perfbench/child.py cli STATS_FILE [--trace] -- ARGS...

runs ``sbmotives ARGS...`` in this process exactly as the console script
does; stdout, stderr and the exit code are the command's own.  Timings,
peak memory and, when traced, the per-layer summary go to STATS_FILE.

    python3 perfbench/child.py import

prints when ``import sbmotives.cli`` returned in this fresh interpreter.

Every mode samples the host's speed while it works (see speed.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time

from speed import SpeedSampler, factor


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _start_tracer(traced: bool):
    if not traced:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


# -- in-process ops: each returns raw outputs, checked after the clock stops --


def _op_gaussian(op):
    from sbmotives import qpoly

    return qpoly.gaussian_binomial(op["d"], op["k"])


def _op_product(op):
    from sbmotives import qpoly

    return qpoly.GradedRankPoly(op["a"]) * qpoly.GradedRankPoly(op["b"])


def _op_box_table(op):
    from sbmotives import qpoly

    parts, max_part = op["parts"], op["max_part"]
    return [
        qpoly.count_partitions_in_box(qpoly.PartitionBoxSpec(parts, max_part, size))
        for size in range(parts * max_part + 1)
    ]


def _op_judgments(op):
    from sbmotives import motive, severi_brauer, type_calculus

    variety = severi_brauer.SBVariety(motive.DivisionContext(op["p"], op["n"]), op["k"])
    judged = (
        type_calculus.type_bound(variety),
        type_calculus.indecomposability_judgment(variety),
        type_calculus.rigidity_judgment(variety),
    )
    traces, replays = [], []
    for item in judged:
        decoded = type_calculus.ProofTrace.from_json_obj(
            json.loads(json.dumps(item.trace.to_json_obj()))
        )
        traces.append((item.trace, decoded))
        replays.append(decoded.replay())
    tampered = None
    if op["tamper"] is not None:
        rule_id, field, delta = op["tamper"]
        encoded = json.loads(json.dumps(judged[0].trace.to_json_obj()))
        step = [s for s in encoded if s["rule_id"] == rule_id][-1]
        step["conditions"][field] = str(int(step["conditions"][field]) + delta)
        tampered = type_calculus.ProofTrace.from_json_obj(encoded).replay()
    return {
        "bound": judged[0].bound,
        "statuses": [judged[1].status.value, judged[2].status.value],
        "replays": replays,
        "traces": traces,
        "tampered_replay": tampered,
    }


def _check(op, result) -> list[str]:
    import oracle

    kind = op["kind"]
    if kind == "gaussian":
        return oracle.check_gaussian(op["d"], op["k"], dict(result.items()))
    if kind == "product":
        return oracle.check_product(op["a"], op["b"], dict(result.items()))
    if kind == "box-table":
        return oracle.check_box_table(op["parts"], op["max_part"], result)
    result["round_trip_equal"] = all(a == b for a, b in result.pop("traces"))
    return oracle.check_judgments(op, result)


_OPS = {
    "gaussian": _op_gaussian,
    "product": _op_product,
    "box-table": _op_box_table,
    "judgments": _op_judgments,
}


def run_ops(workload: str, seed: int, scale: str, traced: bool) -> dict:
    import inputs

    ops = inputs.generate(workload, seed, scale)["ops"]
    import sbmotives  # noqa: F401  (import cost is set-up, not op time)

    tracer = _start_tracer(traced)
    sampler = SpeedSampler()
    sampler.start()
    raw, windows, failures, failed = [], [], [], 0
    for op in ops:
        run = _OPS[op["kind"]]
        sampled = sampler.overhead_s
        first = len(sampler.samples)
        start = time.perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # an op that raises is a failed op; keep going
            result, problems = None, [f"{op['kind']} raised {exc!r}"]
        raw.append(time.perf_counter() - start - (sampler.overhead_s - sampled))
        windows.append((first, len(sampler.samples)))
        if result is not None:
            problems = _check(op, result)
        if problems:
            failed += 1
            failures.extend(problems)
    sampler.stop()
    # each op in reference seconds, by the speed samples nearest to it: the
    # last one before, those during and the first one after
    samples = sampler.samples
    latencies = [t * factor(samples[max(0, a - 1) : b + 1]) for t, (a, b) in zip(raw, windows)]
    return {
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        "attempted": len(ops),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_kb": _peak_rss_kb(),
        "speed_samples": sampler.samples,
        "layers": tracer.summary() if tracer else None,
    }


def run_cli(stats_path: str, traced: bool, args: list[str]) -> None:
    sampler = SpeedSampler()
    sampler.start()
    import sbmotives.cli

    tracer = _start_tracer(traced)
    sys.argv = ["sbmotives", *args]
    code: object = 0
    span = tracer.begin("cli") if tracer else None
    sampled = sampler.overhead_s
    start = time.perf_counter()
    try:
        sbmotives.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        elapsed = time.perf_counter() - start - (sampler.overhead_s - sampled)
        if tracer:
            tracer.end(span)
        sampler.stop()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "elapsed_s": elapsed,
                    "peak_rss_kb": _peak_rss_kb(),
                    "speed_samples": sampler.samples,
                    "sampling_s": sampler.overhead_s,
                    "layers": tracer.summary() if tracer else None,
                },
                handle,
            )
    sys.exit(code)


def run_import() -> None:
    """Print when ``import sbmotives.cli`` returned, with the speed samples."""
    sampler = SpeedSampler()
    sampler.start()
    import sbmotives.cli  # noqa: F401

    done = time.monotonic()
    sampling = sampler.overhead_s
    sampler.stop()
    sys.stdout.write(json.dumps({"imported_at": done, "sampling_s": sampling, "speed_samples": sampler.samples}) + "\n")


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "ops":
        workload, seed, scale = argv[1], int(argv[2]), argv[3]
        result = run_ops(workload, seed, scale, "--trace" in argv[4:])
        sys.stdout.write(json.dumps(result) + "\n")
    elif mode == "cli":
        split = argv.index("--")
        run_cli(argv[1], "--trace" in argv[2:split], argv[split + 1 :])
    elif mode == "import":
        run_import()
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
