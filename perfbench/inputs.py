"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, scale)`` returns the op set of one pass and the
input properties that claims about the workload cite.  The same seed gives
the same ops.  Sizes are stratified (every op draws from its own cell of a
fixed grid), so the total work of an op set barely moves with the seed: the
spread between runs on different seeds measures the program, not the draw.

This module imports nothing from ``sbmotives``; the program receives only the
arguments generated here.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("grassmannian", "verify", "trace-replay", "cli-mix")
SCALES = ("full", "tiny")

# GradedRankPoly.__mul__ switches from schoolbook to Kronecker convolution
# when the two dense operands have more than this many coefficient pairs.
KRONECKER_PAIRS = 1 << 12

VERIFY_MAX_N = {"full": 7, "tiny": 3}


def generate(workload: str, seed: int, scale: str = "full") -> dict:
    """Op set and input properties of one pass of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grassmannian":
        return _grassmannian(rng, scale)
    if workload == "trace-replay":
        return _trace_replay(rng, scale)
    if workload == "cli-mix":
        return _cli_mix(rng, scale)
    max_n = VERIFY_MAX_N[scale]
    ops = [{"kind": "cli", "args": ["verify", "--max-n", str(max_n)], "expect_exit": 0, "fmt": "text"}]
    return {"ops": ops, "properties": {"ops": 1, "max_n": max_n, "repeat_share": 0.0}}


def _near(rng: random.Random, center: int, jitter: int, lo: int) -> int:
    """``center`` moved by at most ``jitter``, never below ``lo``."""
    return max(lo, center + rng.randint(-jitter, jitter))


def _random_poly(rng: random.Random, length: int) -> dict[int, int]:
    """Coefficients of a dense-length ``length`` rank polynomial.

    Both ends are nonzero so the dense length is exact; about one interior
    coefficient in twenty is zero.
    """
    offset = rng.randint(0, 16)
    coeffs = {}
    for i in range(length):
        interior = 0 < i < length - 1
        if interior and rng.random() < 0.05:
            continue
        coeffs[offset + i] = rng.getrandbits(rng.randint(1, 128)) | 1
    return coeffs


def _grassmannian(rng: random.Random, scale: str) -> dict:
    full = scale == "full"
    # (d, min(k, d-k)) cell centers; the cost of a query grows steeply with both
    d_centers = range(36, 125, 12) if full else (33, 38)
    col_centers = range(2, 17, 2) if full else (2, 3)
    ops: list[dict] = []
    seen: set[tuple[int, int]] = set()
    for d_center in d_centers:
        for col in col_centers:
            while True:  # no (d, k) twice, so the binomial cache never hits
                d = min(128, _near(rng, d_center, 2, 32))
                k = col if rng.random() < 0.5 else d - col
                if (d, k) not in seen:
                    break
            seen.add((d, k))
            ops.append({"kind": "gaussian", "d": d, "k": k})
    # products on both sides of the schoolbook/Kronecker switch, half each
    school_centers = (24, 32, 40, 48, 56, 60) if full else (8,)
    kron_centers = (80, 120, 160, 200, 240, 280) if full else (80,)
    for centers, jitter in ((school_centers, 3), (kron_centers, 8)):
        for la, lb in itertools.product(centers, repeat=2):
            a = _random_poly(rng, _near(rng, la, jitter, 1))
            b = _random_poly(rng, _near(rng, lb, jitter, 1))
            ops.append({"kind": "product", "a": a, "b": b})
    # full box-count tables, one per distinct box
    box_centers = (5, 9, 13, 17) if full else (4,)
    boxes: set[tuple[int, int]] = set()
    for parts_center in box_centers:
        for max_center in box_centers:
            while True:
                box = (_near(rng, parts_center, 1, 1), _near(rng, max_center, 1, 1))
                if box not in boxes:
                    break
            boxes.add(box)
            ops.append({"kind": "box-table", "parts": box[0], "max_part": box[1]})
    rng.shuffle(ops)
    products = [op for op in ops if op["kind"] == "product"]
    kron = sum(
        1 for op in products if _dense_len(op["a"]) * _dense_len(op["b"]) > KRONECKER_PAIRS
    )
    gaussians = [op for op in ops if op["kind"] == "gaussian"]
    return {
        "ops": ops,
        "properties": {
            "ops": len(ops),
            "gaussian_queries": len(gaussians),
            "products": len(products),
            "box_tables": len(boxes),
            "repeat_share": 0.0,
            "kronecker_share": kron / len(products),
            "largest_d": max(op["d"] for op in gaussians),
        },
    }


def _dense_len(coeffs: dict[int, int]) -> int:
    return max(coeffs) - min(coeffs) + 1


# Fields of a type-bound trace whose change every rule check rejects.
_TAMPERS_ANY_P = (("level-bound", "bound"),)
_TAMPERS_HALVING = (
    ("function-field-split", "term_count"),
    ("valuation-case-split", "required_level"),
    ("dimension-obstruction", "product_dim"),
)
_TAMPERS_POINT = (("point-base", "variety_dim"),)


def _trace_replay(rng: random.Random, scale: str) -> dict:
    full = scale == "full"
    n_ops = 120 if full else 10
    max_k = 16 if full else 6
    max_n = 64 if full else 12
    ops = []
    for i in range(n_ops):
        if i % 10 < 7:  # 70% at p = 2, where the halving induction runs
            p = 2
            k = i % (max_k + 1)
            # Replay checks about (n - k) * 2**k candidate splittings: keep
            # (n - k) * 2**k under 2**max_k, and give each op a fixed share of
            # that cap, so the work of the op set barely moves with the seed.
            gap_cap = min(max_n - k, 2 ** (max_k - k))
            share = ((i // (max_k + 1)) % 5 + 1) / 5
            gap = round(share * gap_cap)
            gap = max(1, min(gap_cap, _near(rng, gap, gap // 25, 1)))
            n = k + gap
        else:
            p = (3, 5, 7)[i % 3]
            n = rng.randint(0, max_n)
            k = rng.randint(0, min(n, max_k))
        tamper = None
        if i % 5 == 0:  # 20% replay a trace with one side condition changed
            choices = list(_TAMPERS_ANY_P)
            if p == 2 and k >= 1:
                choices += _TAMPERS_HALVING if n > k else _TAMPERS_POINT
            # the tampered step fixes how much of the trace replays before
            # the rejection, so it depends on the op, not on the seed
            rule_id, field = choices[(i // 5) % len(choices)]
            tamper = [rule_id, field, rng.choice((-2, -1, 1, 2))]
        ops.append({"kind": "judgments", "p": p, "n": n, "k": k, "tamper": tamper})
    rng.shuffle(ops)
    keys = [(op["p"], op["n"], op["k"]) for op in ops]
    return {
        "ops": ops,
        "properties": {
            "ops": len(ops),
            "repeat_share": (len(keys) - len(set(keys))) / len(keys),
            "p2_share": sum(1 for op in ops if op["p"] == 2) / len(ops),
            "largest_k_at_p2": max(op["k"] for op in ops if op["p"] == 2),
            "largest_n": max(op["n"] for op in ops),
            "tampered_share": sum(1 for op in ops if op["tamper"]) / len(ops),
        },
    }


_CLI_COMMANDS = ("gaussian", "mu", "chow-order", "decompose", "type-bound", "conjecture", "verify")
_FORMATS = ("text", "json", "csv")


def _cli_valid(rng: random.Random, command: str, j: int) -> list[str]:
    """Arguments of the ``j``-th invocation of ``command``.

    The sizes that set a command's cost follow a fixed ladder in ``j``; the
    seed picks everything else.
    """
    if command == "gaussian":
        d = (12, 20, 28, 36, 44, 48)[j % 6] - rng.randint(0, 3)
        return ["gaussian", str(d), str(rng.randint(0, min(d, 12)))]
    if command == "mu":
        p = (2, 3)[j % 2]
        n = rng.randint(1, 4 if p == 2 else 2)
        k = rng.randint(0, n)
        args = ["mu", "--p", str(p), "--n", str(n), "--k", str(k)]
        if j % 3 != 2:
            return args + ["--all"]
        top = p**n + (p**k) * (p**n - p**k)
        return args + ["--i", str(rng.randint(0, top))]
    if command == "chow-order":
        p = (2, 3)[j % 2]
        n = rng.randint(1, 4 if p == 2 else 2)
        return ["chow-order", "--p", str(p), "--n", str(n), "--k", str(rng.randint(0, n))]
    if command == "decompose":
        n = (1, 2, 3, 4, 5, 5)[j % 6]
        return ["decompose", "--p", "2", "--n", str(n), "--k", str(rng.randint(0, n))]
    if command == "type-bound":
        p = rng.choice((2, 2, 3, 5))
        n = rng.randint(0, 12)
        args = ["type-bound", "--p", str(p), "--n", str(n), "--k", str(rng.randint(0, min(n, 8)))]
        return args + ["--trace"] if j % 2 else args
    if command == "conjecture":
        return ["conjecture", "--k", str(rng.randint(1, 10**6))]
    return ["verify", "--max-n", str((2, 3, 3, 4, 4, 4)[j % 6])]


def _cli_invalid(rng: random.Random, kind: int) -> tuple[list[str], int]:
    """An invocation with invalid arguments and the exit code it must give."""
    if kind == 0:  # non-prime --p: usage error
        bad_p = rng.choice((1, 4, 6, 9, 15, 21))
        return ["type-bound", "--p", str(bad_p), "--n", "3", "--k", "1"], 2
    if kind == 1:  # level above the exponent: engine domain error
        n = rng.randint(1, 4)
        return ["chow-order", "--p", "2", "--n", str(n), "--k", str(n + 1)], 1
    if kind == 2:  # neither --i nor --all: usage error
        return ["mu", "--p", "3", "--n", "2", "--k", "1"], 2
    # interior twists exist only at p = 2: unsupported operation
    return ["decompose", "--p", "3", "--n", str(rng.randint(1, 3)), "--k", "1"], 1


def _cli_mix(rng: random.Random, scale: str) -> dict:
    n_valid, invalid_kinds = (36, (0, 1, 2, 3)) if scale == "full" else (7, (rng.randrange(4),))
    shift = rng.randrange(len(_FORMATS))
    ops = []
    for i in range(n_valid):
        command = _CLI_COMMANDS[i % len(_CLI_COMMANDS)]
        fmt = _FORMATS[(i + i // len(_CLI_COMMANDS) + shift) % len(_FORMATS)]
        args = _cli_valid(rng, command, i // len(_CLI_COMMANDS)) + ["--format", fmt]
        ops.append({"kind": "cli", "args": args, "expect_exit": 0, "fmt": fmt})
    for kind in invalid_kinds:
        args, code = _cli_invalid(rng, kind)
        fmt = rng.choice(_FORMATS)
        ops.append({"kind": "cli", "args": args + ["--format", fmt], "expect_exit": code, "fmt": fmt})
    rng.shuffle(ops)
    keys = [tuple(op["args"]) for op in ops]
    return {
        "ops": ops,
        "properties": {
            "ops": len(ops),
            "repeat_share": (len(keys) - len(set(keys))) / len(keys),
            "invalid_share": sum(1 for op in ops if op["expect_exit"]) / len(ops),
            "formats": {f: sum(1 for op in ops if op["fmt"] == f) for f in _FORMATS},
        },
    }
