"""Span tracer for the traced benchmark run.

``Tracer.install()`` replaces each layer's public functions with timing
wrappers in every ``sbmotives`` module that binds them by name (for example
``gaussian_binomial`` is bound in ``qpoly``, ``motive``, ``verify``, ``cli``
and the package itself), and the layer's methods on their classes.  Each call
records a span: its layer metric, the span that was open when it started,
its start and its end.  Spans stay in memory; ``summary()`` reduces them to
calls and self time per layer metric, where self time is a span's duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

from inputs import KRONECKER_PAIRS

MODULES = ("qpoly", "motive", "severi_brauer", "type_calculus", "verify", "cli")

# (metric, module, function) for module-level public functions
FUNCTIONS = (
    ("qpoly.gaussian_binomial", "qpoly", "gaussian_binomial"),
    ("qpoly.count_partitions_in_box", "qpoly", "count_partitions_in_box"),
    ("qpoly.enumerate_partitions_in_box", "qpoly", "enumerate_partitions_in_box"),
    ("severi_brauer.function_field_decomposition", "severi_brauer", "function_field_decomposition"),
    ("severi_brauer.mu", "severi_brauer", "mu"),
    ("severi_brauer.rational_chow_order", "severi_brauer", "rational_chow_order"),
    ("severi_brauer.classify_reduced_dimension", "severi_brauer", "classify_reduced_dimension"),
    ("type_calculus.build", "type_calculus", "type_bound"),
    ("type_calculus.build", "type_calculus", "indecomposability_judgment"),
    ("type_calculus.build", "type_calculus", "rigidity_judgment"),
    ("verify.run_identity_suite", "verify", "run_identity_suite"),
)

# (metric, module, class, method) for public methods
METHODS = (
    ("qpoly.mul", "qpoly", "GradedRankPoly", "__mul__"),
    ("qpoly.mul", "qpoly", "GradedRankPoly", "__rmul__"),
    ("motive.split_poincare", "motive", "MotiveExpr", "split_poincare"),
    ("motive.identify_upper_lower", "motive", "MotiveExpr", "identify_upper_lower"),
    ("type_calculus.replay", "type_calculus", "ProofTrace", "replay"),
    ("type_calculus.json", "type_calculus", "ProofTrace", "to_json_obj"),
    ("type_calculus.json", "type_calculus", "ProofTrace", "from_json_obj"),
)

GENERATORS = {"qpoly.enumerate_partitions_in_box"}


def self_times(parents, names, starts, ends) -> dict[str, float]:
    """Self time per name from spans given as parallel sequences.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    covered = [0.0] * len(parents)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    totals: dict[str, float] = {}
    for i, name in enumerate(names):
        totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
    return totals


class Tracer:
    """Records spans of calls into the ``sbmotives`` layers of this process."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parents = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._gaussian = None
        self._cache_start = (0, 0)
        self._misses_seen = 0

    # -- span recording ---------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self.starts)
        self.parents.append(self._open[-1] if self._open else -1)
        self.name_ids.append(name_id)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def _wrap(self, metric: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[metric] += 1
            span = tracer.begin(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, metric: str, fn):
        """Each resumption of the generator is one span of ``metric``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[metric] += 1
            inner = fn(*args, **kwargs)
            while True:
                span = tracer.begin(metric)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        return wrapper

    # -- counters taken outside the spans ----------------------------------

    def _count_coeffs(self, poly) -> None:
        items = poly.items()
        self.counters["qpoly.coeff_count"] += len(items)
        bits = max((c.bit_length() for _, c in items), default=0)
        self.counters["qpoly.coeff_bits_max"] = max(self.counters["qpoly.coeff_bits_max"], bits)

    def _after_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        lengths = []
        for operand in args:
            if isinstance(operand, int):
                lengths.append(1)
            elif operand.is_zero:
                return
            else:
                lengths.append(operand.dim() + 1)
        if lengths[0] * lengths[1] > KRONECKER_PAIRS:
            self.counters["qpoly.mul.kronecker"] += 1
        self._count_coeffs(result)

    def _after_judgment(self, args, result) -> None:
        self.counters["type_calculus.trace_steps"] += len(result.trace)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method; import ``sbmotives.cli`` first."""
        modules = [importlib.import_module(f"sbmotives.{m}") for m in MODULES]
        modules.append(importlib.import_module("sbmotives"))
        qpoly = modules[0]
        self._gaussian = qpoly.gaussian_binomial
        info = self._gaussian.cache_info()
        self._cache_start = (info.hits, info.misses)
        self._misses_seen = info.misses
        for metric, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"sbmotives.{module_name}"), attr)
            if metric in GENERATORS:
                wrapper = self._wrap_generator(metric, original)
            elif metric == "qpoly.gaussian_binomial":
                wrapper = self._wrap(metric, original, self._after_gaussian)
            elif metric == "type_calculus.build":
                wrapper = self._wrap(metric, original, self._after_judgment)
            else:
                wrapper = self._wrap(metric, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        for metric, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"sbmotives.{module_name}"), class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(metric, raw.__func__)))
            elif metric == "qpoly.mul":
                setattr(cls, attr, self._wrap(metric, raw, self._after_mul))
            else:
                setattr(cls, attr, self._wrap(metric, raw))

    def _after_gaussian(self, args, result) -> None:
        # count coefficients of freshly computed binomials only, not cache hits
        misses = self._gaussian.cache_info().misses
        if misses != self._misses_seen:
            self._misses_seen = misses
            self._count_coeffs(result)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time and counters per layer metric, as plain JSON data."""
        names = [self._names[i] for i in self.name_ids]
        self_s = self_times(self.parents, names, self.starts, self.ends)
        hits = misses = 0
        if self._gaussian is not None:
            info = self._gaussian.cache_info()
            hits = info.hits - self._cache_start[0]
            misses = info.misses - self._cache_start[1]
        counters = dict(self.counters)
        counters["qpoly.gaussian_binomial.hits"] = hits
        counters["qpoly.gaussian_binomial.misses"] = misses
        return {"calls": dict(self.calls), "self_s": self_s, "counters": counters}
