"""Binding-site tracing of primelab's layers, from outside the program.

A layer is one primelab module. The tracer wraps every public function a
layer defines (plus the foreign callables listed in IMPORTED), and it
replaces each one at every module attribute bound to it. That matters
because `cli`, `stats`, `gpy`, `largegap` and `tuples` import layer
functions by name (`from .sieve import gap_scan`): patching only the
defining module would miss those calls.

Each call becomes a span: name, layer, start, end, parent span, the
invocation it belongs to, and whether it raised. Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics after the run.
Generator functions (`sieve.iter_prime_segments`) are left unwrapped: a
span around one would end before its work starts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from typing import Callable, Optional

from workloads import WORKLOADS

LAYERS = ("sieve", "simplex", "tuples", "maynard", "gpy", "stats", "largegap")
# callables a layer imports from a library and calls by its bound name
IMPORTED = {"maynard": ("eigh",)}
MODULES = ("cli", "config", "errors") + LAYERS


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "invocation", "raised")

    def __init__(self, name, layer, start, end, parent, invocation, raised=False):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.invocation = invocation
        self.raised = raised

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Span recorder plus the patches that route layer calls through it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.facts: list[tuple[str, object]] = []
        self.invocation: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), None, parent, self.invocation))
        self._stack.append(len(self.spans) - 1)

    def close(self, raised: bool) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        span.raised = raised

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(raised=True)
                raise
            self.close(raised=False)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.facts.append(hook(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function at every primelab binding site."""
        modules = [importlib.import_module("primelab")] + [
            importlib.import_module(f"primelab.{m}") for m in MODULES
        ]
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"primelab.{layer}")
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if attr.startswith("_") or inspect.isgeneratorfunction(obj):
                    continue
                if own or attr in IMPORTED.get(layer, ()):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


# --------- counters recorded at the layer boundary ---------
#
# A hook sees the bound call arguments and the result of one successful
# call and returns a (kind, payload) fact. Hooks stay O(1) or close to it;
# anything costlier is derived from the payload after the run.

def _kernel(lo: int, hi: int, segment_size: int, result_bytes: int) -> tuple:
    return ("kernel", (max(lo, 0), hi, segment_size, result_bytes))


def _forms_fact(a: dict, pair) -> tuple:
    bits = max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for mat in (pair.A1, pair.A2)
        for row in mat
        for x in row
    )
    return ("forms", (len(pair.basis), bits))


HOOKS: dict[str, Callable[[dict, object], tuple]] = {
    # segment kernel: bitmap bytes are one per integer; result bytes are
    # what the call materialises on top of the bitmaps
    "sieve.sieve_range": lambda a, r: _kernel(
        a["lo"], a["hi"], a["segment_size"],
        r.primality.nbytes + (r.smallest_factor.nbytes if r.smallest_factor is not None else 0),
    ),
    "sieve.gap_scan": lambda a, r: _kernel(a["lo"], a["hi"], a["segment_size"], 0),
    "sieve.primes_between": lambda a, r: _kernel(a["lo"], a["hi"], a["segment_size"], r.nbytes),
    "sieve.prime_count": lambda a, r: _kernel(0, a["x"] + 1, a["segment_size"], 0),
    "sieve.arith_tables": lambda a, r: ("arith", a["n"]),
    "maynard.build_quadratic_forms": _forms_fact,
    "maynard.ij_monte_carlo": lambda a, r: ("samples", a["samples"]),
    "gpy.weighted_sums": lambda a, r: ("gpy_params", a["params"]),
    "gpy.level_of_distribution_sum": lambda a, r: ("moduli", int(a["x"] ** a["theta"] + 1e-9)),
}


# --------- per-layer metrics ---------

# (metric, span name, invocation label or None); each span's self time
# goes to the first row it matches, or to trace.unlisted_self_s
SELF_TIME_METRICS = (
    ("sieve.sieve_range.self_s", "sieve.sieve_range", None),
    ("sieve.gap_scan.dense.self_s", "sieve.gap_scan", "scan-2e8"),
    ("sieve.gap_scan.sparse.self_s", "sieve.gap_scan", "window-1.3e12"),
    ("sieve.primes_between.self_s", "sieve.primes_between", None),
    ("sieve.arith_tables.self_s", "sieve.arith_tables", None),
    ("simplex.power_sum_moments.self_s", "simplex.power_sum_moments", None),
    ("simplex.complement_moments.self_s", "simplex.complement_moments", None),
    ("maynard.build_quadratic_forms.self_s", "maynard.build_quadratic_forms", None),
    ("maynard.ldl_pivots.self_s", "maynard.ldl_pivots", None),
    ("maynard.eigh.self_s", "maynard.eigh", None),
    ("maynard.largest_generalized_eigenvalue.self_s", "maynard.largest_generalized_eigenvalue", None),
    ("maynard.rayleigh_quotient.self_s", "maynard.rayleigh_quotient", None),
    ("maynard.mk_lower_bound_poly.self_s", "maynard.mk_lower_bound_poly", None),
    ("maynard.ij_monte_carlo.self_s", "maynard.ij_monte_carlo", None),
    ("tuples.self_s", "tuples.*", None),
    ("gpy.weighted_sums.self_s", "gpy.weighted_sums", None),
    ("gpy.level_of_distribution_sum.self_s", "gpy.level_of_distribution_sum", None),
    ("stats.erdos_kac.self_s", "stats.erdos_kac", None),
    ("stats.mertens_sums.self_s", "stats.mertens_sums", None),
    ("largegap.greedy_cover.self_s", "largegap.greedy_cover", None),
    ("largegap.crt_shift.self_s", "largegap.crt_shift", None),
    ("largegap.composite_run_from_cover.self_s", "largegap.composite_run_from_cover", None),
    ("largegap.verify_composite_run.self_s", "largegap.verify_composite_run", None),
)

DISPATCH = "cli.dispatch"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span run one after another on one thread, so their
    durations add up to the covered part.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _matches(pattern: str, name: str) -> bool:
    return name == pattern or (pattern.endswith(".*") and name.startswith(pattern[:-1]))


def layer_metrics(
    spans: list[Span],
    facts: list[tuple[str, object]],
    wall_s: float,
    output_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass; units live in PER_LAYER.

    Every metric of every workload is present, so the set is the same
    whichever workload ran. `wall_s` is the traced pass time.
    """
    from primelab.gpy import lambda_d
    from primelab.sieve import prime_count

    selfs = self_times(spans)
    out: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    out["cli.output_bytes"] = output_bytes
    unlisted = 0.0
    for span, own in zip(spans, selfs):
        if span.name == DISPATCH:
            out["cli.dispatch.self_s"] += own
            out[f"cli.{span.invocation}.wall_s"] += span.end - span.start
            continue
        for metric, pattern, label in SELF_TIME_METRICS:
            if _matches(pattern, span.name) and label in (None, span.invocation):
                out[metric] += own
                break
        else:
            unlisted += own
        if span.name == "largegap.greedy_cover":
            out["largegap.greedy_cover.calls"] += 1

    for span in spans:
        entered = span.parent is None or spans[span.parent].layer != span.layer
        if span.raised and entered:
            out[f"{span.layer}.errors"] += 1

    kernel_s = sum(
        s.end - s.start for s in spans if s.name in
        ("sieve.sieve_range", "sieve.gap_scan", "sieve.primes_between", "sieve.prime_count")
    )
    mc_s = sum(s.end - s.start for s in spans if s.name == "maynard.ij_monte_carlo")
    samples = 0
    for kind, payload in facts:
        if kind == "kernel":
            lo, hi, seg, result_bytes = payload
            out["sieve.ints"] += hi - lo
            out["sieve.segments"] += -(-(hi - lo) // seg)
            out["sieve.base_primes"] += prime_count(math.isqrt(hi - 1))
            out["sieve.bytes_computed"] += (hi - lo) + result_bytes
        elif kind == "arith":
            out["sieve.arith_tables.prime_loops"] += prime_count(payload)
        elif kind == "forms":
            basis, bits = payload
            out["maynard.basis_size"] = max(out["maynard.basis_size"], basis)
            out["maynard.max_entry_bits"] = max(out["maynard.max_entry_bits"], bits)
        elif kind == "samples":
            samples += payload
        elif kind == "gpy_params":
            nonzero = sum(
                1 for d in range(1, payload.D_limit + 1) if lambda_d(d, payload) != 0.0
            )
            out["gpy.weighted_sums.divisor_pairs"] += nonzero * nonzero
        elif kind == "moduli":
            out["gpy.level_of_distribution_sum.moduli"] += payload
    if kernel_s > 0:
        out["sieve.mints_per_s"] = out["sieve.ints"] / 1e6 / kernel_s
    if mc_s > 0:
        out["maynard.ij_monte_carlo.samples_per_s"] = samples / mc_s

    dispatched = sum(s.end - s.start for s in spans if s.name == DISPATCH)
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - dispatched
    out["trace.unlisted_self_s"] = unlisted
    return out


PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.dispatch.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    *((f"cli.{inv.label}.wall_s", "s", "lower")
      for w in WORKLOADS.values() for inv in w.invocations),
    *((metric, "s", "lower") for metric, _, _ in SELF_TIME_METRICS),
    ("sieve.arith_tables.prime_loops", "count", "lower"),
    ("sieve.ints", "count", "lower"),
    ("sieve.segments", "count", "lower"),
    ("sieve.base_primes", "count", "lower"),
    ("sieve.mints_per_s", "Mint/s", "higher"),
    ("sieve.bytes_computed", "bytes", "lower"),
    ("maynard.basis_size", "count", "higher"),
    ("maynard.max_entry_bits", "bits", "lower"),
    ("maynard.ij_monte_carlo.samples_per_s", "1/s", "higher"),
    ("gpy.weighted_sums.divisor_pairs", "count", "lower"),
    ("gpy.level_of_distribution_sum.moduli", "count", "lower"),
    ("largegap.greedy_cover.calls", "count", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in ("cli",) + LAYERS),
    ("process.cpu_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.unlisted_self_s", "s", "lower"),
]
