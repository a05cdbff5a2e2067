"""Spans around calls into nfkit's public functions, installed from outside.

``Tracer.install`` wraps each function listed in ``LAYERS`` and rebinds
every name under which any loaded ``nfkit`` module holds it (``from .linalg
import mat_kernel`` copies the binding, so patching ``nfkit.linalg`` alone
would miss the callers).  ``uninstall`` restores every binding.  Spans are
kept in memory as rows and written out once, at the end of the run.

A span row is [id, parent id, request index, layer, function, start, end,
post], times from ``time.perf_counter``.  ``post`` follows the size
bookkeeping done after the call; the interval from start to post is what
the parent loses to the child, so bookkeeping never lands in self time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "serialize": (
        "load_json_file", "spectrum_from_json", "field_from_json", "series_from_json",
        "spectrum_to_json", "field_to_json", "series_to_json", "resonance_set_to_json",
        "centralizer_to_json", "normalizer_to_json", "invariants_to_json",
        "reduced_to_json", "ladder_to_json", "dumps",
    ),
    "spectrum": (
        "build_spectrum", "minimal_nonneg_solutions", "inhomogeneous_minimal_solutions",
        "hilbert_basis", "is_finite_linear_centralizer", "classify_dim3",
    ),
    "resonance": (
        "resonant_multiindices", "resonance_degree_bound", "resonance_set",
        "semiinvariant_degree_ladder", "commuting_degree_ladder",
    ),
    "linalg": ("mat_kernel", "mat_rank", "mat_solve", "lp_max"),
    "fields": (
        "lie_bracket", "series_times_field", "lie_derivative", "divergence",
        "is_pdnf", "deviation_part", "pdnf_basis",
    ),
    "centralizer": (
        "linear_commutant", "centralizer_exact", "centralizer_truncated", "normalizer_truncated",
    ),
    "invariants": (
        "invariant_generators", "check_free_module", "check_onediv", "reduce_vectorfield",
        "decompose_eta",
    ),
    "jacobi": ("solve_multiplier", "multiplier_support", "divergence_integral_check"),
}


def _kernel_sizes(args, result):
    bits = 0
    for vec in result.basis:
        for x in vec:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return (args[0].rows, args[0].cols, len(result.basis), bits)


SIZERS = {
    "mat_kernel": _kernel_sizes,
    "minimal_nonneg_solutions": lambda args, result: len(result),
    "resonant_multiindices": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.stack = []
        self.request = -1
        self._rebound = []

    def _wrap(self, layer, name, fn):
        spans, stack, attrs = self.spans, self.stack, self.attrs
        sizer = SIZERS.get(name)

        def wrapper(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else -1, self.request, layer, name, 0.0, 0.0, 0.0]
            spans.append(row)
            stack.append(row[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                row[5], row[6], row[7] = start, end, end
            if sizer is not None:
                attrs[row[0]] = sizer(args, result)
                row[7] = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.bench_wrapper = True
        return wrapper

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "nfkit" or k.startswith("nfkit.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"nfkit.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row + [self.attrs.get(row[0])]) + "\n")


def leftover_wrappers():
    """(module, name) pairs in loaded nfkit modules that still hold a wrapper."""
    out = []
    for key, mod in sorted(sys.modules.items()):
        if key == "nfkit" or key.startswith("nfkit."):
            for attr, value in vars(mod).items():
                if getattr(value, "bench_wrapper", False):
                    out.append((key, attr))
    return out


def self_times(spans):
    """Span id -> duration minus the part its direct children cover."""
    covered = defaultdict(float)
    for sid, parent, _req, _layer, _name, start, _end, post in spans:
        if parent >= 0:
            covered[parent] += post - start
    return {row[0]: row[6] - row[5] - covered[row[0]] for row in spans}


SERIALIZE_LOAD = ("load_json_file", "spectrum_from_json", "field_from_json", "series_from_json")

# function-level self-time metrics: name -> wrapped functions whose self time adds up
FUNCTION_METRICS = {
    "serialize.load_ms": SERIALIZE_LOAD,
    "serialize.dump_ms": tuple(n for n in LAYERS["serialize"] if n not in SERIALIZE_LOAD),
    "spectrum.build_ms": ("build_spectrum",),
    "spectrum.completion_ms": ("minimal_nonneg_solutions",),
    "resonance.enum_ms": ("resonant_multiindices",),
    "resonance.bound_ms": ("resonance_degree_bound",),
    "resonance.ladder_ms": ("semiinvariant_degree_ladder", "commuting_degree_ladder"),
    "linalg.kernel_ms": ("mat_kernel",),
    "linalg.rank_ms": ("mat_rank",),
    "linalg.solve_ms": ("mat_solve",),
    "linalg.lp_ms": ("lp_max",),
    "fields.bracket_ms": ("lie_bracket", "series_times_field"),
    "fields.lie_derivative_ms": ("lie_derivative",),
    "fields.pdnf_ms": ("is_pdnf", "deviation_part"),
    "centralizer.commutant_ms": ("linear_commutant",),
    "centralizer.assembly_ms": ("centralizer_exact", "centralizer_truncated", "normalizer_truncated"),
    "jacobi.support_ms": ("multiplier_support",),
}


def layer_metrics(spans, attrs, requests):
    """Self times in ms per request (per module and per function) and exact counts.

    ``<layer>.self_ms`` adds the self time of every wrapped function of the
    module; counts are totals over the traced requests.
    """
    own = self_times(spans)
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for row in spans:
        by_name[row[4]] += own[row[0]]
        by_layer[row[3]] += own[row[0]]
        calls[row[4]] += 1
    per_req = 1000.0 / max(requests, 1)
    times = {f"{layer}.self_ms": by_layer[layer] * per_req for layer in LAYERS}
    for metric, names in FUNCTION_METRICS.items():
        times[metric] = sum(by_name[n] for n in names) * per_req
    kernels = [attrs[row[0]] for row in spans if row[4] == "mat_kernel"]
    parents = {row[0]: row[4] for row in spans}
    counts = {
        "spectrum.completion_calls": calls["minimal_nonneg_solutions"],
        "spectrum.completion_solutions": sum(
            attrs[row[0]] for row in spans if row[4] == "minimal_nonneg_solutions"
        ),
        "resonance.enum_calls": calls["resonant_multiindices"],
        "resonance.found": sum(attrs[row[0]] for row in spans if row[4] == "resonant_multiindices"),
        "linalg.kernel_calls": len(kernels),
        "linalg.kernel_cells": sum(r * c for r, c, _d, _b in kernels),
        "linalg.kernel_max_rows": max((r for r, _c, _d, _b in kernels), default=0),
        "linalg.kernel_max_cols": max((c for _r, c, _d, _b in kernels), default=0),
        "linalg.kernel_dim": sum(d for _r, _c, d, _b in kernels),
        "linalg.kernel_max_bits": max((b for _r, _c, _d, b in kernels), default=0),
        "linalg.lp_calls": calls["lp_max"],
        "fields.bracket_calls": calls["lie_bracket"] + calls["series_times_field"],
        "jacobi.sweep_kernels": sum(
            1 for row in spans if row[4] == "mat_kernel" and parents.get(row[1]) == "solve_multiplier"
        ),
    }
    return times, counts
