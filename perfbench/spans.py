"""Span tracer for the hypercong modules, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules (and
the arithmetic, evaluation and constructor methods of ``Jet2``) by a wrapper
that records a span: name, start, end and the span it was called from.  The
wrapper is bound in every hypercong module that holds the function, because
``verify`` and ``cli`` import what they call with ``from .series import ...``
and would otherwise keep calling the original.  ``restore`` puts the
originals back.

Spans are kept in flat arrays in memory and written once, by ``write``.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "verify", "series", "jets", "padic", "exact_core")

# Jet2 members that are traced, under the span name they record.  Reflected
# operators share the name of the operator they alias.
_JET_METHODS = {
    "__init__": "Jet2", "zero": "zero", "constant": "constant", "variable": "variable",
    "linear": "linear", "partial": "partial", "evaluate": "evaluate",
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "inverse": "inverse", "__truediv__": "truediv",
}

# The public series evaluators; each has its own self-time metric.  The list
# is fixed so that the set of metrics stays the same when the library
# changes: an evaluator that no longer exists reads 0.
SERIES_EVALUATORS = (
    "truncated_pfq", "karlsson_minton_sum", "psi_value", "phi_value", "delta_value",
    "lhs_theorem1", "lhs_theorem2", "dual_reduction_sum", "theorem2_prefactor",
    "guo_sum", "sun_e_sum", "sun_bernoulli_lhs", "dflst_sum", "dflst_dual",
    "upsilon_jet", "phi_jet", "psi_jet", "delta_jet",
)

# Each verify entry point and the check id it serves.
VERIFY_CHECKS = {
    "verify_theorem1": "theorem1", "verify_theorem2": "theorem2", "verify_guo": "guo",
    "verify_sun_e": "sun-e", "verify_sun_bernoulli": "sun-bernoulli",
    "verify_dflst_pair": "dflst", "verify_lemma_suite": "lemmas",
    "verify_taylor": "taylor", "verify_exact_identities": "identities",
}

# Pool workers forked from a traced process run untraced: their spans would
# never reach the parent.
_LIVE = weakref.WeakSet()
os.register_at_fork(after_in_child=lambda: [t._deactivate() for t in list(_LIVE)])


def _value_bits(result) -> int:
    value = getattr(result, "value", result)  # KarlssonMintonResult carries .value
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return 0


class Tracer:
    def __init__(self, layers=None):
        self.layers = tuple(layers or LAYERS)
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.max_value_bits = 0
        self.active = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, measure_bits: bool = False):
        nid = len(self.names)
        self.names.append(name)
        span_names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure_bits:
                bits = _value_bits(result)
                if bits > tracer.max_value_bits:
                    tracer.max_value_bits = bits
            return result

        return wrapper

    def _deactivate(self):
        self.active = False

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced modules and start recording."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("hypercong")  # loads every module a wrapper may be bound in
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "hypercong" or name.startswith("hypercong.")]
        for layer in self.layers:
            module = sys.modules.get(f"hypercong.{layer}")
            if module is None:  # a module the library no longer has
                continue
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                scalar = layer == "series" and not attr.endswith("_jet")
                wrapper = self._wrap(obj, f"{layer}.{attr}", measure_bits=scalar)
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, bound, wrapper)
            if layer == "jets" and hasattr(module, "Jet2"):
                self._install_jet_methods(module.Jet2)
        _LIVE.add(self)
        self.active = True

    def _install_jet_methods(self, cls):
        wrapped = {}
        for attr, short in _JET_METHODS.items():
            raw = vars(cls).get(attr)
            if raw is None:  # not every version of Jet2 defines every member
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, f"jets.{short}")
            new = wrapped[fn]
            self._patch(cls, attr, classmethod(new) if isinstance(raw, classmethod) else new)

    def restore(self):
        """Stop recording and put every original back."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _LIVE.discard(self)

    # --- results -----------------------------------------------------------

    def __len__(self):
        return len(self.span_name)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds (inclusive) and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {self.names[nid]: {"calls": calls[nid], "total_s": total[nid],
                                  "self_s": own[nid]} for nid in calls}

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no traced parent."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i, p in enumerate(self.span_parent) if p < 0)

    def write(self, path):
        """One JSON header line, then the name, parent, start and end columns
        as raw int32/int32/float64/float64 arrays."""
        header = {"names": self.names, "count": len(self),
                  "columns": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


def read_spans(path) -> list[tuple[str, int, float, float]]:
    """(name, parent index, start, end) for every span a ``write`` stored."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = []
        for spec in header["columns"]:
            column = array(spec.split(":")[1])
            column.fromfile(fh, count)
            columns.append(column)
    names = header["names"]
    return [(names[columns[0][i]], columns[1][i], columns[2][i], columns[3][i])
            for i in range(count)]


def layer_metrics(summary: dict[str, dict], max_value_bits: int,
                  scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit).  A name never
    recorded reads 0.  Times are multiplied by ``scale``."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def ms(seconds):
        return seconds * 1000.0 * scale

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (ms(sum(s["self_s"] for n, s in summary.items()
                                               if n.startswith(layer + "."))), "ms")
    metrics["cli.run_sweep.self_ms"] = (ms(get("cli.run_sweep", "self_s")), "ms")
    metrics["cli.render_json.ms"] = (ms(get("cli.render_json", "total_s")), "ms")
    for fn, check in VERIFY_CHECKS.items():
        metrics[f"verify.{check}.ms"] = (ms(get(f"verify.{fn}", "total_s")), "ms")

    series = {name: s for name, s in summary.items() if name.startswith("series.")}
    for kind, jet in (("value", False), ("jet", True)):
        chosen = [s for name, s in series.items() if name.endswith("_jet") == jet]
        metrics[f"series.{kind}.self_ms"] = (ms(sum(s["self_s"] for s in chosen)), "ms")
        metrics[f"series.{kind}.calls"] = (sum(s["calls"] for s in chosen), "count")
    metrics["series.value.max_bits"] = (max_value_bits, "bits")
    for e in SERIES_EVALUATORS:
        metrics[f"series.{e}.self_ms"] = (ms(get(f"series.{e}", "self_s")), "ms")

    for name in ("jets.mul", "jets.add", "jets.inverse", "jets.evaluate",
                 "padic.morita_gamma", "padic.bernoulli", "padic.is_prime",
                 "padic.ord_rational", "padic.reduce_mod", "exact_core.harmonic"):
        metrics[f"{name}.ms"] = (ms(get(name, "total_s")), "ms")
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    return metrics
