"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each laumonk module from outside
the package, records one span per call (id, name, parent, start, end, an
integer payload and whether the call is nested in a call of the same group),
keeps the spans in a flat array and writes them out at the end. The
per-layer metrics are derived from the spans afterwards.

Pattern accessors (`d`, `bump`, `degree`, ...) and weight helpers are left
unwrapped: they run millions of times, feed no metric, and wrapping them
would multiply the tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

FIELDS = 7  # id, name, parent, start, end, value, nested

FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
FAMILIES = ("verify_xx_same", "verify_xx_pair", "verify_commutator",
            "verify_psi_x", "verify_psi_psi", "verify_serre")


def _length(result):
    return len(result)


def _entries(report):
    return report.entries_checked


def _utf8_size(text):
    return len(text.encode("utf-8"))


# (module, class or None, attribute, group, payload of the result)
TARGETS = (
    [("exact", "LaurentExpr", op, "exact.field", None) for op in FIELD_OPS]
    + [
        ("sympy.polys.rings", "PolyElement", "cancel", "exact.cancel", None),
        ("exact", "LaurentExpr", "evaluate", "exact.evaluate", None),
        ("exact", "LaurentExpr", "to_string", "exact.to_string", None),
        ("exact", None, "expand_series", "exact.expand_series", None),
    ]
    + [("patterns", None, fn, "patterns.enumerate", _length)
       for fn in ("enumerate_finite", "enumerate_affine",
                  "enumerate_affine_total")]
    + [(mod, cls, fn, mod + ".coeff", None)
       for mod, cls in (("finite_action", "FiniteAction"),
                        ("toroidal_action", "ToroidalAction"))
       for fn in ("f_base_coeff", "e_base_coeff")]
    + [(mod, cls, "transitions", mod + ".transitions", None)
       for mod, cls in (("finite_action", "FiniteAction"),
                        ("toroidal_action", "ToroidalAction"))]
    + [("finite_action", "FiniteAction", fn, "finite_action.psi", None)
       for fn in ("psi_eigenvalue", "psi_mode", "psi_via_quotients",
                  "psi_via_a_series")]
    + [("toroidal_action", "ToroidalAction", fn, "toroidal_action.psi", None)
       for fn in ("psi_eigenvalue", "psi_hat_eigenvalue", "psi_mode",
                  "psi_via_quotients")]
    + [("tangent", "TangentOracle", fn, "tangent.character", None)
       for fn in ("tangent_character_space",
                  "tangent_character_correspondence")]
    + [("tangent", "TangentOracle", "bott_coefficient", "tangent.bott", None)]
    + [("relations", None, fn, "relations.family", _entries)
       for fn in FAMILIES]
    + [("relations", None, fn, "relations.suite", None)
       for fn in ("loop_suite", "toroidal_suite", "negative_controls",
                  "verify_gl_zero_modes")]
    + [
        ("specialization", None, "in_D_mu", "specialization.in_d_mu", None),
        ("specialization", "RenormalizedAction", "coefficient",
         "specialization.coefficient", None),
        ("specialization", "RenormalizedAction", "symbolic_coefficient",
         "specialization.coefficient", None),
        ("specialization", "FactoredCoefficient", "value",
         "specialization.value", None),
        ("specialization", None, "build_Vmu_block", "specialization.block",
         None),
        ("specialization", None, "closure_report", "specialization.block",
         None),
    ]
    + [("cli", None, fn, "cli.command", None)
       for fn in ("main", "cmd_verify", "cmd_specialize", "cmd_patterns",
                  "oracle_suite")]
    + [("cli", None, "_write_report", "cli.report", _utf8_size)]
)


class Tracer:
    """Span recorder; spans of every thread go to one array."""

    def __init__(self):
        self.spans = array("d")
        self.names = []
        self.groups = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [-1], {}
            return local.stack, local.depth

    def current(self) -> int:
        return self._state()[0][-1]

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn in this thread with `parent` as the enclosing span."""
        stack, _ = self._state()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, fn, name, group, payload=None):
        name_id = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        record = self.spans.extend
        next_id = self._ids.__next__
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, depth = state()
            sid = next_id()
            parent = stack[-1]
            nested = depth.get(group, 0)
            depth[group] = nested + 1
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                depth[group] = nested
                value = payload(result) if payload and result is not None else 0
                # one extend call, so spans from two threads never interleave
                record((sid, name_id, parent, t0, t1, value, nested))

        return traced

    def install(self):
        """Wrap every target; module-level functions are also replaced in
        each laumonk module that imported them by name."""
        modules = [m for key, m in sys.modules.items()
                   if key == "laumonk" or key.startswith("laumonk.")]
        for mod_name, cls_name, attr, group, payload in TARGETS:
            full = mod_name if mod_name.startswith("sympy") else "laumonk." + mod_name
            module = importlib.import_module(full)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            label = ".".join(filter(None, (mod_name, cls_name, attr)))
            traced = self.wrap(original, label, group, payload)
            setattr(owner, attr, traced)
            if cls_name is None:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, traced)
        tracer = self

        class LinkedPool(ThreadPoolExecutor):
            """Pool whose tasks record the submitting span as parent."""

            def submit(self, fn, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn,
                                      *args, **kwargs)

        importlib.import_module("laumonk.cli").ThreadPoolExecutor = LinkedPool

    def write(self, path):
        """Binary spans (FIELDS doubles each) plus a JSON name table."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(str(path) + ".names.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end",
                                  "value", "nested"],
                       "names": self.names, "groups": self.groups}, fh)


def _self_times(spans, count):
    """Span duration minus the part of it that direct children cover."""
    children = {}
    for k in range(count):
        children.setdefault(spans[k * FIELDS + 2], []).append(k)
    self_time = [0.0] * count
    for k in range(count):
        base = k * FIELDS
        start, end = spans[base + 3], spans[base + 4]
        covered = 0.0
        reach = start
        kids = children.get(spans[base], ())
        for c in sorted(kids, key=lambda c: spans[c * FIELDS + 3]):
            cs = max(spans[c * FIELDS + 3], reach)
            ce = min(spans[c * FIELDS + 4], end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        self_time[k] = (end - start) - covered
    return self_time


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and seconds from the recorded spans."""
    spans = tracer.spans
    count = len(spans) // FIELDS
    self_time = _self_times(spans, count)
    calls, outer_s, self_s, value, longest = {}, {}, {}, {}, {}
    for k in range(count):
        base = k * FIELDS
        group = tracer.groups[int(spans[base + 1])]
        dur = spans[base + 4] - spans[base + 3]
        calls[group] = calls.get(group, 0) + 1
        self_s[group] = self_s.get(group, 0.0) + self_time[k]
        if spans[base + 6] == 0:  # outermost call of its group
            outer_s[group] = outer_s.get(group, 0.0) + dur
            value[group] = value.get(group, 0) + int(spans[base + 5])
            longest[group] = max(longest.get(group, 0.0), dur)

    def layer_self(prefix):
        return sum((v for g, v in self_s.items() if g.startswith(prefix)), 0.0)

    c = lambda g: calls.get(g, 0)
    s = lambda g: outer_s.get(g, 0.0)
    metrics = {
        "exact.cancel_calls": c("exact.cancel"),
        "exact.cancel_s": s("exact.cancel"),
        "exact.field_ops": c("exact.field"),
        "exact.field_self_s": self_s.get("exact.field", 0.0),
        "exact.evaluate_calls": c("exact.evaluate"),
        "exact.evaluate_s": s("exact.evaluate"),
        "exact.expand_series_calls": c("exact.expand_series"),
        "exact.expand_series_s": s("exact.expand_series"),
        "exact.to_string_s": s("exact.to_string"),
        "patterns.patterns_enumerated": value.get("patterns.enumerate", 0),
        "patterns.enumerate_s": s("patterns.enumerate"),
    }
    for mod in ("finite_action", "toroidal_action"):
        metrics.update({
            mod + ".transitions_calls": c(mod + ".transitions"),
            mod + ".coeffs_built": c(mod + ".coeff"),
            mod + ".coeff_s": s(mod + ".coeff"),
            mod + ".psi_s": s(mod + ".psi"),
        })
    metrics.update({
        "tangent.characters_built": c("tangent.character"),
        "tangent.character_s": s("tangent.character"),
        "tangent.bott_calls": c("tangent.bott"),
        "tangent.bott_s": s("tangent.bott"),
        "relations.families": c("relations.family"),
        "relations.entries_checked": value.get("relations.family", 0),
        "relations.self_s": layer_self("relations."),
        "relations.family_max_s": longest.get("relations.family", 0.0),
        "specialization.in_d_mu_calls": c("specialization.in_d_mu"),
        "specialization.coefficient_calls": c("specialization.coefficient"),
        "specialization.self_s": layer_self("specialization."),
        "specialization.value_calls": c("specialization.value"),
        "cli.report_bytes": value.get("cli.report", 0),
        "cli.self_s": layer_self("cli."),
        "trace.spans": count,
    })
    return metrics
