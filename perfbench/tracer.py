"""Outside-in span tracer for phmorph.

The tracer changes no file of the package. ``install`` rebinds each named
function in every ``phmorph`` module namespace that holds it (``differential``
is bound in ``maps``, ``hermitian``, ``biconformal`` and ``scenarios``), and
wraps each named method on its class and on every subclass that overrides it.
A name that is not found raises ``LookupError``: a rename must break the
tracer, not make a layer report zero.

Spans (name, start, end, parent) are kept in memory as flat arrays and
written by ``dump`` when the run ends. A call made directly inside a span of
the same name (``exprs.eval_jet`` recursing through its module global, an
override calling ``super()``) is folded into that span: ``calls`` counts
outermost calls, not recursion depth.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "phmorph"

# (span name, module, attribute, kind). ``kind`` says how the span is
# reported: "layer" as call count plus self time, "stage" as total time.
TARGETS = (
    ("jets.Jet2", "jets", "Jet2.__init__", "layer"),
    ("maps.SmoothMap.jets", "maps", "SmoothMap.jets", "layer"),
    ("maps.differential", "maps", "differential", "layer"),
    ("maps.horizontal_projector", "maps", "horizontal_projector", "layer"),
    ("maps.horizontal_lift", "maps", "horizontal_lift", "layer"),
    ("maps.ortho_split", "maps", "ortho_split", "layer"),
    ("maps.tension_field", "maps", "tension_field", "layer"),
    ("maps.mean_curvature_vertical", "maps", "mean_curvature_vertical",
     "layer"),
    ("manifold.christoffel", "manifold",
     "ChartedRiemannianManifold.christoffel", "layer"),
    ("manifold.FDMetric.matrix_and_derivs", "manifold",
     "FDMetric.matrix_and_derivs", "layer"),
    ("manifold.FDMetric.matrix", "manifold", "FDMetric.matrix", "layer"),
    ("manifold.richardson_partial", "manifold", "richardson_partial",
     "layer"),
    ("manifold.directional_derivative", "manifold", "directional_derivative",
     "layer"),
    ("manifold.JetMetric.matrix_and_derivs", "manifold",
     "JetMetric.matrix_and_derivs", "layer"),
    ("manifold.metric_at", "manifold", "ChartedRiemannianManifold.metric_at",
     "layer"),
    ("manifold.inverse_metric_at", "manifold",
     "ChartedRiemannianManifold.inverse_metric_at", "layer"),
    ("hermitian.f_structure", "hermitian", "f_structure", "layer"),
    ("hermitian.d_f_structure", "hermitian", "d_f_structure", "layer"),
    ("hermitian.adapted_frame", "hermitian", "adapted_frame", "layer"),
    ("hermitian.phh_defect", "hermitian", "phh_defect", "layer"),
    ("hermitian.phwc_defect", "hermitian", "phwc_defect", "layer"),
    ("hermitian.f_divergence_horizontal", "hermitian",
     "f_divergence_horizontal", "layer"),
    ("exprs.eval_jet", "exprs", "eval_jet", "layer"),
    # one span name per identity: "runner.identity.<name>"
    ("runner.identity", "runner", "run_identity", "stage"),
    ("runner.confirm_flags", "runner", "confirm_flags", "stage"),
    ("scenarios.get_scenario", "scenarios", "get_scenario", "stage"),
    ("scenarios.sample_points", "scenarios", "sample_points", "stage"),
    ("scenarios.self_check", "scenarios", "Scenario.self_check", "stage"),
    ("cli.render_report", "cli", "render_report", "stage"),
)

# The steps run_verification takes before the first identity. Untraced
# verifications wrap only these, to time set-up inside the timed run.
SETUP_TARGETS = (
    ("scenarios.get_scenario", "scenarios", "get_scenario", "stage"),
    ("scenarios.self_check", "scenarios", "Scenario.self_check", "stage"),
    ("runner.RunConfig.build_change", "runner", "RunConfig.build_change",
     "stage"),
    ("scenarios.sample_points", "scenarios", "sample_points", "stage"),
)

# Spans whose distinct input points are counted, keyed by the exact bytes of
# the coordinates (argument 1, after ``self``).
DISTINCT_POINTS = ("maps.SmoothMap.jets",)


def _point_key(args):
    return np.asarray(args[1], dtype=float).tobytes()


def _identity_span(args, kwargs):
    return "runner.identity." + (args[0] if args else kwargs["name"])


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.span_names = []
        self._ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self.points = {name: set() for name in DISTINCT_POINTS}

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def _wrap(self, fn, span):
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter
        name_id = self._name_id
        fixed = None if callable(span) else name_id(span)
        seen = self.points.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(span(args, kwargs))
            if stack[-1] >= 0 and name_col[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(_point_key(args))
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                start_col[idx] = start
                stack.pop()

        return traced

    def install(self):
        """Wrap every target; raises LookupError if one is missing."""
        for _, module_name, _, _ in self.targets:
            importlib.import_module("%s.%s" % (PACKAGE, module_name))
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span, module_name, attr, _ in self.targets:
            module = sys.modules["%s.%s" % (PACKAGE, module_name)]
            label = _identity_span if span == "runner.identity" else span
            if "." in attr:
                self._wrap_method(module, attr, label)
            else:
                self._wrap_function(modules, module, attr, label)

    def _wrap_function(self, modules, module, attr, span):
        original = vars(module).get(attr)
        if not callable(original):
            raise LookupError("%s has no function %r"
                              % (module.__name__, attr))
        traced = self._wrap(original, span)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def _wrap_method(self, module, attr, span):
        class_name, method = attr.split(".")
        cls = vars(module).get(class_name)
        if not isinstance(cls, type) or method not in vars(cls):
            raise LookupError("%s has no method %s"
                              % (module.__name__, attr))
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if method in vars(klass):
                setattr(klass, method, self._wrap(vars(klass)[method], span))

    def top_level_seconds(self):
        """Summed duration of the spans not nested in another span."""
        return sum(end - start for start, end, parent in
                   zip(self.start_col, self.end_col, self.parent_col)
                   if parent < 0)

    def dump(self, path):
        """Write the spans and distinct-point counts as a .npz file."""
        np.savez(path,
                 span_names=np.array(self.span_names, dtype=str),
                 name=np.frombuffer(self.name_col, dtype=np.int32),
                 parent=np.frombuffer(self.parent_col, dtype=np.int32),
                 start=np.frombuffer(self.start_col, dtype=np.float64),
                 end=np.frombuffer(self.end_col, dtype=np.float64),
                 distinct_names=np.array(list(self.points), dtype=str),
                 distinct_counts=np.array([len(s) for s in
                                           self.points.values()]))


def summarize(path):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which are nested inside it on a single thread."""
    with np.load(path) as data:
        names = [str(n) for n in data["span_names"]]
        nid, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        distinct = dict(zip((str(n) for n in data["distinct_names"]),
                            (int(c) for c in data["distinct_counts"])))
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    own = dur - covered
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    self_s = np.bincount(nid, weights=own, minlength=k)
    spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])}
             for i, name in enumerate(names)}
    return spans, distinct
