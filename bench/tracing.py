"""Spans around calls into the moser2d modules, recorded from the benchmark.

The package itself carries no instrumentation.  For the traced run only,
``Tracer.install`` replaces every public function of a package module,
under every name the package's modules bind it to, with a wrapper that
records a span: layer (the module), name, request id, parent span, start,
end, the exception it raised and a work count.  Rebinding the names the
modules import from one another (``moser2d.optimizer.profile_exp_integral``,
``moser2d.cli.tm_functional``, ...) is what makes the inside of
``maximize``, ``tm_functional`` and ``cli.main`` visible.  Three methods are
patched on their classes because their callers reach them through the
class: ``RadialProfile.__init__`` (profile construction),
``SequenceSpec.build`` and ``WeightedSamples.__post_init__``.
``Tracer.uninstall`` puts every original back.

A layer's self time is the duration of its spans minus the time covered
by their direct children.  Private helpers (``optimizer._project``,
``ascend``, ``_isotonic``) have no span of their own; their time is part of
their module's self time.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = (
    "quadrature",
    "profile",
    "sequences",
    "rearrangement",
    "inequalities",
    "equivalence",
    "optimizer",
    "cli",
)

# span record fields
_LAYER, _NAME, _REQ, _PARENT, _T0, _T1, _EXC, _WORK = range(8)


def _n_segments(args, kwargs, out):
    return len(args[1]) - 1


def _n_knots(args, kwargs, out):
    # RadialProfile(t_support, s, v) through __init__(self, t_support, s, v)
    return len(args[2]) if len(args) > 2 else len(kwargs["s"])


def _n_cells(args, kwargs, out):
    return int(args[0].values.size)


def _profile_knots(args, kwargs, out):
    p = args[0] if args else None
    return int(p.n_knots) if hasattr(p, "n_knots") else 0


def _n_evaluations(args, kwargs, out):
    return int(getattr(out, "n_evaluations", 0))


# functions whose span carries a work count
_WORK_COUNTS = {
    "profile_exp_integral": _n_segments,
    "__init__": _n_knots,
    "decreasing_rearrangement": _n_cells,
    "maximize": _n_evaluations,
}

# methods reached through their class, patched on the class
_METHODS = (
    ("profile", "RadialProfile", "__init__"),
    ("sequences", "SequenceSpec", "build"),
    ("rearrangement", "WeightedSamples", "__post_init__"),
)


class Tracer:
    """Collects spans in memory while ``enabled``; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.enabled = False
        self._stack = []
        self._undo = []

    def _wrap(self, layer, name, fn, work):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [layer, name, self.request, stack[-1] if stack else -1, 0.0, 0.0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[_T0] = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                rec[_EXC] = type(exc).__name__
                raise
            finally:
                rec[_T1] = perf()
                stack.pop()
                if work is not None:
                    rec[_WORK] = work(args, kwargs, out)

        return traced

    def install(self):
        import moser2d
        import moser2d.cli

        modules = {layer: getattr(moser2d, layer) for layer in LAYERS}
        namespaces = [moser2d] + list(modules.values())
        for layer, mod in modules.items():
            # cli has no __all__; its public entry point is main
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                # every inequality takes the profile it scans first
                work = _profile_knots if layer == "inequalities" else _WORK_COUNTS.get(name)
                wrapped = self._wrap(layer, name, fn, work)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(layer, meth, fn, _WORK_COUNTS.get(meth)))

    def uninstall(self):
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_T1] - rec[_T0]
        m = {}
        for layer in LAYERS:
            for key in ("calls", "self_s", "errors"):
                m["%s.%s" % (layer, key)] = 0 if key != "self_s" else 0.0

        def add(key, x):
            m[key] = m.get(key, 0) + x

        quad_in_opt = 0.0
        for i, rec in enumerate(spans):
            layer, name = rec[_LAYER], rec[_NAME]
            dur = rec[_T1] - rec[_T0]
            own = dur - child[i]
            parent = spans[rec[_PARENT]] if rec[_PARENT] >= 0 else None
            entry = parent is None or parent[_LAYER] != layer
            add(layer + ".self_s", own)
            if entry:
                add(layer + ".calls", 1)
                # an exception counts once, where it leaves the layer;
                # value-overflow is an expected result, counted separately
                if rec[_EXC] is not None and rec[_EXC] != "ValueOverflowError":
                    add(layer + ".errors", 1)
            if layer == "quadrature":
                add("quadrature.segments", rec[_WORK])
                if rec[_EXC] == "ValueOverflowError":
                    add("quadrature.overflow_raised", 1)
                if parent is not None and parent[_LAYER] == "optimizer":
                    quad_in_opt += dur
            elif layer == "profile":
                if name == "__init__":
                    add("profile.construct_calls", 1)
                    add("profile.knots_built", rec[_WORK])
                    add("profile.construct_self_s", own)
                elif name in ("dirichlet_norm_sq", "l2_norm_sq"):
                    add("profile.norms_calls", 1)
                    add("profile.norms_self_s", own)
                elif name == "tm_functional":
                    add("profile.functional_self_s", own)
            elif layer == "rearrangement":
                add("rearrangement.cells", rec[_WORK])
            elif layer == "inequalities" and entry:
                add("inequalities.knots_scanned", rec[_WORK])
            elif layer == "optimizer" and name == "maximize":
                add("optimizer.evals", rec[_WORK])
        for key in (
            "quadrature.segments",
            "quadrature.overflow_raised",
            "profile.construct_calls",
            "profile.knots_built",
            "profile.norms_calls",
            "rearrangement.cells",
            "inequalities.knots_scanned",
            "optimizer.evals",
        ):
            m.setdefault(key, 0)
        for key in ("profile.construct_self_s", "profile.norms_self_s", "profile.functional_self_s"):
            m.setdefault(key, 0.0)

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        m["quadrature.us_per_segment"] = per(m["quadrature.self_s"], m["quadrature.segments"], 1e6)
        m["rearrangement.ns_per_cell"] = per(m["rearrangement.self_s"], m["rearrangement.cells"], 1e9)
        m["optimizer.self_us_per_eval"] = per(m["optimizer.self_s"], m["optimizer.evals"], 1e6)
        m["optimizer.quadrature_us_per_eval"] = per(quad_in_opt, m["optimizer.evals"], 1e6)
        m["cli.commands"] = m["cli.calls"]
        m["trace.spans"] = len(spans)
        return m
