"""Span tracer for the benchmark's traced round.

The tracer wraps the public functions and methods of each selbergkit
module from the outside and installs the wrappers where callers look them
up: on the class for methods, and for module functions on every loaded
selbergkit module that bound the function (``from .x import f`` copies the
binding, so patching only the defining module would miss those callers).

Every wrapped call is a span with a layer name, a start, an end and the
index of its parent span.  Spans are kept in flat arrays in memory and
written out once, when the run ends.  A span's self time is its duration
minus the time its child spans cover; per-layer self time and call counts
are accumulated as spans close, so the summary needs no second pass.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array


class Tracer:
    """In-memory span store plus per-layer call, self-time and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.finalizers: list = []

    def layer_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def maximum(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def wrap(self, fn, layer: str, before=None, after=None):
        """Return `fn` wrapped in a span of `layer`.

        `before(args, kwargs)` may return replacement (args, kwargs);
        `after(args, kwargs, result)` runs once the span has closed.
        """
        nid = self.layer_id(layer)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        layer_of, parent_of = self.span_layer, self.span_parent
        start_of, end_of = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start_of)
            layer_of.append(nid)
            parent_of.append(stack[-1][0] if stack else -1)
            start_of.append(0.0)
            end_of.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_of[idx] = t0
                end_of[idx] = t1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def summary(self) -> dict:
        """Per-layer `<layer>.calls`, `<layer>.self_s` and the counters."""
        for fin in self.finalizers:
            fin()
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out.update(self.counters)
        return out

    def save(self, path) -> None:
        """Write every span (layer, parent, start, end) as one .npz file."""
        import numpy as np
        np.savez(path, layer_names=np.array(self.names),
                 layer=np.frombuffer(self.span_layer, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


# ---------------------------------------------------------------------------
# layer table
# ---------------------------------------------------------------------------

def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _arg(fn, name):
    """Reader for argument `name` of `fn`, applying its default."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _rebind(old, new) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("selbergkit"):
            names = vars(mod)
            for key, val in list(names.items()):
                if val is old:
                    names[key] = new


def install(tracer: Tracer) -> None:
    """Import every selbergkit layer and wrap its entry points in spans."""
    import numpy as np

    from selbergkit import (
        cli, closedform, coeffs, complexschur, elliptic, field, identities,
        kernels, macdonald, quadrature, suites, symfunc,
    )

    def function(module, name, layer, before=None, after=None):
        old = getattr(module, name)
        _rebind(old, tracer.wrap(old, layer, before, after))

    def method(cls, name, layer, after=None):
        setattr(cls, name, tracer.wrap(cls.__dict__[name], layer, after=after))

    # field: GCD, PRS fallback, exact division, products, FieldElement ops
    function(field, "mpoly_gcd", "field.gcd")
    function(field, "_prs_gcd", "field.prs_fallback")
    method(field.MPoly, "divide_exact", "field.divide_exact")
    for name in ("__mul__", "__rmul__"):
        method(field.MPoly, name, "field.mpoly_mul")

    def peak_terms(args, kwargs, result):
        if isinstance(result, field.FieldElement):
            tracer.maximum("field.peak_terms",
                           len(result.num.terms) + len(result.den.terms))

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        method(field.FieldElement, name, "field.fe_arith", after=peak_terms)

    # symfunc
    for name in ("plethysm", "pk_of_alphabet"):
        function(symfunc, name, "symfunc.plethysm")
    for name in ("__mul__", "__rmul__"):
        method(symfunc.LetterSeries, name, "symfunc.letterseries_mul")
    method(symfunc.SymFunc, "to_basis", "symfunc.to_basis")
    for name in ("h_series_of_alphabet", "e_series_of_alphabet"):
        function(symfunc, name, "symfunc.h_series")

    # macdonald: builds are the misses of the macdonald_P cache, which
    # starts empty in the benchmark's fresh process
    p_cache = macdonald.macdonald_P
    tracer.finalizers.append(lambda: tracer.counters.__setitem__(
        "macdonald.P.builds", p_cache.cache_info().misses))
    for name in ("macdonald_P", "macdonald_Q"):
        function(macdonald, name, "macdonald.P")
    for name in ("_skew_table", "skew_P", "skew_Q"):
        function(macdonald, name, "macdonald.skew_table")
    for name in ("evaluation_symmetry_check",
                 "generalized_evaluation_symmetry_check"):
        function(macdonald, name, "macdonald.eval_symmetry")
    for name in ("jack_P", "jack_eval", "jack_binomial_spec"):
        function(macdonald, name, "macdonald.jack")

    # identities
    for name in ("verify_skew_sum", "verify_skew_sum_limit"):
        function(identities, name, "identities.skew_sum")
    for name in ("f_function", "f_function_limit"):
        function(identities, name, "identities.f_function")
    function(identities, "an_cauchy_check", "identities.an_cauchy")

    # quadrature: chain rules, Gauss-Jacobi, torus rules
    region_npts = _arg(quadrature.integrate_region, "npts")
    refine_levels: set = set()

    def region_nodes(args, kwargs, result):
        npts = region_npts(args, kwargs)
        refine_levels.add(npts)
        tracer.add("quadrature.chain.nodes", npts ** len(args[0].order))

    def chain_done(args, kwargs, result):
        tracer.add("quadrature.chain.refinements", len(refine_levels) - 1)
        refine_levels.clear()
        if math.isfinite(result[1]):
            tracer.maximum("quadrature.err_estimate_max", result[1])

    aflt_k = _arg(quadrature.aflt_lhs, "k")
    aflt_npts = _arg(quadrature.aflt_lhs, "npts")

    def aflt_nodes(args, kwargs, result):
        tracer.add("quadrature.chain.nodes",
                   aflt_npts(args, kwargs) ** aflt_k(args, kwargs))

    function(quadrature, "integrate_region", "quadrature.chain",
             after=region_nodes)
    function(quadrature, "an_selberg_lhs", "quadrature.chain",
             after=chain_done)
    function(quadrature, "aflt_lhs", "quadrature.chain", after=aflt_nodes)
    function(quadrature, "gauss_jacobi_01", "quadrature.gauss_jacobi")

    torus_n = _arg(quadrature.torus_integral, "n")
    torus_npts = _arg(quadrature.torus_integral, "npts")

    def torus_nodes(args, kwargs, result):
        tracer.add("quadrature.torus.nodes",
                   torus_npts(args, kwargs) ** torus_n(args, kwargs))

    function(quadrature, "torus_integral", "quadrature.torus",
             after=torus_nodes)
    for name in ("mac_aflt_lhs", "ortho_norm_lhs"):
        function(quadrature, name, "quadrature.torus")

    # kernels: callers look them up as attributes of the kernels module
    def points(counter):
        def after(args, kwargs, result):
            tracer.add(counter, int(np.size(args[0])))
        return after

    function(kernels, "ellgamma_arr", "kernels.ellgamma",
             after=points("kernels.ellgamma.points"))
    for name in ("qpoch_inf_arr", "theta_arr"):
        function(kernels, name, "kernels.qpoch",
                 after=points("kernels.qpoch.points"))

    # elliptic: the pole scan counts every point its integrand is asked for
    def count_scan_points(args, kwargs):
        f = args[0]

        def counted(zs):
            tracer.add("elliptic.pole_scan.points", int(np.size(zs)))
            return f(zs)
        return (counted,) + tuple(args[1:]), kwargs

    function(elliptic, "contour_pole_scan", "elliptic.pole_scan",
             before=count_scan_points)
    for name in ("bc1_interp", "skew_interp", "skew_interp_pm",
                 "bipartite_skew_interp_pm", "elliptic_binomial",
                 "normalised_binomial"):
        function(elliptic, name, "elliptic.interp")

    # scalar closed forms and coefficient helpers
    for name in _public_functions(closedform):
        function(closedform, name, "closedform.rhs")
    for name in _public_functions(complexschur):
        function(complexschur, name, "complexschur")
    for name in _public_functions(coeffs):
        function(coeffs, name, "coeffs.scalar")

    # one span per case: its self time is case time no layer covers
    function(suites, "run_case", "suites.harness")
    if cli.run_case is not suites.run_case:
        raise RuntimeError("cli.run_case was not rebound to the traced one")
