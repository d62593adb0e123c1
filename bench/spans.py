"""Outside-in span recording for the traced benchmark passes.

`SpanRecorder.install` wraps the public functions of the ten `conesign`
modules and rebinds each wrapped name in every `conesign.*` namespace that
imported it, so calls between modules and within a module both pass
through the wrapper.  `IdealPresentation.gb` is wrapped as a method, and
`sympy.factor_list` as the span `factor.sympy_factor_list`, so its time
stays in the factor layer; if sympy is not imported yet, it is wrapped
right after its first import.  The package's files are never edited;
`restore` puts every original back.

Not wrapped, so their cost stays in the caller's self time: private
helpers (`_reduce_terms`, `_update_pairs`, ...), `Polynomial` arithmetic,
and the per-term monomial helpers `poly.mono_*`.

A span is (name, start, end, parent index, job id, tag).  `aggregate`
turns the spans of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import sys
import time

LAYERS = ("cli", "poly", "groebner", "ideals", "factor", "linalg", "cones",
          "euler", "behrend", "hilb")

# cli.main is covered by the job span; the mono_* helpers run once per term,
# so wrapping them would time the wrapper, not the layer
SKIP = {"cli.main"} | {f"poly.mono_{op}" for op in
                       ("mul", "divides", "div", "lcm", "degree", "coprime")}

EU_RULES = ("outside", "nonsingular", "curve-multiplicity", "plane-cone",
            "aluffi-cone", "unsupported")


def _buchberger_tag(args, kwargs, result):
    gens, order = args[0], args[1] if len(args) > 1 else kwargs["order"]
    gens = [g for g in gens if not g.is_zero()]
    char = gens[0].ring.characteristic if gens else 0
    reduced = len(gens) == len(result) and (
        {g.monic(order) for g in gens} == set(result))
    return {"char": char, "reduced": reduced}


def _rank_tag(args, kwargs, result):
    rows = args[0]
    return {"entries": len(rows) * (len(rows[0]) if rows else 0)}


def _eu_tag(args, kwargs, result):
    return {"rule": result.rule}


TAGGERS = {
    "groebner.buchberger": _buchberger_tag,
    "linalg.rational_rank": _rank_tag,
    "euler.eu_point": _eu_tag,
}


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._patched = []
        self._hooks = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        tagger = TAGGERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tag = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "euler.eu_point" and type(exc).__name__ == "EuUnsupportedError":
                    tag = {"rule": "unsupported"}
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, tag)
            if tagger is not None:
                spans[idx] = (name, start, end, parent, self.job,
                              tagger(args, kwargs, result))
            return result

        return traced

    def _rebind(self, attr, fn, wrapped, namespaces):
        for ns in namespaces:
            if vars(ns).get(attr) is fn:
                self._patched.append((ns, attr, fn))
                setattr(ns, attr, wrapped)

    def _package(self):
        return [sys.modules[m] for m in list(sys.modules)
                if m == "conesign" or m.startswith("conesign.")]

    def install(self):
        modules = self._package()
        for layer in LAYERS:
            mod = sys.modules[f"conesign.{layer}"]
            for attr, fn in vars(mod).copy().items():
                full = f"{layer}.{attr}"
                if (attr.startswith("_") or full in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._rebind(attr, fn, self.wrap(full, fn), modules)
        cls = sys.modules["conesign.ideals"].IdealPresentation
        self._patched.append((cls, "gb", cls.gb))
        cls.gb = self.wrap("ideals.gb", cls.gb)
        self.when_imported("sympy", self._wrap_factor_list)

    def _wrap_factor_list(self, sympy):
        fn = sympy.factor_list
        self._rebind("factor_list", fn, self.wrap("factor.sympy_factor_list", fn),
                     [sympy, *self._package()])

    def when_imported(self, name, callback):
        """callback(module) now if name is imported, else right after its import."""
        if name in sys.modules:
            callback(sys.modules[name])
            return
        hook = _AfterImport(name, callback)
        sys.meta_path.insert(0, hook)
        self._hooks.append(hook)

    def restore(self):
        for hook in self._hooks:
            if hook in sys.meta_path:
                sys.meta_path.remove(hook)
        self._hooks.clear()
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)


class _AfterImport:
    """A sys.meta_path finder that calls callback(module) once, right after
    the first import of one module."""

    def __init__(self, name, callback):
        self.name, self.callback = name, callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_then_call(module):
            exec_module(module)
            self.callback(module)

        spec.loader.exec_module = exec_then_call
        return spec


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# public functions whose call count / self time is a metric of its own
COUNTED = ("groebner.buchberger", "groebner.normal_form", "ideals.gb", "ideals.saturate",
           "ideals.intersect", "ideals.multiplicity_along", "linalg.rational_rank",
           "hilb.tangent_dimension_hilb", "euler.eu_point",
           "behrend.dominating_cone_multiplicity", "cones.cone_components")
TIMED = ("groebner.buchberger", "groebner.spolynomial", "groebner.normal_form",
         "groebner.module_buchberger", "groebner.module_syzygies", "groebner.syzygy_basis",
         "ideals.eliminate", "ideals.minimal_primes", "ideals.multiplicity_along",
         "ideals.standard_monomials", "hilb.tangent_dimension_hilb",
         "hilb.quot_tangent_dimension", "hilb.enumerate_plane_partitions", "cones.rees_ideal")

# name: unit; every ratio's base is the calls count named in bench/README.md
PER_LAYER = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in TIMED},
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("job",)},
    "groebner.buchberger.self_s.char0": "s",
    "groebner.buchberger.self_s.charp": "s",
    "groebner.buchberger.reduced_input_ratio": "ratio",
    "groebner.spairs": "count",
    "groebner.spairs_per_call": "ratio",
    "ideals.gb.cache_hit_ratio": "ratio",
    "ideals.saturate.iterations": "ratio",
    "linalg.rank_entries": "count",
    "factor.calls": "count",
    "factor.sympy_calls": "count",
    "poly.parse.self_s": "s",
    **{f"euler.rule.{rule}": "count" for rule in EU_RULES},
    # filled in by run.py, not from one pass's spans
    "factor.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.pass_s.traced": "s",
    "trace.pass_s.untraced": "s",
}


def aggregate(spans):
    """Per-layer metrics of one traced pass (counts, self times, ratios)."""
    calls, self_s = {}, {}
    selfs = self_times(spans)
    for span, st in zip(spans, selfs):
        for key in {span[0], span[0].split(".")[0]}:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + st

    def ratio(a, b):
        return a / b if b else 0.0

    def parent_is(span, name):
        return span[3] >= 0 and spans[span[3]][0] == name

    def tagged(name):
        return [s[5] for s in spans if s[0] == name and s[5]]

    bb = tagged("groebner.buchberger")
    bb_self = {"char0": 0.0, "charp": 0.0}
    for span, st in zip(spans, selfs):
        if span[0] == "groebner.buchberger" and span[5]:
            bb_self["charp" if span[5]["char"] else "char0"] += st
    in_gb = sum(1 for s in spans if s[0] == "groebner.buchberger" and parent_is(s, "ideals.gb"))
    in_sat = sum(1 for s in spans
                 if s[0] == "ideals.quotient_by_poly" and parent_is(s, "ideals.saturate"))
    rules = [t["rule"] for t in tagged("euler.eu_point")]
    return {
        **{f"{name}.calls": calls.get(name, 0) for name in COUNTED},
        **{f"{name}.self_s": self_s.get(name, 0.0) for name in TIMED},
        **{f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS + ("job",)},
        "groebner.buchberger.self_s.char0": bb_self["char0"],
        "groebner.buchberger.self_s.charp": bb_self["charp"],
        "groebner.buchberger.reduced_input_ratio": ratio(
            sum(1 for t in bb if t["reduced"]), len(bb)),
        "groebner.spairs": calls.get("groebner.spolynomial", 0),
        "groebner.spairs_per_call": ratio(calls.get("groebner.spolynomial", 0), len(bb)),
        "ideals.gb.cache_hit_ratio": 1.0 - ratio(in_gb, calls["ideals.gb"])
        if calls.get("ideals.gb") else 0.0,
        "ideals.saturate.iterations": ratio(in_sat, calls.get("ideals.saturate", 0)),
        "linalg.rank_entries": sum(t["entries"] for t in tagged("linalg.rational_rank")),
        "factor.calls": calls.get("factor.factor_polynomial", 0)
        + calls.get("factor.factor_univariate", 0),
        "factor.sympy_calls": calls.get("factor.sympy_factor_list", 0),
        "poly.parse.self_s": self_s.get("poly.parse_polynomial", 0.0)
        + self_s.get("poly.parse_generators", 0.0),
        **{f"euler.rule.{rule}": rules.count(rule) for rule in EU_RULES},
    }
