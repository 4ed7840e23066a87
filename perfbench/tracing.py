"""Per-layer tracing by wrapping the library's public functions from outside.

Nothing under src/ is edited: `Tracer.install` replaces each traced
function in every lkholonomy module namespace that holds it (so
``from .jetmat import jmat_inverse`` call sites are covered too), and
`Tracer.uninstall` puts the originals back.

A span's time is self time: its wall time minus the time of traced spans
it encloses, so the ``*_s`` figures of different layers do not overlap.  A
call nested inside a span of the same name is part of the outer span.  The
SVD kernel is timed where it runs but is not subtracted from its caller:
``linalg.svd_s`` is also contained in the time of the calling layer.
Functions bound as default arguments at definition time (the ``sigma=``
parameters) are out of reach and not counted.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import lkholonomy  # noqa: F401  (loads every module the spans name)
from lkholonomy import cli  # noqa: F401
from lkholonomy.jets import Jet

# (span, module, functions, call counter)
SPANS = [
    ("jetmat.inverse", "jetmat", ["jmat_inverse"], "jetmat.inverse_calls"),
    ("geometry.metric", "geometry", ["metric_from_potential"], None),
    ("geometry.inverse", "geometry", ["walker_inverse", "generic_inverse"],
     "geometry.inverse_calls"),
    ("geometry.christoffel", "geometry", ["christoffel"], "geometry.christoffel_calls"),
    ("geometry.curvature", "geometry", ["curvature"], "geometry.curvature_calls"),
    ("geometry.ricci", "geometry", ["ricci"], None),
    ("geometry.frame", "geometry", ["witt_frame"], None),
    ("geometry.gauge", "geometry", ["radial_parallel_gauge"], None),
    ("geometry.holonomy", "geometry", ["infinitesimal_holonomy"], None),
    ("geometry.ppwave", "geometry", ["ppwave_check"], None),
    ("potentials.build", "potentials",
     ["antiderivative", "fc_potential", "fun_potential", "fcm_potential",
      "frnm_potential", "fl0_potential", "fpsi_potential", "build_potential",
      "small_dim_metric", "oriented_lines_metric", "ppwave_potential"], None),
    ("classify.match", "classify", ["match_algebra"], None),
    ("classify.build", "classify", ["build_family"], None),
    ("lie.span", "lie", ["real_span_basis", "in_real_span", "span_residual"], None),
    ("curvspace.solve", "curvspace", ["solve_curvature_space"], None),
    ("curvspace.berger", "curvspace", ["berger_check"], None),
    ("serialization.decode", "serialization",
     ["load_json", "decode_algebra", "decode_descriptor", "build_metric_from_config"], None),
    ("serialization.report", "serialization", ["make_report", "dump_json"], None),
    ("symspace.report", "symspace",
     ["canonical_pair", "symspace_report", "build_transvection"], None),
]

# per-layer metric name -> (kind, key); kind is 'self', 'count', 'max' or 'leaf'
METRICS = {
    "jets.mul_calls": ("count", "jets.mul_calls"),
    "jets.mul_pairs": ("count", "jets.mul_pairs"),
    "jets.max_terms": ("max", "jets.max_terms"),
    "jetmat.inverse_s": ("self", "jetmat.inverse"),
    "jetmat.inverse_calls": ("count", "jetmat.inverse_calls"),
    "geometry.gauge_s": ("self", "geometry.gauge"),
    "geometry.holonomy_self_s": ("self", "geometry.holonomy"),
    "geometry.metric_s": ("self", "geometry.metric"),
    "geometry.frame_s": ("self", "geometry.frame"),
    "geometry.inverse_s": ("self", "geometry.inverse"),
    "geometry.inverse_calls": ("count", "geometry.inverse_calls"),
    "geometry.christoffel_s": ("self", "geometry.christoffel"),
    "geometry.christoffel_calls": ("count", "geometry.christoffel_calls"),
    "geometry.curvature_s": ("self", "geometry.curvature"),
    "geometry.curvature_calls": ("count", "geometry.curvature_calls"),
    "geometry.ricci_s": ("self", "geometry.ricci"),
    "geometry.ppwave_self_s": ("self", "geometry.ppwave"),
    "potentials.build_s": ("self", "potentials.build"),
    "potentials.terms": ("count", "potentials.terms"),
    "classify.match_s": ("self", "classify.match"),
    "classify.build_s": ("self", "classify.build"),
    "lie.span_s": ("self", "lie.span"),
    "lie.sigma_calls": ("count", "lie.sigma_calls"),
    "curvspace.solve_s": ("self", "curvspace.solve"),
    "curvspace.berger_self_s": ("self", "curvspace.berger"),
    "curvspace.unknowns": ("max", "curvspace.unknowns"),
    "linalg.svd_s": ("leaf", "linalg.svd"),
    "linalg.svd_calls": ("count", "linalg.svd_calls"),
    "linalg.svd_bytes": ("count", "linalg.svd_bytes"),
    "serialization.decode_s": ("self", "serialization.decode"),
    "serialization.report_s": ("self", "serialization.report"),
    "serialization.report_bytes": ("count", "serialization.report_bytes"),
    "symspace.report_s": ("self", "symspace.report"),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lkholonomy" or name.startswith("lkholonomy."))]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []   # child time of each open span
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn, counter=None, on_result=None):
        def traced(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            if key in self._open:
                return fn(*args, **kwargs)
            self._open.add(key)
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._open.discard(key)
                self.self_s[key] += dur - frame[0]
                if self._stack:
                    self._stack[-1][0] += dur
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _counted(self, fn, on_call):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        return counted

    def _svd(self, fn):
        def svd(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            self.leaf_s["linalg.svd"] += perf_counter() - t0
            self.counts["linalg.svd_calls"] += 1
            parts = out if isinstance(out, tuple) else (out,)
            self.counts["linalg.svd_bytes"] += int(np.asarray(a).nbytes
                                                   + sum(p.nbytes for p in parts))
            return out
        return svd

    # -- callbacks ----------------------------------------------------------

    def _on_mul(self, args, result):
        a, b = args
        if isinstance(b, Jet):
            self.counts["jets.mul_calls"] += 1
            self.counts["jets.mul_pairs"] += len(a.coeffs) * len(b.coeffs)
            if len(result.coeffs) > self.maxima["jets.max_terms"]:
                self.maxima["jets.max_terms"] = len(result.coeffs)

    def _on_potential(self, args, result):
        if isinstance(result, Jet):
            self.counts["potentials.terms"] += len(result.coeffs)

    def _on_sigma(self, args, result):
        self.counts["lie.sigma_calls"] += 1

    def _on_cspan(self, args, result):
        mats = args[0]
        N = mats[0].shape[0]
        unknowns = 2 * len(result) * N * N
        if unknowns > self.maxima["curvspace.unknowns"]:
            self.maxima["curvspace.unknowns"] = unknowns

    def _on_report(self, args, result):
        if isinstance(result, str):
            self.counts["serialization.report_bytes"] += len(result.encode())

    # -- install / uninstall ------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        for key, module, names, counter in SPANS:
            for name in names:
                fn = getattr(mods[module], name)
                on_result = {"potentials.build": self._on_potential,
                             "serialization.report": self._on_report}.get(key)
                self._replace(fn, self._span(key, fn, counter, on_result))
        self._replace(mods["lie"].sigma_involution,
                      self._counted(mods["lie"].sigma_involution, self._on_sigma))
        # private, but the only place the size 2 c N^2 of the solve is known
        cspan = mods["curvspace"]._complex_span_basis
        self._replace(cspan, self._counted(cspan, self._on_cspan))
        mul = self._counted(Jet.__mul__, self._on_mul)
        self._replace_attr(Jet, "__mul__", mul)
        self._replace_attr(Jet, "__rmul__", mul)
        self._replace_attr(np.linalg, "svd", self._svd(np.linalg.svd))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        tables = {"self": self.self_s, "leaf": self.leaf_s,
                  "count": self.counts, "max": self.maxima}
        return {name: tables[kind][key] for name, (kind, key) in METRICS.items()}
