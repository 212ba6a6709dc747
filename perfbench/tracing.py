"""Span recorder for the traced benchmark run.

Every public function or method of the package is wrapped at the name it is
looked up through (module global, class attribute, or a re-import in another
module), so each call records a span ``(name, start, end, parent, job)``.
Spans stay in memory until the batch ends; :func:`rollup` then turns them into
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

import numpy as np

_now = time.perf_counter

# (module, attribute, span name).  A span name is "<layer>.<group>"; the group
# names the per-layer metric that receives the span's self time.  Re-imported
# names are listed once per module that looks them up.
TARGETS = (
    ("symbolcas", "BoundaryChart.__init__", "symbolcas.build"),
    ("symbolcas", "BoundaryChart.alphas_full", "symbolcas.build"),
    ("symbolcas", "BoundaryChart.alphas_tilde", "symbolcas.build"),
    ("symbolcas", "BoundaryChart.alpha_tilde_parts", "symbolcas.build"),
    ("symbolcas", "BoundaryChart.resolvent", "symbolcas.build"),
    ("symbolcas", "BoundaryChart.eval_at_boundary_point", "symbolcas.eval_jets"),
    ("symbolcas", "star_compose", "symbolcas.star_compose"),
    ("symbolcas", "canonical_zero_form", "symbolcas.canonical"),
    ("symbolcas", "riccati_residual", "symbolcas.riccati"),
    ("symbolcas", "parametrix_defect", "symbolcas.parametrix"),
    ("symbolcas", "projected_square_correction_defect", "symbolcas.projected_square"),
    ("symbolint", "transform", "symbolint.reduce"),
    ("symbolint", "boundary_reduce", "symbolint.reduce"),
    ("symbolint", "term_table", "symbolint.term_table"),
    ("symbolint", "a0_density", "symbolint.density"),
    ("symbolint", "q_density", "symbolint.density"),
    ("symbolint", "pi0_density", "symbolint.density"),
    ("symbolint", "a1_coefficient", "symbolint.density"),
    ("symbolint", "xi_moment", "sfunc.xi_moment"),
    ("symbolint", "mu_residue", "sfunc.mu_residue"),
    ("sfunc", "SFunction.deriv_at", "sfunc.s_derivative"),
    ("sfunc", "SFunction.value_at", "sfunc.s_derivative"),
    ("sfunc", "xi_moment", "sfunc.xi_moment"),
    ("sfunc", "mu_residue", "sfunc.mu_residue"),
    ("sfunc", "riemann_zeta", "sfunc.riemann_zeta"),
    ("sfunc", "zeta_deriv_at", "sfunc.riemann_zeta"),
    ("spectra", "circle_form_spectrum", "spectra.build"),
    ("spectra", "product_laplacian_spectra", "spectra.build"),
    ("spectra", "product_dtn_spectrum", "spectra.build"),
    ("spectra", "disk_steklov_spectrum", "spectra.build"),
    ("zetadet", "riemann_zeta", "sfunc.riemann_zeta"),
    ("zetadet", "zeta_deriv_at", "sfunc.riemann_zeta"),
    ("zetadet", "interval_mode_sum", "zetadet.interval_sum"),
    ("zetadet", "zeta", "zetadet.zeta"),
    ("zetadet", "zeta_at_zero", "zetadet.zeta"),
    ("zetadet", "logdet_star", "zetadet.logdet"),
    ("zetadet", "verify_product_gluing", "zetadet.verify"),
    ("zetadet", "zeta_zero_identity_sides", "zetadet.verify"),
    # geom re-imports the density functions; its references wrap the traced
    # symbolint functions, so the derivation keeps its own layer spans
    ("geom", "a0_density", "geom.rederive"),
    ("geom", "q_density", "geom.rederive"),
    ("geom", "a0_constant", "geom.quadrature"),
    ("geom", "zeta0_constant", "geom.quadrature"),
    ("geom", "conformal_variation_check", "geom.quadrature"),
    ("geom", "GeometrySpec.from_json", "geom.quadrature"),
    ("cli", "run", "cli.run"),
)

# self time (seconds) reported per span group
SELF_TIME = {
    "symbolcas.build": "symbolcas.build_s",
    "symbolcas.eval_jets": "symbolcas.eval_jets_s",
    "symbolcas.star_compose": "symbolcas.star_compose_s",
    "symbolcas.canonical": "symbolcas.canonical_s",
    "symbolcas.riccati": "symbolcas.riccati_s",
    "symbolcas.parametrix": "symbolcas.parametrix_s",
    "symbolcas.projected_square": "symbolcas.projected_square_s",
    "symbolint.reduce": "symbolint.reduce_s",
    "symbolint.term_table": "symbolint.term_table_s",
    "symbolint.density": "symbolint.density_s",
    "sfunc.s_derivative": "sfunc.s_derivative_s",
    "sfunc.xi_moment": "sfunc.xi_moment_s",
    "sfunc.riemann_zeta": "sfunc.riemann_zeta_s",
    "spectra.build": "spectra.build_s",
    "zetadet.interval_sum": "zetadet.interval_sum_s",
    "zetadet.zeta": "zetadet.zeta_s",
    "zetadet.logdet": "zetadet.logdet_s",
    "zetadet.verify": "zetadet.verify_s",
    "geom.quadrature": "geom.quadrature_s",
    "cli.run": "cli.run_s",
}
# inclusive time (seconds): everything inside the span, children included
INCLUSIVE_TIME = {"geom.rederive": "geom.rederive_s"}
# number of spans per group
CALLS = {
    "symbolcas.eval_jets": "symbolcas.eval_jets_calls",
    "symbolcas.canonical": "symbolcas.canonical_calls",
    "symbolint.reduce": "symbolint.reduce_calls",
    "sfunc.s_derivative": "sfunc.s_derivative_calls",
    "sfunc.xi_moment": "sfunc.xi_moment_calls",
    "sfunc.mu_residue": "sfunc.mu_residue_calls",
    "sfunc.riemann_zeta": "sfunc.riemann_zeta_calls",
    "zetadet.zeta": "zetadet.zeta_calls",
}
# counters filled by the size hooks below
COUNTERS = (
    "symbolcas.deep_trace_ops",
    "symbolcas.defect_ops",
    "symbolint.density_ops",
    "zetadet.interval_sum_elems",
    "cli.report_bytes",
)
JOB = "bench.job"
SIZING = "trace.sizing"


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = None

    def enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), None, parent, self.job])
        self.stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.spans[sid][2] = _now()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kw):
        sid = self.enter(name)
        try:
            return fn(*args, **kw)
        finally:
            self.exit(sid)

    def count(self, counter: str, measure, *args) -> None:
        """Add ``measure(*args)`` to a counter, timed as a sizing span so that
        the enclosing span's self time excludes it."""
        self.counters[counter] += self.span(SIZING, measure, *args)


def _wrap(fn, name: str, rec: Recorder, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kw):
        if before is not None:
            before(args)
        out = rec.span(name, fn, *args, **kw)
        if after is not None:
            after(args, out)
        return out
    return traced


def _size_hooks(rec: Recorder, sp):
    """Hooks that record expression sizes and array/report sizes."""
    sized_fibers = set()

    def defect_ops(args):
        rec.count("symbolcas.defect_ops", sp.count_ops, args[1])

    def deep_trace_ops(args, out):
        ch = args[0]
        if (ch.m, ch.q) in sized_fibers:
            return
        sized_fibers.add((ch.m, ch.q))
        mat = out["r2"] if ch.m == 2 else out["r3"]
        rec.count("symbolcas.deep_trace_ops", lambda: sp.count_ops(mat.trace()))

    def density_ops(args, out):
        rec.count("symbolint.density_ops", sp.count_ops, out)

    def interval_elems(args):
        rec.counters["zetadet.interval_sum_elems"] += int(np.size(args[1]))

    def report_bytes(args, out):
        rec.counters["cli.report_bytes"] += len(out[1].encode())

    return {
        ("symbolcas", "canonical_zero_form"): (defect_ops, None),
        ("symbolcas", "BoundaryChart.resolvent"): (None, deep_trace_ops),
        ("symbolint", "a0_density"): (None, density_ops),
        ("symbolint", "q_density"): (None, density_ops),
        ("zetadet", "interval_mode_sum"): (interval_elems, None),
        ("cli", "run"): (None, report_bytes),
    }


def instrument(rec: Recorder) -> None:
    """Wrap every target in place.  Call once per process, before any job."""
    import sympy as sp
    mods = {name: importlib.import_module(f"dtnzeta.{name}")
            for name in ("sfunc", "symbolcas", "symbolint", "spectra", "zetadet",
                         "geom", "cli")}
    hooks = _size_hooks(rec, sp)
    for modname, attr, name in TARGETS:
        owner = mods[modname]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if modname == "geom" and name == "geom.rederive":
            fn = getattr(mods["symbolint"], leaf)  # the traced derivation
        before, after = hooks.get((modname, attr), (None, None))
        traced = _wrap(fn, name, rec, before, after)
        setattr(owner, leaf, staticmethod(traced) if is_static else traced)


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def rollup(rec: Recorder, batch_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch."""
    spans = rec.spans
    self_t = _self_times(spans)
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    out.update({metric: 0.0 for metric in INCLUSIVE_TIME.values()})
    out.update({metric: 0 for metric in CALLS.values()})
    out.update(rec.counters)
    out["zetadet.interval_sum_bytes"] = 8 * rec.counters["zetadet.interval_sum_elems"]
    job_times = []
    job_self = sizing = 0.0
    for (name, start, end, parent, _), st in zip(spans, self_t):
        if name in SELF_TIME:
            out[SELF_TIME[name]] += st
        if name in INCLUSIVE_TIME:
            out[INCLUSIVE_TIME[name]] += end - start
        if name in CALLS:
            out[CALLS[name]] += 1
        if name == JOB:
            job_times.append(end - start)
            job_self += st
        elif name == SIZING:
            sizing += st
    deciles = statistics.quantiles(job_times, n=10, method="inclusive")
    out["trace.job_p50_s"] = deciles[4]
    out["trace.job_p90_s"] = deciles[8]
    out["trace.batch_s"] = batch_s
    out["trace.coverage_gap_s"] = batch_s - sum(job_times)
    out["trace.job_self_s"] = job_self
    out["trace.sizing_s"] = sizing
    out["trace.spans"] = len(spans)
    return out


def dump(rec: Recorder, path) -> None:
    """Write the spans as JSON lines (name, start, end, parent, job)."""
    with open(path, "w") as fh:
        for sid, span in enumerate(rec.spans):
            name, start, end, parent, job = span
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
