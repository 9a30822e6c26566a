"""In-memory spans around calls into the package's layers.

`Tracer.install` replaces public functions of the package's modules with
wrappers that record a span per call: name, start, end, parent span and
the operation it belongs to. Modules call one another through module
attributes (and a module's own functions through its globals, which are
the module attributes), so nested calls are recorded with their parent.
Nothing in the package changes: `uninstall` puts the originals back.

Spans are grouped into layer metrics. A group's inclusive time counts only
its outermost spans (a `load_domain` that calls `tube_of` is one load);
its self time is every span's duration minus that of its child spans.
Work counts are taken from call arguments, results or the raised
exception, also on the outermost span of the group only.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np


def _n_rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a, dtype=float)).shape[0])


def _edges(domain) -> int:
    verts = getattr(domain, "vertices", None)
    if verts is not None:
        return len(verts)
    spine = getattr(domain, "spine", None)
    return len(spine) - 1 if spine is not None else 1


def _count_load(res, exc, args, kwargs):
    if res is None:
        return {}
    pts = getattr(res, "vertices", None)
    if pts is None:
        pts = getattr(res, "spine", None)
    if pts is None:
        pts = getattr(res, "points", ())
    return {"geometry.load_vertices": len(pts)}


def _count_sample(res, exc, args, kwargs):
    return {"geometry.sample_points": len(res.points)} if res is not None else {}


def _count_locate(res, exc, args, kwargs):
    return {"geometry.locate_pairs": _n_rows(args[1]) * _edges(args[0])}


def _count_mfs(res, exc, args, kwargs):
    return {"dirichlet.solve_mfs_failed": int(exc is not None)}


def _count_kernel(res, exc, args, kwargs):
    sources = getattr(args[0], "charge_points", ())
    return {"dirichlet.kernel_entries": _n_rows(args[1]) * len(sources)}


def _fit_report_entries(report) -> int:
    return report.n_collocation * (2 * report.M_used + 1) if report is not None else 0


def _count_fit(res, exc, args, kwargs):
    report = res[1] if res is not None else getattr(exc, "report", None)
    return {"herglotz.fit_failed": int(exc is not None),
            "herglotz.basis_entries": _fit_report_entries(report)}


def _count_series(res, exc, args, kwargs):
    return {"herglotz.basis_entries": _n_rows(args[1]) * (2 * args[0].M + 1)}


def _count_lstsq(res, exc, args, kwargs):
    A = np.asarray(args[0])
    kind = "complex" if A.dtype.kind == "c" else "real"
    return {"linalg.lstsq_calls": 1,
            f"linalg.lstsq_cells_{kind}": A.shape[0] * A.shape[1]}


def _count_scan(res, exc, args, kwargs):
    return {"certify.scan_points": res.n_grid} if res is not None else {}


#: (module, function, layer group, counter). Groups name the per-layer metrics.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("geometry", "load_domain", "geometry.load", _count_load),
    ("geometry", "load_targets", "geometry.load", _count_load),
    ("geometry", "tube_of", "geometry.load", _count_load),
    ("geometry", "sample_boundary", "geometry.sample", _count_sample),
    ("geometry", "locate_points", "geometry.locate", _count_locate),
    ("geometry", "boundary_distance", "geometry.locate", _count_locate),
    ("dirichlet", "faber_krahn_gate", "dirichlet.gate", None),
    ("dirichlet", "solve_dirichlet_mfs", "dirichlet.solve_mfs", _count_mfs),
    ("dirichlet", "evaluate_interior", "dirichlet.evaluate_interior", _count_kernel),
    ("dirichlet", "halton_interior", "dirichlet.halton", None),
    ("dirichlet", "check_strong_positivity", "dirichlet.strong_positivity", None),
    ("dirichlet", "mean_value_check", "dirichlet.mean_value_check", None),
    ("herglotz", "fit_boundary", "herglotz.fit_boundary", _count_fit),
    ("herglotz", "fit_interior", "herglotz.fit_interior", _count_fit),
    ("herglotz", "eval_series", "herglotz.eval_series", _count_series),
    ("herglotz", "helmholtz_fd_residual", "herglotz.fd_residual", None),
    ("linalg", "lstsq", "linalg.lstsq", _count_lstsq),
    ("certify", "certify_positive", "certify.certify", None),
    ("certify", "certify_positive_on_set", "certify.certify", None),
    ("certify", "scan_for_zero", "certify.scan_for_zero", _count_scan),
    ("certify", "sign_change_on_circle", "certify.sign_change", None),
    ("specfun", "bessel_zero", "specfun.bessel_zero", None),
)

GROUPS = tuple(dict.fromkeys(t[2] for t in TARGETS))

COUNTS = ("geometry.load_vertices", "geometry.sample_points", "geometry.locate_pairs",
          "dirichlet.solve_mfs_failed", "dirichlet.kernel_entries", "herglotz.fit_failed",
          "herglotz.basis_entries", "linalg.lstsq_calls", "linalg.lstsq_cells_real",
          "linalg.lstsq_cells_complex", "certify.scan_points")


class Span:
    __slots__ = ("name", "group", "start", "end", "parent", "op", "outermost", "failed")

    def __init__(self, name, group, start, parent, op, outermost):
        self.name, self.group, self.start, self.parent = name, group, start, parent
        self.op, self.outermost = op, outermost
        self.end = None
        self.failed = False

    def as_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "failed": self.failed}


class Tracer:
    """Records spans for calls into `modules` (name -> module) while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._open: Counter = Counter()
        self._originals: list = []

    def install(self) -> None:
        for mod_name, attr, group, counter in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, f"{mod_name}.{attr}", group, counter))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    def _wrap(self, fn, name, group, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not self._open[group]
            span = Span(name, group, time.perf_counter(),
                        self._stack[-1] if self._stack else None, self.op, outermost)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open[group] += 1
            res = exc = None
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._open[group] -= 1
                if counter is not None and outermost:
                    self.counts.update(counter(res, exc, args, kwargs))
        return traced

    def layer_totals(self, ops=None) -> dict:
        """{group: (inclusive seconds, self seconds)} over spans of `ops`
        (an iterable of op ids; all spans when None)."""
        keep = None if ops is None else set(ops)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        incl, own = Counter(), Counter()
        for i, span in enumerate(self.spans):
            if keep is not None and span.op not in keep:
                continue
            dur = span.end - span.start
            if span.outermost:
                incl[span.group] += dur
            own[span.group] += dur - child[i]
        return {g: (incl[g], own[g]) for g in GROUPS}
