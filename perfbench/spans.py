"""Spans around the public functions of refsat's five modules.

While a ``Tracer`` is active, every plain function listed in the ``__all__``
of a layer module is replaced by a timing wrapper at every refsat module
name that refers to it. The modules import names directly (``cli`` calls
``saturation_coefficient`` through ``refsat.cli``, ``coefficients`` calls
``stiffness_matrix`` through ``refsat.coefficients``), so patching only the
defining module would miss most calls. Leaving the context restores the
original functions.

Spans are kept in memory as (name, start, end, parent) records. Probes run
after a span has closed, with tracing paused, and attach computed work
counts (matrix sizes, nonzeros, draws) that do not depend on timing.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import statistics
import sys
import time
import types
from dataclasses import dataclass, field

import numpy as np

from refsat.coefficients import NumericalError

LAYERS = ("bases", "assembly", "coefficients", "patches", "cli")

MIB = float(1 << 20)


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    error: str | None = None
    #: time spent in probes of descendants, which is not the program's
    probed: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.probed


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _digest(load, stiffness) -> str:
    """Content hash of one dual-Gram input, so repeated builds can be counted."""
    h = hashlib.blake2b(digest_size=16)
    load = np.ascontiguousarray(load, dtype=float)
    h.update(repr(load.shape).encode())
    h.update(load.tobytes())
    csr = stiffness.tocsr()
    for part in (csr.indptr, csr.indices, csr.data):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _probe_load(fn, args, kwargs, result):
    return {"bytes": 8 * result.size}


def _probe_stiffness(fn, args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _probe_schur(fn, args, kwargs, result):
    bound = _arguments(fn, args, kwargs)
    load = np.atleast_2d(np.asarray(bound["load"], dtype=float))
    rows, dim = load.shape
    return {"rhs_bytes": 8 * rows * dim,
            "input": _digest(load, bound["stiffness"])}


def _probe_eig(fn, args, kwargs, result):
    return {"order": int(np.shape(_arguments(fn, args, kwargs)["r_top"])[0])}


def _probe_saturation(fn, args, kwargs, result):
    return {"spec": _arguments(fn, args, kwargs)["spec"],
            "residual": float(result.residual), "tie": bool(result.tie)}


def _probe_traversal(fn, args, kwargs, result):
    # one step per interior edge, checked in each of the 8 orientations
    return {"steps": 8 * _arguments(fn, args, kwargs)["patch"].n_steps}


def _probe_extension_ratio(fn, args, kwargs, result):
    return {"draws": int(_arguments(fn, args, kwargs)["samples"])}


PROBES = {
    "assembly.stiffness_matrix": _probe_stiffness,
    "assembly.load_matrix_volume": _probe_load,
    "assembly.load_matrix_edge": _probe_load,
    "assembly.load_matrix_quotient_edge": _probe_load,
    "coefficients.schur_dual_gram": _probe_schur,
    "coefficients.max_generalized_eigenvalue": _probe_eig,
    "coefficients.saturation_coefficient": _probe_saturation,
    "patches.verify_traversal_lemma": _probe_traversal,
    "patches.measured_extension_ratio": _probe_extension_ratio,
}


class Tracer:
    """Context manager that records one span per call of a public function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._calls = 0
        self._paused = False
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if not self._stack:
                self._calls += 1
            span = Span(
                id=next(self._ids),
                parent=self._stack[-1].id if self._stack else None,
                call=self._calls, name=name, start=time.perf_counter(),
            )
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except NumericalError as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if probe is not None:
                self._paused = True
                probe_start = time.perf_counter()
                try:
                    span.info = probe(fn, args, kwargs, result)
                finally:
                    self._paused = False
                    cost = time.perf_counter() - probe_start
                    for ancestor in self._stack:
                        ancestor.probed += cost
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [sys.modules[f"refsat.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in [sys.modules["refsat"], *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


# ------------------------------------------------------------------ metrics

#: the per-layer metrics a traced run reports, with their units
PER_LAYER = {
    "bases.gram_matrices.calls": "count",
    "bases.gram_matrices.s": "s",
    "bases.build_basis_1d.calls": "count",
    "bases.build_basis_1d.s": "s",
    "assembly.space.s": "s",
    "assembly.stiffness_matrix.calls": "count",
    "assembly.stiffness_matrix.s": "s",
    "assembly.stiffness_matrix.nnz": "count",
    "assembly.load_matrix.calls": "count",
    "assembly.load_matrix.s": "s",
    "assembly.load_matrix.mb": "MiB",
    "coefficients.saturation_coefficient.calls": "count",
    "coefficients.saturation_coefficient.s": "s",
    "coefficients.saturation_coefficient.self_s": "s",
    "coefficients.schur_dual_gram.calls": "count",
    "coefficients.schur_dual_gram.s": "s",
    "coefficients.schur_dual_gram.rhs_mb": "MiB",
    "coefficients.schur_dual_gram.distinct_ratio": "ratio",
    "coefficients.max_generalized_eigenvalue.calls": "count",
    "coefficients.max_generalized_eigenvalue.s": "s",
    "coefficients.max_generalized_eigenvalue.order_max": "count",
    "coefficients.residual_max": "ratio",
    "coefficients.ties": "count",
    "coefficients.numerical_errors": "count",
    "patches.patch_catalog.s": "s",
    "patches.verify_traversal_lemma.calls": "count",
    "patches.verify_traversal_lemma.s": "s",
    "patches.verify_traversal_lemma.steps": "count",
    "patches.measured_extension_ratio.calls": "count",
    "patches.measured_extension_ratio.s": "s",
    "patches.measured_extension_ratio.draws": "count",
    "patches.extension_operator.calls": "count",
    "patches.extension_operator.s": "s",
    "cli.main.self_s": "s",
    "cli.load_published_table.s": "s",
    "cli.estimated_seconds.error_max": "ratio",
    "trace.overhead_s": "s",
}

#: per-layer metrics that are counts of work computed from the inputs and
#: outputs of the wrapped calls; they must repeat exactly between runs
COMPUTED = (
    "bases.gram_matrices.calls",
    "bases.build_basis_1d.calls",
    "assembly.stiffness_matrix.calls",
    "assembly.stiffness_matrix.nnz",
    "assembly.load_matrix.calls",
    "assembly.load_matrix.mb",
    "coefficients.saturation_coefficient.calls",
    "coefficients.schur_dual_gram.calls",
    "coefficients.schur_dual_gram.rhs_mb",
    "coefficients.schur_dual_gram.distinct_ratio",
    "coefficients.max_generalized_eigenvalue.calls",
    "coefficients.max_generalized_eigenvalue.order_max",
    "coefficients.ties",
    "coefficients.numerical_errors",
    "patches.verify_traversal_lemma.calls",
    "patches.verify_traversal_lemma.steps",
    "patches.measured_extension_ratio.calls",
    "patches.measured_extension_ratio.draws",
    "patches.extension_operator.calls",
)

#: metric name -> span names it sums over
_GROUPS = {
    "bases.gram_matrices": ("bases.gram_matrices",),
    "bases.build_basis_1d": ("bases.build_basis_1d",),
    "assembly.space": ("assembly.tensor_space", "assembly.quotient_space"),
    "assembly.stiffness_matrix": ("assembly.stiffness_matrix",),
    "assembly.load_matrix": ("assembly.load_matrix_volume",
                             "assembly.load_matrix_edge",
                             "assembly.load_matrix_quotient_edge"),
    "coefficients.saturation_coefficient":
        ("coefficients.saturation_coefficient",),
    "coefficients.schur_dual_gram": ("coefficients.schur_dual_gram",),
    "coefficients.max_generalized_eigenvalue":
        ("coefficients.max_generalized_eigenvalue",),
    "patches.patch_catalog": ("patches.patch_catalog",),
    "patches.verify_traversal_lemma": ("patches.verify_traversal_lemma",),
    "patches.measured_extension_ratio": ("patches.measured_extension_ratio",),
    "patches.extension_operator": ("patches.extension_operator",),
    "cli.main": ("cli.main",),
    "cli.load_published_table": ("cli.load_published_table",),
}


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


def cost_model_rows(spans: list[Span], estimate) -> list[dict]:
    """Predicted against measured seconds for every saturation cell."""
    rows = []
    for span in spans:
        if span.name != "coefficients.saturation_coefficient" or span.error:
            continue
        spec = span.info["spec"]
        rows.append({
            "family": spec.family,
            "edges": sorted(spec.edges) if spec.edges else [],
            "p": spec.p, "q": spec.q, "r": spec.r,
            "estimated_s": estimate(spec),
            "measured_s": span.seconds,
        })
    return rows


def layer_metrics(spans: list[Span], estimate) -> dict[str, float]:
    """Per-layer metric values of one traced pass, except trace.overhead_s."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_seconds(spans)
    out: dict[str, float] = {}
    for metric, names in _GROUPS.items():
        group = [s for name in names for s in by_name.get(name, [])]
        out[f"{metric}.calls"] = len(group)
        out[f"{metric}.s"] = sum(s.seconds for s in group)
        out[f"{metric}.self_s"] = sum(own[s.id] for s in group)

    def infos(name, key):
        return [s.info[key] for s in by_name.get(name, []) if key in s.info]

    out["assembly.stiffness_matrix.nnz"] = sum(
        infos("assembly.stiffness_matrix", "nnz"))
    out["assembly.load_matrix.mb"] = sum(
        b for name in _GROUPS["assembly.load_matrix"]
        for b in infos(name, "bytes")) / MIB
    out["coefficients.schur_dual_gram.rhs_mb"] = max(
        infos("coefficients.schur_dual_gram", "rhs_bytes"), default=0) / MIB
    inputs = infos("coefficients.schur_dual_gram", "input")
    out["coefficients.schur_dual_gram.distinct_ratio"] = (
        len(set(inputs)) / len(inputs) if inputs else 0.0)
    out["coefficients.max_generalized_eigenvalue.order_max"] = max(
        infos("coefficients.max_generalized_eigenvalue", "order"), default=0)
    cells = by_name.get("coefficients.saturation_coefficient", [])
    out["coefficients.residual_max"] = max(
        infos("coefficients.saturation_coefficient", "residual"), default=0.0)
    out["coefficients.ties"] = sum(
        infos("coefficients.saturation_coefficient", "tie"))
    out["coefficients.numerical_errors"] = sum(
        1 for s in cells if s.error is not None)
    out["patches.verify_traversal_lemma.steps"] = sum(
        infos("patches.verify_traversal_lemma", "steps"))
    out["patches.measured_extension_ratio.draws"] = sum(
        infos("patches.measured_extension_ratio", "draws"))
    errors = [max(row["estimated_s"] / row["measured_s"],
                  row["measured_s"] / row["estimated_s"])
              for row in cost_model_rows(spans, estimate)]
    out["cli.estimated_seconds.error_max"] = max(errors, default=0.0)
    return {name: value for name, value in out.items() if name in PER_LAYER}


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, times as medians over all passes."""
    out = {}
    for name in passes[0]:
        if name in COMPUTED:
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out


def span_records(spans: list[Span]) -> list[list]:
    """Compact [id, parent, call, name, start, end, probed] trace-file rows."""
    t0 = min((s.start for s in spans), default=0.0)
    return [[s.id, s.parent, s.call, s.name, s.start - t0, s.end - t0,
             s.probed] for s in sorted(spans, key=lambda s: s.id)]
