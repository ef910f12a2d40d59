"""Per-layer tracing of eccbounds from outside the package.

``Tracer`` wraps the public functions named in ``BOUNDARIES`` and rebinds the
wrapper at every import site: each ``eccbounds`` module whose globals hold the
original function (``from .metrics import all_pairs_distances`` copies it into
the importer), and the class dict for methods. Patching only the defining
module would miss most calls. A boundary that no longer exists is skipped and
reports zero calls.

Each call records a span (name, start, end, parent). A span's self time is its
duration minus the durations of its direct children. Spans stay in memory
until ``end_op`` folds them into per-boundary totals, so the bookkeeping done
there (input hashing, residual checks) falls outside every span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "eccbounds"

BOUNDARIES = (
    "graphs.generate",
    "graphs.parse_edge_list",
    "graphs.serialize_edge_list",
    "graphs.Graph.from_adjacency",
    "metrics.all_pairs_distances",
    "metrics.eccentricity_profile",
    "metrics.power_graph",
    "_kernels.bfs_all_pairs",
    "_kernels.jacobi_sweeps",
    "spectral.laplacian",
    "spectral.eigen_decompose",
    "spectral.lambda2",
    "spectral.is_psd",
    "bounds.evaluate_all",
    "certify.certify_g1_matrix",
    "certify.certify_g2_matrix",
    "certify.check_chain",
    "cli.run_campaign",
    "cli.summary_json",
    "cli.report_json",
    "cli.main",
)

#: Boundaries whose distinct inputs are counted, compared byte for byte.
DISTINCT = ("metrics.all_pairs_distances", "spectral.eigen_decompose")
CERTIFICATES = ("certify.certify_g1_matrix", "certify.certify_g2_matrix")

_BOUNDARY_ATTR = "__perfbench_boundary__"


def input_key(obj) -> object:
    """Hashable key equal for byte-identical inputs (arrays, CSR graphs)."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    if hasattr(obj, "indptr") and hasattr(obj, "indices"):
        return (getattr(obj, "n", None), input_key(obj.indptr), input_key(obj.indices))
    return repr(obj)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    args: tuple
    result: object = None


@dataclass
class BoundaryTotals:
    calls: int = 0
    self_s: float = 0.0
    distinct: int = 0


class Tracer:
    """Patches the boundaries on ``install`` and restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.totals = {name: BoundaryTotals() for name in BOUNDARIES}
        self.ops = 0
        self.n3_sum = 0
        self.sweeps_sum = 0
        self.max_rel_residual = 0.0
        self.max_orth_error = 0.0
        self.min_margin = math.inf

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for boundary in BOUNDARIES:
            module_name, *path = boundary.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            attr = path[-1]
            if isinstance(owner, type):
                self._patch_method(owner, attr, boundary)
                continue
            original = getattr(owner, attr, None)
            if not callable(original) or hasattr(original, _BOUNDARY_ATTR):
                continue
            wrapper = self._wrap(boundary, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def _patch_method(self, cls: type, attr: str, boundary: str) -> None:
        raw = cls.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(boundary, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(boundary, raw)
        else:
            return
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, args)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            return span.result

        setattr(traced, _BOUNDARY_ATTR, name)
        return traced

    # -- aggregation --------------------------------------------------------

    def end_op(self) -> None:
        """Fold the spans of one finished operation into the totals."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        distinct: dict[str, set] = {name: set() for name in DISTINCT}
        for span, covered in zip(spans, child_time):
            totals = self.totals[span.name]
            totals.calls += 1
            totals.self_s += span.end - span.start - covered
            if span.name in distinct and span.args:
                distinct[span.name].add(input_key(span.args[0]))
            if span.name == "spectral.eigen_decompose" and span.args:
                self._record_decomposition(span.args[0], span.result)
            elif span.name == "_kernels.jacobi_sweeps" and isinstance(span.result, tuple):
                self.sweeps_sum += int(span.result[0])
            elif span.name in CERTIFICATES:
                margin = getattr(span.result, "min_eigenvalue", math.nan) + getattr(span.result, "tolerance", math.nan)
                if not math.isnan(margin):
                    self.min_margin = min(self.min_margin, margin)
        for name, keys in distinct.items():
            self.totals[name].distinct += len(keys)
        spans.clear()
        self.ops += 1

    def _record_decomposition(self, a, result) -> None:
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        self.n3_sum += n**3
        w = getattr(result, "eigenvalues", None)
        q = getattr(result, "vectors", None)
        if isinstance(result, tuple) and len(result) == 2:
            w, q = result
        if w is None or q is None or n == 0:
            return
        scale = max(1.0, float(np.abs(a).sum(axis=1).max()))
        residual = float(np.abs(a @ q - q * w).max()) / scale
        orth = float(np.abs(q.T @ q - np.eye(n)).max())
        self.max_rel_residual = max(self.max_rel_residual, residual)
        self.max_orth_error = max(self.max_orth_error, orth)

    def metrics(self) -> dict[str, float]:
        """Per-operation counts and self times, plus the numerical-quality extremes."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, totals in self.totals.items():
            key = name.lstrip("_")  # metric names must start with a letter or digit
            out[f"{key}.calls"] = totals.calls / ops
            out[f"{key}.self_s"] = totals.self_s / ops
        for name in DISTINCT:
            totals = self.totals[name]
            out[f"{name}.distinct"] = totals.distinct / ops
            out[f"{name}.useful_ratio"] = totals.distinct / totals.calls if totals.calls else 1.0
        out["spectral.eigen_decompose.n3_sum"] = self.n3_sum / ops
        out["kernels.jacobi_sweeps.sweeps_sum"] = self.sweeps_sum / ops
        out["spectral.max_rel_residual"] = self.max_rel_residual
        out["spectral.max_orth_error"] = self.max_orth_error
        # no certificate checked: report 0, never a margin the run did not see
        out["certify.min_margin"] = 0.0 if math.isinf(self.min_margin) else self.min_margin
        return out

