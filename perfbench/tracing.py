"""Span tracing of chebbvp's layers from outside the package.

``Tracer.install`` replaces a public function with a recording wrapper at
the module attribute its caller looks up (``chebbvp.integration.banded_solve``
is what ``first_order_particular`` calls), and ``uninstall`` puts the
originals back.  Each wrapper wraps the original function, so a call that
passes through two patched attributes still records one span per layer.
Spans are kept in memory as ``[name, start, end, parent, op, raised, size]``
and are recorded only while an op runs (``Tracer.op`` is set), so the
benchmark's own checks leave no spans.  ``size`` is the amount of work the
call was handed (rows, points or matrix order), taken from its arguments.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _system_size(args):
    return args[0].n


def _points(args):
    return args[0].m + 1


def _order_plus_one(args):
    return int(args[0]) + 1


def _dense_rows(args):
    return len(args[1])


def _matrix_order(args):
    return len(args[0])


def _diffmat_order(args):
    return args[1].m + 1


# (module, attribute, span name, size getter).  One span name per layer
# operation; a layer called from two modules is patched in both.
LAYERS = (
    ("chebbvp.integration", "banded_factor", "banded.factor", _system_size),
    ("chebbvp.integration", "banded_solve", "banded.solve", _system_size),
    ("chebbvp.factored", "dense_solve", "banded.dense_solve", _dense_rows),
    ("chebbvp.piecewise", "dense_solve", "piecewise.interface_solve", _dense_rows),
    ("chebbvp.factored", "solve_bvp", "factored.solve_bvp", None),
    ("chebbvp.factored", "solve_chains", "factored.solve_chains", None),
    ("chebbvp.piecewise", "solve_chains", "factored.solve_chains", None),
    ("chebbvp.factored", "fit_boundary", "factored.fit_boundary", None),
    ("chebbvp.factored", "function_to_coeffs", "chebyshev.function_to_coeffs", None),
    ("chebbvp.chebyshev", "to_coeffs", "chebyshev.transform", _points),
    ("chebbvp.chebyshev", "to_values", "chebyshev.transform", _points),
    ("chebbvp.factored", "to_coeffs", "chebyshev.transform", _points),
    ("chebbvp.factored", "to_values", "chebyshev.transform", _points),
    ("chebbvp.piecewise", "to_coeffs", "chebyshev.transform", _points),
    ("chebbvp.factored", "eval_endpoints", "chebyshev.eval", None),
    ("chebbvp.piecewise", "eval_endpoints", "chebyshev.eval", None),
    ("chebbvp.piecewise", "endpoint_derivative", "chebyshev.eval", None),
    ("chebbvp.piecewise", "eval_series", "chebyshev.eval", None),
    ("chebbvp.factored", "diff_endpoint_row", "diffmat.endpoint_row", _order_plus_one),
    ("chebbvp.piecewise", "diff_endpoint_row", "diffmat.endpoint_row", _order_plus_one),
    ("chebbvp.diffmat", "build_diffmat", "diffmat.build", _order_plus_one),
    ("chebbvp.piecewise", "build_diffmat", "diffmat.build", _order_plus_one),
    ("chebbvp.piecewise", "build_operator_matrix", "diffmat.operator_matrix", _diffmat_order),
    ("chebbvp.piecewise", "affine_convection_matrix", "diffmat.operator_matrix", _diffmat_order),
    ("chebbvp.piecewise", "piecewise_solve_spectral", "piecewise.solve_spectral", None),
    ("chebbvp.piecewise", "piecewise_solve_diffmat", "piecewise.solve_diffmat", None),
    ("chebbvp.piecewise", "overshoot", "piecewise.overshoot", None),
    ("chebbvp.piecewise", "sample_piecewise", "piecewise.sample", None),
    ("chebbvp.diagnostics", "dense_export", "diagnostics.export", None),
    ("chebbvp.diagnostics", "singular_spectrum", "diagnostics.spectrum", None),
    ("chebbvp.diagnostics", "jacobi_svd", "diagnostics.svd", _matrix_order),
    ("chebbvp.diagnostics", "condition_vs_parameter", "diagnostics.condition_sweep", None),
)


class _Proxy:
    """Stand-in for a module attribute holding a module (``piecewise.np``):
    named attributes are overridden, everything else reads through."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# lru caches whose hit/miss counts are read around each op: (metric prefix,
# module, attribute).  cache_clear resets a cache's counts, so counts are
# taken as per-op differences.
CACHES = (
    ("integration.factor_cache", "chebbvp.integration", "_first_order_factorization"),
    ("integration.factor_cache", "chebbvp.integration", "_second_order_factorization"),
    ("diffmat.endpoint_row_cache", "chebbvp.diffmat", "diff_endpoint_row"),
)


def _cache_counts() -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for prefix, mod_name, attr in CACHES:
        info = getattr(getattr(importlib.import_module(mod_name), attr, None), "cache_info", None)
        if info is not None:
            hits, misses, *_ = info()
            out[prefix][0] += hits
            out[prefix][1] += misses
    return out


class Tracer:
    """In-memory span and cache-count recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.cache_totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, list[int]] = {}

    def begin_op(self, op_id: int):
        self._cache_before = _cache_counts()
        self.op = op_id

    def end_op(self):
        self.op = None
        for prefix, (hits, misses) in _cache_counts().items():
            before = self._cache_before.get(prefix, (0, 0))
            self.cache_totals[prefix][0] += hits - before[0]
            self.cache_totals[prefix][1] += misses - before[1]

    def wrap(self, name: str, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, False, size(args) if size else 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def _patch(self, module, attr: str, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> list[str]:
        """Patch every layer boundary; returns the ones this version lacks."""
        missing = []
        for mod_name, attr, name, size in LAYERS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, self.wrap(name, fn, size))
        # the collocation solve is np.linalg.solve, looked up through piecewise.np
        piecewise = importlib.import_module("chebbvp.piecewise")
        np_mod = getattr(piecewise, "np", None)
        if np_mod is None:
            missing.append("chebbvp.piecewise.np")
        else:
            solve = self.wrap("piecewise.collocation_solve", np_mod.linalg.solve, _matrix_order)
            self._patch(piecewise, "np", _Proxy(np_mod, linalg=_Proxy(np_mod.linalg, solve=solve)))
        return missing

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, raised, inclusive and self seconds, and the
        sum, sum of squares and maximum of the sizes."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "raised": 0, "s": 0.0, "self_s": 0.0, "size": 0, "size2": 0, "size_max": 0}
        )
        for i, (name, t0, t1, _, _, raised, size) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["raised"] += int(raised)
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child_time[i]
            rec["size"] += size
            rec["size2"] += size * size
            rec["size_max"] = max(rec["size_max"], size)
        return dict(out)
