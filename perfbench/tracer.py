"""Outside-in layer tracing for the atomwall benchmark.

Spans are recorded by wrapping the calls into each module where the caller
looks them up (the modules import each other's functions by name), so the
package itself is not modified.  Each thread keeps its own span stack, spans
of one benchmark operation share an operation id, and everything stays in
memory until ``Tracer.spans`` is read at the end of the run.

A hook whose target no longer exists (a later refactor may rename or delete
the private ones) is listed in ``Tracer.absent`` and its layer reads as
zero; installing never fails.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _terms_and_nodes(args, result):
    return (int(result.n_terms_used), int(result.max_quad_nodes))


# (layer, module, attribute path, work count taken from (args, result))
HOOKS = (
    ("cli.main", "atomwall.cli", "main", None),
    ("dataio.parse_run_config", "atomwall.cli", "parse_run_config", None),
    ("lifshitz.free_energy", "atomwall.cli", "free_energy", _terms_and_nodes),
    ("dielectric.eps_iw", "atomwall.lifshitz", "eps_iw", lambda a, r: _size(a[1])),
    ("dielectric.eps_iw", "atomwall.cli", "eps_iw", lambda a, r: _size(a[1])),
    ("polarizability.alpha_iw", "atomwall.lifshitz", "alpha_iw", lambda a, r: _size(a[1])),
    ("polarizability.alpha_iw", "atomwall.cli", "alpha_iw", lambda a, r: _size(a[1])),
    ("lifshitz.quad_block", "atomwall.lifshitz", "_matsubara_integral_block",
     lambda a, r: _size(a[0])),
    ("lifshitz.integrand", "atomwall.lifshitz", "_integrand_rows", lambda a, r: _size(r)),
    ("dielectric.kk_transform", "atomwall.dielectric", "kk_transform", None),
    ("dielectric.grid_build", "atomwall.dielectric", "TabulatedKK._build_grid", None),
    ("quadrature.rule", "atomwall.lifshitz", "gauss_laguerre", None),
    ("quadrature.rule", "atomwall.lifshitz", "gauss_legendre", None),
    ("quadrature.rule", "atomwall.dielectric", "gauss_legendre", None),
)

# lru_cache'd rule builders; their misses are the quadrature layer's work
RULE_BUILDERS = (("atomwall.quadrature", "gauss_laguerre"),
                 ("atomwall.quadrature", "gauss_legendre"))


def _resolve(module_name: str, path: str):
    """(owner, attribute) of a dotted attribute path, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def rule_builds():
    """Total lru_cache misses of the quadrature rule builders, or None if absent."""
    total = 0
    for module_name, attr in RULE_BUILDERS:
        found = _resolve(module_name, attr)
        info = getattr(getattr(*found), "cache_info", None) if found else None
        if info is None:
            return None
        total += info().misses
    return total


def _work(work_of, args, result):
    """The span's work count; None when there is none or its call changed shape."""
    if work_of is None or result is None:
        return None
    try:
        return work_of(args, result)
    except (IndexError, AttributeError, TypeError):
        return None


class Tracer:
    """Span recorder; ``install`` patches the hooks, ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []   # (op, span id, parent id, layer, t0, t1, work)
        self.absent = []  # "module.attribute" of hooks that were not found
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, work_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((self.op, sid, parent, layer, t0, t1,
                                   _work(work_of, args, result)))
        return traced

    def install(self):
        for layer, module_name, path, work_of in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, layer, work_of))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_totals(spans):
    """Per-layer sums over all spans: calls, ms, self_ms and work counts.

    Self time is a span's duration minus the part of it that its child spans
    cover.  A span opened on a worker thread with an empty stack belongs to
    the outermost span of its operation, so the CLI's own time excludes the
    pool work it waits for.  For ``lifshitz.free_energy`` the work is the
    Matsubara terms used; ``quad_terms`` counts those of requests that went
    through the quadrature and ``work_max`` is the largest node count.
    """
    roots = {}
    for op, sid, parent, layer, t0, t1, _ in spans:
        if parent is None and (op not in roots or t1 - t0 > roots[op][1]):
            roots[op] = (sid, t1 - t0)
    children = {}
    for op, sid, parent, layer, t0, t1, _ in spans:
        if parent is None and roots[op][0] != sid:
            parent = roots[op][0]
        if parent is not None:
            children.setdefault((op, parent), []).append((t0, t1))

    totals = {}
    for op, sid, parent, layer, t0, t1, work in spans:
        entry = totals.setdefault(layer, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                          "work": 0, "quad_terms": 0, "work_max": 0})
        duration = t1 - t0
        entry["calls"] += 1
        entry["ms"] += 1e3 * duration
        entry["self_ms"] += 1e3 * (duration - _covered(children.get((op, sid), ()), t0, t1))
        if isinstance(work, (tuple, list)):
            terms, nodes = work
            entry["work"] += terms
            entry["quad_terms"] += terms if nodes else 0
            entry["work_max"] = max(entry["work_max"], nodes)
        elif work is not None:
            entry["work"] += work
    return totals
