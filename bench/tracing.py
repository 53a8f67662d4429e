"""In-memory span tracing for the benchmark's traced run.

A span is (id, parent id, name, start, end).  The benchmark opens spans
around its own calls into the library (setup, each solve, problem
generation); ``Tracer.install`` adds spans around calls *inside* the library
by replacing the functions listed in ``WRAPPED`` with timing wrappers.  A
function is replaced on every ``tlschwarz`` module that holds it, because
``setup()`` looks most stages up on its own module (``from .partition import
...``) and ``HarmonicFactor`` looks ``factor_dense`` up on ``subdomain``.
Methods are replaced on their class.  Entries whose module, class or
function no longer exists are skipped, so the benchmark keeps running
unchanged after the library drops a function; that span name then simply
records zero calls.

Wrappers live only in the process that installs them and are removed by
``uninstall``; the untraced runs never see them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _coarse_counts(args, result):
    return {"coarse.columns_offered": args[0].n_coarse,
            "coarse.columns_kept": result.n_coarse}


def _spectral_counts(args, result):
    return {"spectral.modes_selected": result.n_selected,
            "spectral.values_computed": len(result.all_values)}


# (defining module, function or "Class.method", span name, counter or None).
# A counter maps (positional args, result) to counts added at that boundary.
WRAPPED = (
    ("tlschwarz.sparsemat", "symmetrized_graph", "sparsemat.graph", None),
    ("tlschwarz.sparsemat", "SparseMat.matvec", "sparsemat.matvec", None),
    ("tlschwarz.partition", "partition_graph", "partition.partition", None),
    ("tlschwarz.partition", "extend_overlap", "partition.overlap", None),
    ("tlschwarz.partition", "color_subdomains", "partition.coloring", None),
    ("tlschwarz.subdomain", "extract_local_blocks", "subdomain.extract", None),
    ("tlschwarz.subdomain", "factor_dense", "subdomain.factor", None),
    ("tlschwarz.subdomain", "build_harmonic", "subdomain.harmonic", None),
    ("tlschwarz.spectral", "select_harmonic_modes", "spectral.gevp", _spectral_counts),
    ("tlschwarz.spectral", "select_pou_modes", "spectral.gevp", _spectral_counts),
    ("tlschwarz.spectral", "svd_harmonic_modes", "spectral.svd", _spectral_counts),
    ("tlschwarz.coarse", "subdomain_coarse_columns", "coarse.columns", None),
    ("tlschwarz.coarse", "assemble_coarse_basis", "coarse.assemble", None),
    ("tlschwarz.coarse", "rank_filter", "coarse.rank_filter", _coarse_counts),
    ("tlschwarz.coarse", "galerkin_coarse", "coarse.galerkin", None),
    ("tlschwarz.precond", "Preconditioner.apply", "precond.apply", None),
    ("tlschwarz.precond", "Preconditioner.apply_one_level", "precond.one_level", None),
    ("tlschwarz.precond", "Preconditioner.coarse_apply", "precond.coarse_apply", None),
)


class Tracer:
    """Collects spans and boundary counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original) to restore

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result
        return wrapper

    def install(self):
        """Wrap every function in ``WRAPPED`` that exists; returns how many."""
        for module_name, attr, name, counter in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(fn_name) if owner is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrapper(fn, name, counter)
            owners = [owner]
            if not owner_name:
                owners += [m for key, m in list(sys.modules.items())
                           if key.startswith("tlschwarz") and m is not module
                           and vars(m).get(fn_name) is fn]
            for target in owners:
                self._patched.append((target, fn_name, fn))
                setattr(target, fn_name, wrapper)
        return len(self._patched)

    def uninstall(self):
        while self._patched:
            target, fn_name, fn = self._patched.pop()
            setattr(target, fn_name, fn)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def self_times(self):
        """Per span name: (self seconds summed over calls, number of calls).

        Self time is a span's duration minus the durations of its direct
        children; the benchmark is single-threaded, so children never
        overlap one another.
        """
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for sid, _, name, start, end in self.spans:
            out[name][0] += (end - start) - child[sid]
            out[name][1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def durations(self, name):
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def records(self):
        return [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in sorted(self.spans)]


class NullTracer:
    """Stand-in used by the untraced runs: spans cost one no-op context."""

    @contextmanager
    def span(self, name):
        yield
