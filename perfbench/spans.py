"""Span tracing of bhcp's layers from outside the program.

Every traced function is replaced on the module or class where its caller
looks it up (``bhcp.pint.shifted_solve``, ``bhcp.bench.solve_pint``, ...), so
the program runs unmodified and only the benchmark knows about spans. A span
records its name, start, end, parent span and cell id; spans stay in memory
until the benchmark writes them out at the end of a run.

Span names are ``<layer>.<function>`` with the layer being the module of
``src/bhcp/`` that owns the function. The benchmark makes the two calls of
``bhcp run`` itself, so ``cli`` is the one module it never enters.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

LAYERS = ("space", "circulant", "methods", "pint", "baseline", "analysis", "bench")


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple and restore all on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Collects spans for one traced phase; single-threaded by design.

    ``spans`` holds tuples (span_id, name, parent_id, cell_id, start, end);
    parent_id and cell_id are -1 outside any span or cell. ``samples`` holds
    values observed at a boundary, such as the nonzero count of each sparse
    matrix built.
    """

    def __init__(self):
        self.spans = []
        self.samples = defaultdict(list)
        self._stack = []
        self._next_id = 0
        self._cell = -1
        self._cells = 0

    def wrap(self, name, fn, cell=False, sample=None):
        """Return fn wrapped in a span called ``name``.

        ``cell=True`` opens a new cell id for the call's duration;
        ``sample=(key, getter)`` stores ``getter(result)`` under ``key``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            outer_cell = tracer._cell
            if cell:
                tracer._cell = tracer._cells
                tracer._cells += 1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, parent, tracer._cell, start, end))
                tracer._cell = outer_cell
            if sample is not None:
                tracer.samples[sample[0]].append(sample[1](result))
            return result

        return traced

    def replacements(self, bhcp):
        """(owner, attr, traced) triples for every layer boundary the sweep crosses."""
        bench, pint, methods = bhcp.bench, bhcp.pint, bhcp.methods
        analysis, space = bhcp.analysis, bhcp.space
        system_cls, result_cls = methods.AllAtOnceSystem, methods.SolveResult
        table = [
            # bench's own steps, looked up in bench by run_experiment/_run_cell
            (bench, "run_experiment", "bench.run_experiment", {}),
            (bench, "emit_csv", "bench.emit_csv", {}),
            (bench, "_run_cell", "bench.run_cell", {"cell": True}),
            (bench, "_solve", "bench.solve", {}),
            (bench, "resolve_alpha", "bench.resolve_alpha", {}),
            (bench, "l2_error", "bench.l2_error", {}),
            (bench, "cell_seed", "bench.cell_seed", {}),
            # other layers as bench sees them
            (bench, "get_problem", "analysis.get_problem", {}),
            (bench, "add_noise", "analysis.add_noise", {}),
            (bench, "build_grid", "space.build_grid", {}),
            (bench, "alpha_rule", "methods.alpha_rule", {}),
            (bench, "assemble", "methods.assemble", {}),
            (bench, "solve_pint", "pint.solve_pint", {}),
            (bench, "solve_sparse_lu", "baseline.solve_sparse_lu", {}),
            (analysis.ProblemSpec, "_on_grid", "analysis.on_grid", {}),
            (analysis, "grid_norm", "space.grid_norm", {}),
            # the pint solver's steps, looked up in pint
            (pint, "diagonalize", "circulant.diagonalize", {}),
            (pint, "to_eigenspace", "circulant.to_eigenspace", {}),
            (pint, "from_eigenspace", "circulant.from_eigenspace", {}),
            (pint, "step_b_parallel", "pint.step_b_parallel", {}),
            (pint, "shifted_solve", "space.shifted_solve", {}),
            # methods reached through the system and result objects
            (system_cls, "rhs", "methods.rhs", {}),
            (system_cls, "estimated_nnz", "methods.estimated_nnz", {}),
            (system_cls, "sparse", "methods.sparse",
             {"sample": ("methods.sparse_nnz", lambda matrix: matrix.nnz)}),
            (result_cls, "residual_norm", "methods.residual_norm", {}),
        ]
        # A boundary the program no longer has is skipped, and its spans
        # read as zero, so a refactor of the program does not break the run.
        return [
            (owner, attr, self.wrap(name, owner.__dict__[attr], **opts))
            for owner, attr, name, opts in table
            if attr in owner.__dict__
        ]

    def totals(self):
        """Per span name: (calls, total seconds); per layer: self seconds.

        A span's self time is its duration minus the durations of its direct
        children, so summing self times over a layer counts each second of
        the traced interval in exactly one layer.
        """
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        seconds = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span_id, name, _, _, start, end in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            layer_self[name.split(".", 1)[0]] += end - start - child[span_id]
        return calls, seconds, layer_self

    def write(self, path):
        """Write the spans as CSV, times in seconds relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        lines = ["span_id,name,parent_id,cell_id,start_s,end_s"]
        lines.extend(
            f"{sid},{name},{parent},{cell},{start - origin:.9f},{end - origin:.9f}"
            for sid, name, parent, cell, start, end in self.spans
        )
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
