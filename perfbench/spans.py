"""Spans around calls into margraph's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function, wherever a margraph module
binds it, by a wrapper that records a span: name, start, end, parent span
and op id.  Nothing inside ``src/`` is instrumented.  Spans stay in memory
until ``write`` dumps them at the end of a run.

Count metrics are computed from the arguments and results of the wrapped
calls (they repeat exactly for a given input) and are taken only on the
first op of each input, so a count describes one pass over the workload's
inputs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time


def _cholesky_flops(n: int) -> int:
    return n ** 3 // 3


def _schur_flops(args) -> int:
    """Factor the eliminated block, solve for the retained columns, multiply."""
    model, keep = args[0], args[1]
    k = len(set(keep))
    z = model.n - k
    return _cholesky_flops(z) + 2 * z * z * k + 2 * k * k * z


def _fill_edges(args, result) -> int:
    graph, keep = args[0], set(args[1])
    inside = sum(1 for a, b in graph.edges if a in keep and b in keep)
    return len(result.edges) - inside


def _grid_cells(args, result) -> int:
    potential, tau = args[0], args[1]
    return math.prod(potential.vars.sizes(sorted(set(tau)))) * int(result.values.size)


# (module, attribute, span name, counts: [(metric, "sum"|"max", f(args, result))])
TARGETS = [
    ("margraph.model_io", "load_model", "model_io.load",
     [("model_io.load_bytes", "sum", lambda a, r: os.path.getsize(a[0]))]),
    ("margraph.model_io", "dump_json", "model_io.dump_json",
     [("model_io.out_bytes", "sum", lambda a, r: len(r.encode()))]),
    ("margraph.model_io", "graph_to_dot", "model_io.dot",
     [("model_io.out_bytes", "sum", lambda a, r: len(r.encode()))]),
    ("margraph.oracle", "joint_table", "oracle.joint_table",
     [("oracle.states", "sum", lambda a, r: int(r.probs.size))]),
    ("margraph.oracle", "marginal_table", "oracle.marginal_table", []),
    ("margraph.oracle", "normalized_potential_from_table", "oracle.recover", []),
    ("margraph.hypergraph_marginal", "marginalize_hypergraph",
     "hypergraph_marginal.marginalize_hypergraph", []),
    ("margraph.hypergraph_marginal", "component_potential",
     "hypergraph_marginal.component_potential",
     [("hypergraph_marginal.component_potential.calls", "sum", lambda a, r: 1),
      ("hypergraph_marginal.grid_cells_max", "max", _grid_cells),
      ("hypergraph_marginal.grid_cells_sum", "sum", _grid_cells)]),
    # The innovation stage of marginalize_hypergraph has no public entry point.
    ("margraph.hypergraph_marginal", "_innovation_tables", "hypergraph_marginal.innovations",
     [("hypergraph_marginal.innovations", "sum", lambda a, r: len(r))]),
    ("margraph.potentials", "is_normalized", "potentials.is_normalized", []),
    ("margraph.potentials", "normalize_potential", "potentials.normalize", []),
    ("margraph.potentials", "hypergraph_of", "potentials.hypergraph_of", []),
    ("margraph.potentials", "induced_graph", "potentials.induced_graph", []),
    ("margraph.graphs", "connectivity_components", "graphs.components",
     [("graphs.components", "sum", lambda a, r: len(r))]),
    ("margraph.graphs", "boundary", "graphs.boundary",
     [("graphs.max_boundary", "max", lambda a, r: len(r))]),
    ("margraph.graphs", "subgraph", "graphs.subgraph", []),
    ("margraph.graphs", "cliques", "graphs.cliques", []),
    ("margraph.graph_marginal", "marginalize_graph", "graph_marginal.marginalize_graph",
     [("graph_marginal.fill_edges", "sum", _fill_edges)]),
    # __init__(self, mean, precision): the mean's length is the dimension
    ("margraph.gaussian", "GaussianModel.__init__", "gaussian.model_init",
     [("gaussian.flops_computed", "sum", lambda a, r: _cholesky_flops(len(a[1])))]),
    ("margraph.gaussian", "marginal_precision", "gaussian.marginal_precision",
     [("gaussian.flops_computed", "sum", lambda a, r: _schur_flops(a))]),
    ("margraph.gaussian", "innovation_matrix", "gaussian.innovation_matrix",
     [("gaussian.flops_computed", "sum", lambda a, r: _schur_flops(a))]),
    ("margraph.gaussian", "gaussian_marginal_graph", "gaussian.marginal_graph", []),
    ("margraph.gaussian", "pattern_graph", "gaussian.pattern_graph", []),
]

COUNT_KINDS = {metric: kind for *_, counts in TARGETS for metric, kind, _ in counts}
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Records spans of wrapped calls made while an op is open."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op]
        self.counts: dict[str, dict[str, int]] = {}  # input -> metric -> value
        self._stack: list[int] = []
        self._op = None
        self._counting: dict[str, int] | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int, name: str, input_name: str) -> None:
        self._op = op_id
        first = input_name not in self.counts
        self._counting = self.counts.setdefault(input_name, {}) if first else None
        self._open(name)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None
        self._counting = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, counts, args, result) -> None:
        for metric, kind, fn in counts:
            value = fn(args, result)
            old = self._counting.get(metric, 0)
            self._counting[metric] = max(old, value) if kind == "max" else old + value

    def _wrap(self, name: str, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts and tracer._counting is not None:
                tracer._count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in each loaded margraph module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "margraph" or k.startswith("margraph."))]
        for module_name, attr, name, counts in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counts))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans: list, ops: int) -> dict[str, float]:
    """Per-op mean time of each span name, in ms, plus the self time of
    marginalize_hypergraph (its duration minus the part its child spans
    cover).  Spans of one thread nest, so children never overlap."""
    total: dict[str, int] = {}
    child: dict[int, int] = {}
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0) + (end - start)
        if parent is not None:
            child[parent] = child.get(parent, 0) + (end - start)
    self_ns = sum(end - start - child.get(idx, 0)
                  for idx, (name, start, end, _, _) in enumerate(spans)
                  if name == "hypergraph_marginal.marginalize_hypergraph")
    out = {f"{name}_ms": total.get(name, 0) / 1e6 / max(ops, 1) for name in SPAN_NAMES}
    out["hypergraph_marginal.self_ms"] = self_ns / 1e6 / max(ops, 1)
    return out


def merge_counts(per_input: dict[str, dict[str, int]]) -> dict[str, int]:
    """Counts over one pass of the inputs: summed, or maxed for *_max."""
    out = {metric: 0 for metric in COUNT_KINDS}
    for counts in per_input.values():
        for metric, value in counts.items():
            out[metric] = max(out[metric], value) if COUNT_KINDS[metric] == "max" \
                else out[metric] + value
    return out
