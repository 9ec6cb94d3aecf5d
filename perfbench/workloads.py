"""Seeded inputs and operations of the benchmark's four workloads.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come only from the workload seed; the
program under test receives the generated models and nothing else.  Only
coefficients, random graph shapes and random retained halves depend on the
seed; sizes are fixed, so runs with different seeds do about the same work.
The ``why`` of each workload in BENCHMARK.json states its sizes and op mix.
"""

from __future__ import annotations

import json
import os

import numpy as np

BINARY = (0.0, 1.0)
TERNARY = (0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Finite-domain potentials.  A potential spec is
#   {"labels": [...], "domains": [...], "members": [[(scope, array), ...], ...],
#    "keep": (ids...), "name": str}
# with scopes as sorted id tuples and arrays shaped by the scope's domains.
# ---------------------------------------------------------------------------

def _anchored_table(rng, shape, shift: float) -> np.ndarray:
    """Random table, zero wherever a coordinate sits at the anchor (index 0),
    plus a constant ``shift`` that makes it non-normalized when non-zero."""
    vals = rng.uniform(0.25, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    for ax in range(len(shape)):
        idx = [slice(None)] * len(shape)
        idx[ax] = 0
        vals[tuple(idx)] = 0.0
    return vals + shift


def _member(rng, domains, scopes, shift: float):
    return [(s, _anchored_table(rng, tuple(len(domains[v]) for v in s), shift))
            for s in scopes]


def _spec(name, domains, scopes, keep, rng, members=1, shift=0.0) -> dict:
    n = len(domains)
    return {
        "name": name,
        "labels": [f"V{k}" for k in range(1, n + 1)],
        "domains": list(domains),
        "members": [_member(rng, domains, scopes, shift) for _ in range(members)],
        "keep": tuple(sorted(keep)),
    }


def _chain_scopes(n: int):
    return [(k,) for k in range(n)] + [(k, k + 1) for k in range(n - 1)]


def chain_spec(rng, n, domain=BINARY, keep="ends", members=1, shift=0.0) -> dict:
    keep_ids = (0, n - 1) if keep == "ends" else tuple(range(0, n, 3))
    name = f"chain{'3' if len(domain) == 3 else ''}-{n}-{keep}" + (
        f"-x{members}" if members > 1 else "")
    return _spec(name, [domain] * n, _chain_scopes(n), keep_ids, rng, members, shift)


def grid_spec(rng, rows: int, cols: int) -> dict:
    at = lambda r, c: r * cols + c  # noqa: E731
    scopes = [(k,) for k in range(rows * cols)]
    scopes += [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    scopes += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    keep = [at(0, c) for c in range(cols)] + [at(rows - 1, c) for c in range(cols)]
    return _spec(f"grid-{rows}x{cols}", [BINARY] * (rows * cols), sorted(scopes), keep, rng)


def tree_spec(rng, n: int, shift=0.0) -> dict:
    """Random tree in which every vertex has at most two children; keeps the
    vertices at even depth, so every eliminated component is one vertex
    bounded by at most three tree neighbours, whatever the seed."""
    parent = [-1]
    open_slots = [0, 0]  # one entry per free child slot
    for k in range(1, n):
        at = int(rng.integers(0, len(open_slots)))
        parent.append(open_slots[at])
        open_slots[at] = open_slots[-1]
        open_slots.pop()
        open_slots += [k, k]
    depth = [0] * n
    for k in range(1, n):
        depth[k] = depth[parent[k]] + 1
    scopes = [(k,) for k in range(n)] + sorted((parent[k], k) for k in range(1, n))
    keep = [k for k in range(n) if depth[k] % 2 == 0]
    return _spec(f"tree-{n}", [BINARY] * n, scopes, keep, rng, shift=shift)


def build_family(spec: dict):
    """margraph objects for a potential spec: (PotentialFamily, keep)."""
    from margraph import InteractionTable, Potential, PotentialFamily, Variables

    variables = Variables(spec["labels"], spec["domains"])
    family = PotentialFamily(
        Potential(variables, [InteractionTable(s, v) for s, v in member])
        for member in spec["members"])
    return family, spec["keep"]


def potential_document(spec: dict) -> dict:
    def interactions(member):
        return {"interactions": [
            {"scope": [spec["labels"][v] for v in s], "table": [float(x) for x in v.ravel()]}
            for s, v in member]}
    doc = {"format_version": 1,
           "variables": [{"label": l, "domain": list(d)}
                         for l, d in zip(spec["labels"], spec["domains"])]}
    if len(spec["members"]) == 1:
        doc["potential"] = interactions(spec["members"][0])
    else:
        doc["potential_family"] = {"members": [interactions(m) for m in spec["members"]]}
    return doc


# ---------------------------------------------------------------------------
# Graphs and Gaussians.
# ---------------------------------------------------------------------------

def random_sparse_edges(rng, n: int, per_vertex: float) -> list[tuple[int, int]]:
    """About ``per_vertex * n`` distinct random edges."""
    edges = set()
    target = int(per_vertex * n)
    while len(edges) < target:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def half(rng, n: int) -> tuple[int, ...]:
    return tuple(sorted(int(x) for x in rng.choice(n, size=n // 2, replace=False)))


def graph_spec(rng, n: int) -> dict:
    return {"name": f"graph-{n}", "n": n, "edges": random_sparse_edges(rng, n, 0.8),
            "keep": half(rng, n)}


def _dominant_precision(rng, n: int, edges) -> np.ndarray:
    prec = np.zeros((n, n))
    for a, b in edges:
        w = rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
        prec[a, b] = prec[b, a] = w
    prec[np.diag_indices(n)] = np.abs(prec).sum(axis=1) + rng.uniform(0.5, 1.5, size=n)
    return prec


def gaussian_spec(rng, n: int, pattern: str) -> dict:
    if pattern == "banded":
        edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 3))]
        keep = tuple(range(0, n, 2))
    else:
        edges = random_sparse_edges(rng, n, 0.8)
        keep = half(rng, n)
    return {"name": f"gaussian-{pattern}-{n}", "n": n, "mean": rng.normal(size=n),
            "precision": _dominant_precision(rng, n, edges), "keep": keep}


def gaussian_document(spec: dict) -> dict:
    n = spec["n"]
    return {"format_version": 1,
            "variables": [{"label": f"X{k}"} for k in range(1, n + 1)],
            "gaussian": {"mean": [float(x) for x in spec["mean"]],
                         "precision": [[float(x) for x in row] for row in spec["precision"]]}}


def graph_document(spec: dict) -> dict:
    return {"format_version": 1,
            "variables": [{"label": f"G{k}"} for k in range(1, spec["n"] + 1)],
            "graph": {"edges": [[f"G{a + 1}", f"G{b + 1}"] for a, b in spec["edges"]]}}


# ---------------------------------------------------------------------------
# Library workloads: inputs and the op each input runs.
# ---------------------------------------------------------------------------

def rng_for(workload: str, seed: int) -> np.random.Generator:
    salt = sum(ord(c) * 31 ** k for k, c in enumerate(workload)) % (1 << 32)
    return np.random.default_rng([seed, salt])


def library_inputs(workload: str, seed: int) -> list[dict]:
    """Input specs of a library workload, in the order the loop cycles them."""
    rng = rng_for(workload, seed)
    if workload == "elim-wide":
        specs = [chain_spec(rng, n) for n in (16, 18, 20)]
        specs += [chain_spec(rng, n, TERNARY) for n in (10, 11, 12)]
        specs.append(grid_spec(rng, 4, 5))
        return [dict(s, op="marginalize") for s in specs]
    if workload == "elim-many":
        specs = [chain_spec(rng, n, keep="thirds", shift=0.3) for n in (96, 192, 384)]
        specs.append(tree_spec(rng, 200, shift=0.3))
        specs.append(chain_spec(rng, 120, keep="thirds", members=2, shift=0.3))
        specs.append(chain_spec(rng, 96, keep="thirds", members=3, shift=0.3))
        return [dict(s, op="normalize-marginalize") for s in specs]
    if workload == "sparse-large":
        specs = []
        for n in (400, 800, 1600):
            specs.append(dict(gaussian_spec(rng, n, "banded"), op="gaussian"))
            sparse = gaussian_spec(rng, n, "sparse")
            specs.append(dict(sparse, op="gaussian"))
            specs.append(dict(sparse, op="pattern-graph", name=sparse["name"] + "-pattern"))
            specs.append(dict(graph_spec(rng, n), op="graph"))
        return specs
    raise ValueError(f"unknown library workload {workload!r}")


def prepare(spec: dict):
    """Turn a spec into the arguments its op takes (set-up, not timed)."""
    import margraph as mg

    op = spec["op"]
    if op in ("marginalize", "normalize-marginalize"):
        return build_family(spec)
    if op == "gaussian":
        return spec["mean"], spec["precision"], spec["keep"]
    if op == "pattern-graph":
        return mg.GaussianModel(spec["mean"], spec["precision"]), spec["keep"]
    if op == "graph":
        return mg.Graph.from_edges(range(spec["n"]), spec["edges"]), spec["keep"]
    raise ValueError(op)


def run_op(op: str, args):
    """One op: the call sequence a user of the library makes for this input."""
    import margraph as mg

    if op == "marginalize":
        family, keep = args
        return mg.marginalize_hypergraph(family, keep)
    if op == "normalize-marginalize":
        family, keep = args
        if not all(mg.is_normalized(m) for m in family):
            family = mg.PotentialFamily(mg.normalize_potential(m) for m in family)
        return family, mg.marginalize_hypergraph(family, keep)
    if op == "gaussian":
        mean, precision, keep = args
        model = mg.GaussianModel(mean, precision)
        marginal = mg.marginal_precision(model, keep)
        gamma = mg.innovation_matrix(model, keep)
        return model, marginal, gamma, mg.gaussian_marginal_graph(model, keep)
    if op == "pattern-graph":
        model, keep = args
        return mg.marginalize_graph(mg.pattern_graph(model), keep)
    if op == "graph":
        graph, keep = args
        marginal = mg.marginalize_graph(graph, keep)
        return marginal, mg.cliques(marginal)
    raise ValueError(op)


# ---------------------------------------------------------------------------
# cli-mix: model files and the command cycle.
# ---------------------------------------------------------------------------

def _labels(ids, prefix: str) -> str:
    return ",".join(f"{prefix}{k + 1}" for k in ids)


def write_cli_models(seed: int, directory: str) -> list[dict]:
    """Write the seeded model files and return the op cycle.

    Each op is ``{"name", "argv", "exit"}``: the margraph arguments and the
    exit code a correct run gives.  Heavy and light ops alternate so a run
    cut short mid-cycle keeps about the cycle's mix.
    """
    rng = rng_for("cli-mix", seed)
    graph = graph_spec(rng, 200)
    family = chain_spec(rng, 60, keep="thirds", members=3, shift=0.3)
    gauss = gaussian_spec(rng, 400, "banded")
    small = chain_spec(rng, 12, keep="thirds")
    files = {
        "graph.json": graph_document(graph),
        "family.json": potential_document(family),
        "gaussian.json": gaussian_document(gauss),
        "small.json": potential_document(small),
    }
    for name, doc in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    fx = lambda name: os.path.join("fixtures", name)  # noqa: E731
    chain_keep = "V1,V3,V5"
    damage_keep = "X1,X2,X3,X4,X6,X8,X9,X10,X11,X12,X18,X19,X20,X21,X24"
    gaussian_400 = ("gaussian-400", ["marginalize-gaussian", path("gaussian.json"),
                                     "--keep", _labels(gauss["keep"], "X")], 0)
    # The 400-dimensional Gaussian (a 2 MB file in, 1 MB out) is the slowest
    # op; three of sixteen put the 90th percentile inside its cluster.
    ops = [
        gaussian_400,
        ("graph-fixture", ["marginalize-graph", fx("two_chains_graph.json"),
                           "--keep", chain_keep], 0),
        ("family-60-potential", ["marginalize-hypergraph", path("family.json"),
                                 "--keep", _labels(family["keep"], "V"),
                                 "--emit-potential"], 0),
        ("damage-gaussian-dot", ["marginalize-gaussian", fx("damage_gaussian_tuned.json"),
                                 "--keep", damage_keep, "--format", "dot"], 0),
        ("oracle-small", ["oracle-verify", path("small.json"),
                          "--keep", _labels(small["keep"], "V")], 0),
        ("graph-200-dot", ["marginalize-graph", path("graph.json"),
                           "--keep", _labels(graph["keep"], "G"), "--format", "dot"], 0),
        gaussian_400,
        ("oracle-refused", ["oracle-verify", path("family.json"),
                            "--keep", _labels(family["keep"], "V")], 3),
        ("collapsibility-fixture", ["check-collapsibility",
                                    fx("chain_potential_cancelling.json"),
                                    "--keep", chain_keep], 0),
        ("gaussian-400-dot", ["marginalize-gaussian", path("gaussian.json"),
                              "--keep", _labels(gauss["keep"], "X"),
                              "--format", "dot"], 0),
        ("hypergraph-fixture-dot", ["marginalize-hypergraph", fx("chain_potential.json"),
                                    "--keep", chain_keep, "--format", "dot"], 0),
        gaussian_400,
        ("family-60-collapsibility", ["check-collapsibility", path("family.json"),
                                      "--keep", _labels(family["keep"], "V")], 0),
        ("oracle-fixture", ["oracle-verify", fx("chain_potential_cancelling.json"),
                            "--keep", chain_keep], 0),
        ("graph-200", ["marginalize-graph", path("graph.json"),
                       "--keep", _labels(graph["keep"], "G")], 0),
        ("damage-gaussian", ["marginalize-gaussian", fx("damage_gaussian.json"),
                             "--keep", damage_keep], 0),
    ]
    return [{"name": n, "argv": a, "exit": e} for n, a, e in ops]
