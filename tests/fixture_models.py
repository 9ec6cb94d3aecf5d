"""Built-in example models used by the test suite and shipped as JSON
fixtures: two small six-variable chain models, a 4 x 5 grid potential, a
ten-variable two-component graph, and a 24-variable network for damage
assessment of reinforced concrete beams (after Liu and Li 1994) together
with Gaussian instances on its sparsity pattern.  The writers here turn
models into model-file documents.

Run ``PYTHONPATH=src python tests/fixture_models.py OUTDIR`` from the
root of a checkout to (re)write the fixture files.
"""

from __future__ import annotations

import os

import numpy as np

from margraph.gaussian import GaussianModel, innovation_matrix
from margraph.graphs import Graph, VarSet, Variables, varset
from margraph.model_io import FORMAT_VERSION, dump_json
from margraph.potentials import InteractionTable, Potential, PotentialFamily


def _vars(n: int, prefix: str = "V") -> Variables:
    return Variables([f"{prefix}{k}" for k in range(1, n + 1)])


def monomial_potential(variables: Variables, terms: dict) -> Potential:
    """Potential whose table on each scope is coef times the product of the
    variable values (normalized by construction on domains containing 0)."""
    tables = []
    for scope, coef in terms.items():
        scope = varset(scope)
        grids = np.meshgrid(*(np.asarray(variables.domain(v)) for v in scope),
                            indexing="ij", sparse=True)
        prod = np.ones(variables.sizes(scope))
        for g in grids:
            prod = prod * g
        tables.append(InteractionTable(scope, coef * prod))
    return Potential(variables, tables)


# ---------------------------------------------------------------------------
# Model-file writers: the documents the fixture files and round trips hold.
# ---------------------------------------------------------------------------

def _variables_dict(variables: Variables) -> list[dict]:
    return [{"label": lbl, "domain": list(variables.domains[i])}
            for i, lbl in enumerate(variables.labels)]


def graph_model_dict(variables: Variables, graph: Graph) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "variables": _variables_dict(variables),
        "graph": {"edges": [[variables.labels[a], variables.labels[b]]
                            for a, b in graph.edge_list]},
    }


def _potential_dict(potential: Potential) -> dict:
    return {"interactions": [
        {"scope": [potential.vars.labels[v] for v in t.scope], "table": t.ravel()}
        for t in potential.tables]}


def potential_model_dict(potential: Potential) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "variables": _variables_dict(potential.vars),
        "potential": _potential_dict(potential),
    }


def family_model_dict(family: PotentialFamily) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "variables": _variables_dict(family.vars),
        "potential_family": {"members": [_potential_dict(m) for m in family]},
    }


def gaussian_model_dict(variables: Variables, model: GaussianModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "variables": _variables_dict(variables),
        "gaussian": {
            "mean": [float(x) for x in model.mean],
            "precision": [[float(x) for x in row] for row in model.precision],
        },
    }


# ---------------------------------------------------------------------------
# Ten-variable graph with two connectivity components.
# ---------------------------------------------------------------------------

def ten_vertex_graph() -> tuple[Variables, Graph]:
    variables = _vars(10)
    edges = [(1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5), (5, 4), (6, 4),
             (7, 9), (7, 10), (8, 10)]
    g = Graph.from_edges(variables.all_ids(), [(a - 1, b - 1) for a, b in edges])
    return variables, g


# ---------------------------------------------------------------------------
# Six-variable chain models.
# ---------------------------------------------------------------------------

def two_chain_graph(with_chord: bool = False) -> tuple[Variables, Graph]:
    """Chains V1-V2-V3 and V4-V5-V6, optionally with the extra edge (V1, V3)."""
    variables = _vars(6)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
    if with_chord:
        edges.append((0, 2))
    return variables, Graph.from_edges(variables.all_ids(), edges)


def triangle_chain_raw_potential(t12: float, t13: float, t23: float,
                                 t45: float, t56: float) -> Potential:
    """Un-normalized binary potential on a triangle V1V2V3 plus chain V4-V5-V6.

    The (V1, V2) table is t12*(1+v1)*v2, deliberately not normalized; the
    remaining terms are plain monomials.
    """
    variables = _vars(6)
    u = monomial_potential(variables, {
        (0, 2): t13, (1, 2): t23, (3, 4): t45, (4, 5): t56,
    })
    pair = np.array([[0.0, t12], [0.0, 2.0 * t12]])  # (1+v1)*v2 on {0,1}^2
    tables = list(u.tables) + [InteractionTable((0, 1), pair)]
    return Potential(variables, tables)


def triangle_chain_normalized_terms(t12: float, t13: float, t23: float,
                                    t45: float, t56: float) -> dict:
    """Monomial coefficients of the normalized form of the potential above."""
    return {(1,): t12, (0, 1): t12, (0, 2): t13, (1, 2): t23, (3, 4): t45, (4, 5): t56}


def chain_potential(a12: float, a23: float, a45: float, a56: float,
                    a13: float | None = None) -> Potential:
    """Normalized binary potential whose graph is the two-chain model.

    Terms: a12*v2, a12*v1*v2, a23*v2*v3, a45*v4*v5, a56*v5*v6, and
    optionally a13*v1*v3 (which adds the chord (V1, V3)).
    """
    variables = _vars(6)
    terms = {(1,): a12, (0, 1): a12, (1, 2): a23, (3, 4): a45, (4, 5): a56}
    if a13 is not None:
        terms[(0, 2)] = a13
    return monomial_potential(variables, terms)


def grid_potential(rows: int = 4, cols: int = 5, seed: int = 4520) -> Potential:
    """Normalized binary potential on a rows x cols grid: a seeded random
    single-variable term per vertex and pair term per grid edge, each zero
    wherever a coordinate is 0."""
    variables = _vars(rows * cols)
    rng = np.random.default_rng(seed)
    at = lambda r, c: r * cols + c  # noqa: E731
    scopes = [(k,) for k in range(rows * cols)]
    scopes += [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    scopes += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    tables = []
    for scope in sorted(scopes):
        values = np.zeros((2,) * len(scope))
        values[(1,) * len(scope)] = rng.uniform(0.25, 1.5) * rng.choice([-1.0, 1.0])
        tables.append(InteractionTable(scope, values))
    return Potential(variables, tables)


def grid_retained(rows: int = 4, cols: int = 5) -> VarSet:
    """The outer rows of the grid: the inner rows form one eliminated
    component whose boundary is all 2 * cols retained variables."""
    return tuple(range(cols)) + tuple(range((rows - 1) * cols, rows * cols))


def cancelling_pair_coupling(a12: float, a23: float) -> float:
    """The (V1, V3) coupling that makes the marginal pair interaction on
    {V1, V3} vanish when V2 is eliminated from the chain model."""
    return (np.log1p(np.exp(-2.0 * a12 - a23))
            - np.log1p(np.exp(-2.0 * a12))
            - np.log1p(np.exp(-a23 - a12))
            + np.log1p(np.exp(-a12)))


def chain_retained() -> VarSet:
    """The retained set {V1, V3, V5} used throughout the chain examples."""
    return (0, 2, 4)


# ---------------------------------------------------------------------------
# Damage-assessment network (24 variables).
# ---------------------------------------------------------------------------

DAMAGE_DESCRIPTIONS = {
    "X1": "damage assessment", "X2": "cracking state",
    "X3": "cracking state in shear domain", "X4": "steel corrosion",
    "X5": "cracking state in flexure domain", "X6": "shrinkage cracking",
    "X7": "worst cracking in flexure domain", "X8": "corrosion state",
    "X9": "weakness of the beam", "X10": "deflection of the beam",
    "X11": "position of the worst shear crack",
    "X12": "breadth of the worst shear crack",
    "X13": "position of the worst flexure crack",
    "X14": "breadth of the worst flexure crack",
    "X15": "length of the worst flexure cracks", "X16": "cover",
    "X17": "structure age", "X18": "humidity", "X19": "PH value in the air",
    "X20": "content of chlorine in the air", "X21": "number of shear cracks",
    "X22": "number of flexure cracks", "X23": "shrinkage", "X24": "corrosion",
}

_DAMAGE_EDGES = [
    (1, 2), (1, 9), (1, 10),
    (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 8), (3, 11), (3, 12), (3, 21),
    (4, 5), (4, 8), (4, 13), (4, 24),
    (5, 7), (5, 13), (5, 22),
    (6, 8), (6, 23),
    (7, 8), (7, 14), (7, 15), (7, 16), (7, 17),
    (8, 18), (8, 19), (8, 20),
]

# Variables tied to flexure, dropped in the worked marginalization.
_DAMAGE_DROPPED = (5, 7, 13, 14, 15, 16, 17, 22, 23)


def damage_graph() -> tuple[Variables, Graph]:
    variables = _vars(24, prefix="X")
    g = Graph.from_edges(variables.all_ids(),
                         [(a - 1, b - 1) for a, b in _DAMAGE_EDGES])
    return variables, g


def damage_retained() -> VarSet:
    return varset(set(range(24)) - {k - 1 for k in _DAMAGE_DROPPED})


def random_precision_on(g: Graph, rng: np.random.Generator,
                        low: float = 0.2, high: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with the graph's sparsity pattern, made
    positive definite by strict diagonal dominance."""
    n = len(g.vertices)
    pos = {v: k for k, v in enumerate(g.vertices)}
    m = np.zeros((n, n))
    for a, b in g.edge_list:
        val = rng.uniform(low, high) * rng.choice([-1.0, 1.0])
        m[pos[a], pos[b]] = m[pos[b], pos[a]] = val
    for k in range(n):
        m[k, k] = np.sum(np.abs(m[k])) + rng.uniform(0.5, 1.5)
    return m


def damage_gaussian(seed: int = 20240) -> GaussianModel:
    """Deterministic generic SPD precision on the damage pattern."""
    _, g = damage_graph()
    rng = np.random.default_rng(seed)
    precision = random_precision_on(g, rng)
    mean = rng.uniform(-1.0, 1.0, size=24)
    return GaussianModel(mean, precision)


def damage_gaussian_tuned(seed: int = 20240) -> GaussianModel:
    """Same model with the (X2, X4) entry set to its own innovation, so the
    marginal precision entry cancels and the Gaussian marginal graph drops
    that edge while the graph operator keeps it."""
    base = damage_gaussian(seed)
    kept = damage_retained()
    gamma = innovation_matrix(base, kept)
    pos = {v: k for k, v in enumerate(kept)}
    prec = np.array(base.precision)
    prec[1, 3] = prec[3, 1] = gamma[pos[1], pos[3]]
    return GaussianModel(np.array(base.mean), prec)


# ---------------------------------------------------------------------------
# Fixture files.
# ---------------------------------------------------------------------------

def fixture_documents() -> dict[str, dict]:
    v6 = _vars(6)
    v10, g10 = ten_vertex_graph()
    _, chain = two_chain_graph()
    _, chain_chord = two_chain_graph(with_chord=True)
    dmg_vars, dmg_graph = damage_graph()

    base = chain_potential(1.0, 1.0, 1.0, 1.0)
    generic = chain_potential(1.0, 1.0, 1.0, 1.0, a13=1.0)
    eq_members = []
    for a12, a23, a45, a56 in [(1.0, 1.0, 1.0, 1.0), (0.7, 1.3, -0.4, 0.9)]:
        eq_members.append(chain_potential(
            a12, a23, a45, a56, a13=float(cancelling_pair_coupling(a12, a23))))
    cancelling = PotentialFamily(eq_members)
    # member 2 without its V2-V3 table: the members' scopes differ
    second = eq_members[1]
    partial = PotentialFamily([eq_members[0], Potential(
        second.vars, [t for t in second.tables if t.scope != (1, 2)])])

    return {
        "two_component_graph.json": graph_model_dict(v10, g10),
        "two_chains_graph.json": graph_model_dict(v6, chain),
        "two_chains_chord_graph.json": graph_model_dict(v6, chain_chord),
        "chain_potential.json": potential_model_dict(base),
        "chain_potential_chord.json": potential_model_dict(generic),
        "chain_potential_cancelling.json": family_model_dict(cancelling),
        "chain_potential_partial_family.json": family_model_dict(partial),
        "grid_potential.json": potential_model_dict(grid_potential()),
        "damage_graph.json": graph_model_dict(dmg_vars, dmg_graph),
        "damage_gaussian.json": gaussian_model_dict(dmg_vars, damage_gaussian()),
        "damage_gaussian_tuned.json": gaussian_model_dict(dmg_vars, damage_gaussian_tuned()),
    }


def write_fixture_files(outdir) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, doc in sorted(fixture_documents().items()):
        path = os.path.join(str(outdir), name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
        written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for p in write_fixture_files(target):
        print(p)
