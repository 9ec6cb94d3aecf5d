"""Marginal undirected graphs, marginal Gibbs-potential hypergraph models,
and Gaussian precision-matrix marginalization, verified against brute-force
enumeration.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a caller pays only
for the routes it uses."""

from importlib import import_module

__version__ = "0.1.0"

# module: the public names it defines
_EXPORTS = {
    "errors": ("STATE_LIMIT", "InvalidInputError", "MargraphError", "ModelFormatError",
               "NotNormalizedError", "ResourceLimitError"),
    "gaussian": ("GaussianModel", "gaussian_marginal_graph", "innovation_matrix",
                 "marginal_precision", "pattern_graph"),
    "graph_marginal": ("eliminate_vertex", "marginalize_graph"),
    "graphs": ("Graph", "Variables", "VarSet", "boundary", "cliques", "completed_edge_set",
               "component_boundaries", "connectivity_components", "is_complete", "subgraph",
               "varset"),
    "hypergraph_marginal": ("Innovation", "MarginalReport", "boundary_hypergraph", "innovations",
                            "marginalize_hypergraph"),
    "oracle": ("DensityTable", "joint_table", "marginal_table",
               "normalized_potential_from_table"),
    "potentials": ("NULL_TOL", "Hypergraph", "InteractionTable", "Potential",
                   "PotentialFamily", "energy", "energy_grid", "hypergraph_of",
                   "induced_graph", "is_normalized", "normalize_potential", "precedes",
                   "restrict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
