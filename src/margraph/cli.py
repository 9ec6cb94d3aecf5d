"""Command-line surface.

Commands::

    margraph marginalize-graph MODEL --keep A,B,...
    margraph marginalize-hypergraph MODEL --keep A,B,... [--emit-potential] [--strict]
    margraph marginalize-gaussian MODEL --keep A,B,...
    margraph check-collapsibility MODEL --keep A,B,...
    margraph oracle-verify MODEL --keep A,B,...

All commands read a JSON model file, emit a JSON result document (or DOT
for graph-valued results with ``--format dot``), and exit with 0 on
success, 2 on validation errors, 3 on resource limits.  Output is
byte-identical across repeated runs on identical inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import InvalidInputError, ModelFormatError, ResourceLimitError
from .gaussian import _scaled_tol, gaussian_marginal_graph, innovation_matrix, marginal_precision
from .graph_marginal import marginalize_graph
from .graphs import Graph, Variables, subgraph
from .hypergraph_marginal import MarginalReport, marginalize_hypergraph
from .model_io import FORMAT_VERSION, ModelFile, dump_json, graph_to_dot, load_model
from .oracle import joint_table, marginal_table, normalized_potential_from_table
from .potentials import (
    NULL_TOL,
    PotentialFamily,
    energy_grid,
    hypergraph_of,
    induced_graph,
    is_normalized,
    normalize_potential,
)


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _labels(variables: Variables, ids) -> list[str]:
    return [variables.labels[i] for i in ids]


def _edge_labels(variables: Variables, graph: Graph) -> list[list[str]]:
    return [[variables.labels[a], variables.labels[b]] for a, b in graph.edge_list]


def _hyperedge_labels(variables: Variables, h) -> list[list[str]]:
    return [_labels(variables, e) for e in h]


def _parse_keep(model: ModelFile, raw: str):
    labels = [s.strip() for s in raw.split(",") if s.strip()]
    if not labels:
        raise _CliError("error: subset must be non-empty")
    try:
        return model.variables.subset(labels)
    except InvalidInputError as exc:
        raise _CliError(f"error: {exc}") from None


def _require_kind(model: ModelFile, kinds, command: str) -> None:
    if model.kind not in kinds:
        raise _CliError(
            f"error: {command} needs a {' or '.join(kinds)} model, got '{model.kind}'")


def _base_document(command: str, model: ModelFile, keep) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "model": {
            "path": model.path,
            "kind": model.kind,
            "variables": list(model.variables.labels),
        },
        "keep": _labels(model.variables, keep),
    }


def _graph_payload(variables: Variables, graph: Graph) -> dict:
    return {
        "vertices": _labels(variables, graph.vertices),
        "edges": _edge_labels(variables, graph),
    }


def _emit(args, document: dict | None, dot: str | None) -> None:
    text = dot if dot is not None else dump_json(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _normalized_family(model: ModelFile, strict: bool, null_tol: float) -> tuple[PotentialFamily, bool]:
    family = model.family
    if all(is_normalized(m) for m in family):
        return family, False
    if strict:
        raise _CliError("error: input potential is not normalized (--strict)")
    print("notice: input potential is not normalized; normalizing.", file=sys.stderr)
    return PotentialFamily([normalize_potential(m, null_tol) for m in family]), True


def _report_payload(variables: Variables, report: MarginalReport,
                    emit_potential: bool) -> dict:
    payload = {
        "marginal_hypergraph": _hyperedge_labels(variables, report.marginal_hypergraph),
        "added": _hyperedge_labels(variables, report.added),
        "removed": _hyperedge_labels(variables, report.removed),
        "kept": _hyperedge_labels(variables, report.kept),
        "collapsible": {
            "graphical": report.graphically_collapsible,
            "parametric": report.parametrically_collapsible,
        },
        "marginal_graph": _graph_payload(variables, report.marginal_graph()),
    }
    if emit_potential:
        payload["marginal_potential"] = {"members": [
            {"interactions": [
                {"scope": _labels(variables, t.scope), "table": t.ravel()}
                for t in member.tables]}
            for member in report.marginal_family]}
    return payload


def _cmd_marginalize_graph(args) -> int:
    model = load_model(args.model)
    _require_kind(model, ("graph",), "marginalize-graph")
    keep = _parse_keep(model, args.keep)
    result = marginalize_graph(model.graph, keep)
    if args.format == "dot":
        _emit(args, None, graph_to_dot(result, model.variables))
        return 0
    doc = _base_document("marginalize-graph", model, keep)
    doc["marginal_graph"] = _graph_payload(model.variables, result)
    doc["diagnostics"] = {}
    _emit(args, doc, None)
    return 0


def _cmd_marginalize_hypergraph(args) -> int:
    model = load_model(args.model)
    _require_kind(model, ("potential", "potential_family"), "marginalize-hypergraph")
    keep = _parse_keep(model, args.keep)
    null_tol = args.tolerance if args.tolerance is not None else NULL_TOL
    family, renormalized = _normalized_family(model, args.strict, null_tol)
    report = marginalize_hypergraph(family, keep, null_tol)
    if args.format == "dot":
        _emit(args, None, graph_to_dot(report.marginal_graph(), model.variables))
        return 0
    doc = _base_document("marginalize-hypergraph", model, keep)
    doc.update(_report_payload(model.variables, report, args.emit_potential))
    doc["diagnostics"] = {"null_tolerance": null_tol, "normalized_input": renormalized}
    _emit(args, doc, None)
    return 0


def _cmd_marginalize_gaussian(args) -> int:
    model = load_model(args.model)
    _require_kind(model, ("gaussian",), "marginalize-gaussian")
    keep = _parse_keep(model, args.keep)
    marginal = marginal_precision(model.gaussian, keep)
    gamma = innovation_matrix(model.gaussian, keep)
    graph = gaussian_marginal_graph(model.gaussian, keep, args.tolerance)
    if args.format == "dot":
        _emit(args, None, graph_to_dot(graph, model.variables))
        return 0
    doc = _base_document("marginalize-gaussian", model, keep)
    doc["marginal"] = {
        "mean": [float(x) for x in marginal.mean],
        "precision": [[float(x) for x in row] for row in marginal.precision],
    }
    doc["innovation_matrix"] = [[float(x) for x in row] for row in gamma]
    doc["marginal_graph"] = _graph_payload(model.variables, graph)
    doc["diagnostics"] = {"edge_tolerance": _scaled_tol(marginal.precision, args.tolerance)}
    _emit(args, doc, None)
    return 0


def _cmd_check_collapsibility(args) -> int:
    model = load_model(args.model)
    _require_kind(model, ("potential", "potential_family"), "check-collapsibility")
    keep = _parse_keep(model, args.keep)
    null_tol = args.tolerance if args.tolerance is not None else NULL_TOL
    family, renormalized = _normalized_family(model, args.strict, null_tol)
    report = marginalize_hypergraph(family, keep, null_tol)
    graphical_witness = None
    if not report.graphically_collapsible:
        model_graph = induced_graph(hypergraph_of(family, null_tol),
                                    model.variables.all_ids())
        expected = set(subgraph(model_graph, keep).edges)
        got = set(report.marginal_graph().edges)
        gained = sorted(got - expected)
        lost = sorted(expected - got)
        # name the hyperedge responsible for the first differing edge
        if gained:
            pool, (x, y) = report.added, gained[0]
        else:
            pool, (x, y) = report.removed, lost[0]
        covering = sorted(e for e in pool if {x, y} <= set(e))
        offender = covering[0] if covering else (x, y)
        graphical_witness = _labels(model.variables, offender)
    parametric_witness = None
    if not report.parametrically_collapsible:
        parametric_witness = _labels(model.variables, report.innovation_scopes.edges[0])
    doc = _base_document("check-collapsibility", model, keep)
    doc["collapsible"] = {
        "graphical": report.graphically_collapsible,
        "parametric": report.parametrically_collapsible,
    }
    doc["witnesses"] = {"graphical": graphical_witness, "parametric": parametric_witness}
    doc["added"] = _hyperedge_labels(model.variables, report.added)
    doc["removed"] = _hyperedge_labels(model.variables, report.removed)
    doc["diagnostics"] = {"null_tolerance": null_tol, "normalized_input": renormalized}
    _emit(args, doc, None)
    return 0


def _cmd_oracle_verify(args) -> int:
    model = load_model(args.model)
    _require_kind(model, ("potential", "potential_family"), "oracle-verify")
    keep = _parse_keep(model, args.keep)
    null_tol = args.tolerance if args.tolerance is not None else NULL_TOL
    family, renormalized = _normalized_family(model, args.strict, null_tol)
    report = marginalize_hypergraph(family, keep, null_tol)

    checks = []
    recovered = []
    for k, member in enumerate(family):
        joint = joint_table(member)
        marg = marginal_table(joint, keep)
        grid = energy_grid(report.marginal_family.members[k], keep)
        dens = np.exp(-(grid - grid.min()))
        dens = dens / dens.sum()
        err = float(np.max(np.abs(dens - marg.probs) / marg.probs))
        checks.append({
            "name": f"member[{k}] marginal density matches the oracle",
            "max_relative_error": err,
            "passed": bool(err <= 1e-9),
        })
        rec = normalized_potential_from_table(marg, null_tol)
        recovered.append(rec)
        norm = normalize_potential(member, null_tol)
        worst = 0.0
        for scope in {t.scope for t in norm.tables} | {t.scope for t in member.tables}:
            a = norm.table_for(scope)
            b = member.table_for(scope)
            av = a.values if a is not None else 0.0
            bv = b.values if b is not None else 0.0
            worst = max(worst, float(np.max(np.abs(av - bv))))
        checks.append({
            "name": f"member[{k}] is its own normalized form",
            "max_absolute_error": worst,
            "passed": bool(worst <= 1e-9),
        })
    oracle_h = hypergraph_of(recovered, null_tol)
    checks.append({
        "name": "marginal hypergraph matches the oracle-recovered one",
        "passed": bool(oracle_h == report.marginal_hypergraph),
    })

    doc = _base_document("oracle-verify", model, keep)
    doc["checks"] = checks
    doc["passed"] = all(c["passed"] for c in checks)
    doc["diagnostics"] = {"null_tolerance": null_tol, "normalized_input": renormalized}
    _emit(args, doc, None)
    return 0 if doc["passed"] else 2


def _add_common(p: argparse.ArgumentParser, tolerance_help: str | None = None) -> None:
    p.add_argument("model", help="path to a JSON model file")
    p.add_argument("--keep", required=True, metavar="LABELS",
                   help="comma-separated labels of the retained set A")
    p.add_argument("--output", metavar="PATH", help="write the result here instead of stdout")
    if tolerance_help:
        p.add_argument("--tolerance", type=float, default=None, help=tolerance_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margraph",
        description="Marginalize undirected graph, Gibbs-potential hypergraph, "
                    "and Gaussian precision-matrix models over a retained variable set.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginalize-graph", help="marginal graph of a graph model")
    _add_common(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_marginalize_graph)

    p = sub.add_parser("marginalize-hypergraph",
                       help="marginal potential, hypergraph and graph of a potential model")
    _add_common(p, "null-table tolerance (default 1e-9)")
    p.add_argument("--emit-potential", action="store_true",
                   help="include the marginal interaction tables in the result")
    p.add_argument("--strict", action="store_true",
                   help="reject non-normalized input instead of normalizing it")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_marginalize_hypergraph)

    p = sub.add_parser("marginalize-gaussian",
                       help="Schur-complement marginal of a Gaussian model")
    _add_common(p, "edge-detection tolerance (default 1e-9 x max entry)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_marginalize_gaussian)

    p = sub.add_parser("check-collapsibility",
                       help="graphical and parametric collapsibility verdicts")
    _add_common(p, "null-table tolerance (default 1e-9)")
    p.add_argument("--strict", action="store_true",
                   help="reject non-normalized input instead of normalizing it")
    p.set_defaults(func=_cmd_check_collapsibility)

    p = sub.add_parser("oracle-verify",
                       help="cross-check a potential model against brute-force enumeration")
    _add_common(p, "null-table tolerance (default 1e-9)")
    p.add_argument("--strict", action="store_true",
                   help="reject non-normalized input instead of normalizing it")
    p.set_defaults(func=_cmd_oracle_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
