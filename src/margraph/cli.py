"""Command-line surface.

Commands::

    margraph marginalize-graph MODEL --keep A,B,...
    margraph marginalize-hypergraph MODEL --keep A,B,... [--emit-potential] [--strict]
    margraph marginalize-gaussian MODEL --keep A,B,...
    margraph check-collapsibility MODEL --keep A,B,...
    margraph oracle-verify MODEL --keep A,B,...

``--keep-label LABEL`` (repeatable) names one retained label verbatim, for
labels that contain a comma or start or end with a space; it may stand in
for ``--keep`` or add to it.  A label that starts with ``-`` needs the
``--keep-label=LABEL`` form, or argparse reads it as an option.

All commands read a JSON model file, emit a JSON result document (or DOT
for graph-valued results with ``--format dot``), and exit with 0 on
success, 2 on validation errors, 3 on resource limits.  Output is
byte-identical across repeated runs on identical inputs.

One runner, :func:`_run`, does every step the commands share, in order:
load the model, check its kind and resolve ``--keep``; for potential
models, resolve the null tolerance, normalize (with a notice, or a refusal
under ``--strict``) and marginalize; then write DOT of the graph the
command's body returns, or the base document plus the body's own fields as
JSON, to stdout or ``--output``.  :data:`_COMMANDS` names each command's
body, the model kinds it takes and its options.  The engine modules are
imported where a command needs them, so a process loads only its route.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, ModelFormatError, ResourceLimitError
from .graphs import Graph, VarSet, Variables
from .model_io import FORMAT_VERSION, ModelFile, dump_json, graph_to_dot, load_model

if TYPE_CHECKING:
    from .hypergraph_marginal import MarginalReport
    from .potentials import PotentialFamily


def _labels(variables: Variables, ids) -> list[str]:
    return [variables.labels[i] for i in ids]


def _hyperedge_labels(variables: Variables, h) -> list[list[str]]:
    return [_labels(variables, e) for e in h]


def _graph_payload(variables: Variables, graph: Graph) -> dict:
    return {
        "vertices": _labels(variables, graph.vertices),
        "edges": [[variables.labels[a], variables.labels[b]] for a, b in graph.edge_list],
    }


class _Run(NamedTuple):
    """What the runner hands a command body."""
    args: argparse.Namespace
    model: ModelFile
    keep: VarSet
    null_tol: float | None  # this and the next two are for potential models only
    family: PotentialFamily | None  # normalized
    report: MarginalReport | None


def _marginalize_graph(run: _Run) -> Graph | dict:
    from .graph_marginal import marginalize_graph

    graph = marginalize_graph(run.model.graph, run.keep)
    if run.args.format == "dot":
        return graph
    return {"marginal_graph": _graph_payload(run.model.variables, graph), "diagnostics": {}}


def _marginalize_hypergraph(run: _Run) -> Graph | dict:
    report, variables = run.report, run.model.variables
    if run.args.format == "dot":
        return report.marginal_graph()
    fields = {
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
    if run.args.emit_potential:
        fields["marginal_potential"] = {"members": [
            {"interactions": [
                {"scope": _labels(variables, t.scope), "table": t.ravel()}
                for t in member.tables]}
            for member in report.marginal_family]}
    return fields


def _marginalize_gaussian(run: _Run) -> Graph | dict:
    from .gaussian import (_scaled_tol, gaussian_marginal_graph, innovation_matrix,
                           marginal_precision)

    gaussian, keep, tol = run.model.gaussian, run.keep, run.args.tolerance
    marginal = marginal_precision(gaussian, keep)
    gamma = innovation_matrix(gaussian, keep)
    graph = gaussian_marginal_graph(gaussian, keep, tol)
    if run.args.format == "dot":
        return graph
    return {
        "marginal": {"mean": marginal.mean.tolist(), "precision": marginal.precision.tolist()},
        "innovation_matrix": gamma.tolist(),
        "marginal_graph": _graph_payload(run.model.variables, graph),
        "diagnostics": {"edge_tolerance": _scaled_tol(marginal.precision, tol)},
    }


def _check_collapsibility(run: _Run) -> dict:
    report, variables = run.report, run.model.variables
    graphical_witness = None
    if not report.graphically_collapsible:
        expected, got = report.model_subgraph.edges, report.marginal_graph().edges
        # name the hyperedge responsible for the first differing edge
        pool, (x, y) = ((report.added, min(got - expected)) if got - expected
                        else (report.removed, min(expected - got)))
        covering = sorted(e for e in pool if {x, y} <= set(e))
        offender = covering[0] if covering else (x, y)
        graphical_witness = _labels(variables, offender)
    parametric_witness = None
    if not report.parametrically_collapsible:
        parametric_witness = _labels(variables, report.innovation_scopes.edges[0])
    return {
        "collapsible": {
            "graphical": report.graphically_collapsible,
            "parametric": report.parametrically_collapsible,
        },
        "witnesses": {"graphical": graphical_witness, "parametric": parametric_witness},
        "added": _hyperedge_labels(variables, report.added),
        "removed": _hyperedge_labels(variables, report.removed),
    }


def _oracle_verify(run: _Run) -> dict:
    import numpy as np

    from .oracle import joint_table, marginal_table, normalized_potential_from_table
    from .potentials import energy_grid, hypergraph_of, normalize_potential

    keep, null_tol = run.keep, run.null_tol
    checks, recovered = [], []
    for k, member in enumerate(run.family):
        marg = marginal_table(joint_table(member), keep)
        grid = energy_grid(run.report.marginal_family.members[k], keep)
        dens = np.exp(-(grid - grid.min()))
        dens = dens / dens.sum()
        err = float(np.max(np.abs(dens - marg.probs) / marg.probs))
        checks.append({
            "name": f"member[{k}] marginal density matches the oracle",
            "max_relative_error": err,
            "passed": bool(err <= 1e-9),
        })
        recovered.append(normalized_potential_from_table(marg, null_tol))
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
        "passed": bool(oracle_h == run.report.marginal_hypergraph),
    })
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


_POTENTIAL = ("potential", "potential_family")
_NULL_TOL_HELP = "null-table tolerance (default 1e-9)"

# name: (help, model kinds, body, help of --tolerance if the command takes it,
#        the keys of _OPTIONS it takes, in the order they are declared)
_COMMANDS = {
    "marginalize-graph": (
        "marginal graph of a graph model",
        ("graph",), _marginalize_graph, None, ("--format",)),
    "marginalize-hypergraph": (
        "marginal potential, hypergraph and graph of a potential model",
        _POTENTIAL, _marginalize_hypergraph, _NULL_TOL_HELP,
        ("--emit-potential", "--strict", "--format")),
    "marginalize-gaussian": (
        "Schur-complement marginal of a Gaussian model",
        ("gaussian",), _marginalize_gaussian,
        "edge-detection tolerance (default 1e-9 x max entry)", ("--format",)),
    "check-collapsibility": (
        "graphical and parametric collapsibility verdicts",
        _POTENTIAL, _check_collapsibility, _NULL_TOL_HELP, ("--strict",)),
    "oracle-verify": (
        "cross-check a potential model against brute-force enumeration",
        _POTENTIAL, _oracle_verify, _NULL_TOL_HELP, ("--strict",)),
}

_OPTIONS = {
    "--emit-potential": dict(action="store_true",
                             help="include the marginal interaction tables in the result"),
    "--strict": dict(action="store_true",
                     help="reject non-normalized input instead of normalizing it"),
    "--format": dict(choices=("json", "dot"), default="json"),
}


def _run(args) -> int:
    _, kinds, body, _, _ = _COMMANDS[args.command]
    model = load_model(args.model)
    if model.kind not in kinds:
        raise InvalidInputError(
            f"{args.command} needs a {' or '.join(kinds)} model, got '{model.kind}'")
    # --keep splits on commas and strips spaces; --keep-label is verbatim
    labels = [s.strip() for s in (args.keep or "").split(",") if s.strip()] + args.keep_label
    if not labels:
        raise InvalidInputError("subset must be non-empty")
    keep = model.variables.subset(labels)

    null_tol = family = report = diagnostics = None
    if kinds == _POTENTIAL:
        from .hypergraph_marginal import marginalize_hypergraph
        from .potentials import NULL_TOL, PotentialFamily, is_normalized, normalize_potential

        null_tol = args.tolerance if args.tolerance is not None else NULL_TOL
        family, renormalized = model.family, False
        if not all(is_normalized(m) for m in family):
            if args.strict:
                raise InvalidInputError("input potential is not normalized (--strict)")
            print("notice: input potential is not normalized; normalizing.", file=sys.stderr)
            family = PotentialFamily([normalize_potential(m, null_tol) for m in family])
            renormalized = True
        report = marginalize_hypergraph(family, keep, null_tol)
        diagnostics = {"null_tolerance": null_tol, "normalized_input": renormalized}

    # a body returns either the graph to draw or its document fields
    result = body(_Run(args, model, keep, null_tol, family, report))
    if isinstance(result, Graph):
        text = graph_to_dot(result, model.variables)
    else:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "model": {"path": model.path, "kind": model.kind,
                      "variables": list(model.variables.labels)},
            "keep": _labels(model.variables, keep),
            **result,
        }
        if diagnostics is not None:
            doc["diagnostics"] = diagnostics
        text = dump_json(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"{args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    # a failed oracle-verify is a validation error
    return 0 if isinstance(result, Graph) or result.get("passed", True) else 2


def _tolerance(text: str) -> float:
    """A finite ``--tolerance`` of at least 0: JSON has no NaN or Infinity."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margraph",
        description="Marginalize undirected graph, Gibbs-potential hypergraph, "
                    "and Gaussian precision-matrix models over a retained variable set.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _, tolerance, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--keep", metavar="LABELS",
                       help="comma-separated labels of the retained set A")
        p.add_argument("--keep-label", action="append", default=[], metavar="LABEL",
                       help="one label of A, taken verbatim (for labels with commas or "
                            "outer spaces); repeatable, and adds to --keep")
        p.add_argument("--output", metavar="PATH",
                       help="write the result here instead of stdout")
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, default=None, help=tolerance)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.keep is None and not args.keep_label:
        parser.error("one of --keep or --keep-label is required")
    try:
        return _run(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
