"""JSON model files and DOT output.

A model file carries a format version, the variable registry, and exactly
one payload: a graph, a potential, a potential family, or a Gaussian
model.  Interaction tables are flat lists in the normative assignment-major
order (last scope variable fastest); the precision matrix is a list of rows
(row-major).  Parsing reports the offending field on failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidInputError, ModelFormatError
from .graphs import Graph, Variables

if TYPE_CHECKING:
    import numpy as np

    from .gaussian import GaussianModel
    from .potentials import Potential, PotentialFamily

FORMAT_VERSION = 1

_PAYLOAD_KINDS = ("graph", "potential", "potential_family", "gaussian")


@dataclass
class ModelFile:
    """A parsed model file: registry plus one payload."""

    kind: str
    variables: Variables
    graph: Graph | None = None
    family: PotentialFamily | None = None
    gaussian: GaussianModel | None = None
    path: str | None = None


def _fail(context: str, message: str) -> ModelFormatError:
    return ModelFormatError(f"{context}: {message}")


def _numbers(values: list, context: str) -> list:
    """``values`` unchanged if every entry is a number; otherwise the error
    names the first offending entry as ``context[i]``."""
    if set(map(type, values)) <= {int, float}:  # fast path for plain JSON numbers
        return values
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(f"{context}[{i}]", f"expected a number, got {value!r}")
    return values


def _floats(values: list, context: str) -> np.ndarray:
    """``values``, numbers or rows of numbers, as a float array; the error
    names an integer too large for a float as ``context[i]`` or
    ``context[i][j]``."""
    import numpy as np

    try:
        return np.array(values, dtype=float)
    except OverflowError:
        for i, value in enumerate(values):
            if isinstance(value, list):
                _floats(value, f"{context}[{i}]")
            elif isinstance(value, int) and abs(value) > sys.float_info.max:
                raise _fail(f"{context}[{i}]", "integer too large for a float") from None
        raise


def _parse_variables(data, context: str) -> Variables:
    if not isinstance(data, list) or not data:
        raise _fail(context, "expected a non-empty list of variables")
    labels = []
    domains = []
    for k, item in enumerate(data):
        ctx = f"{context}[{k}]"
        if not isinstance(item, dict) or "label" not in item:
            raise _fail(ctx, "expected an object with a 'label'")
        if not isinstance(item["label"], str):
            raise _fail(f"{ctx}.label", f"expected a string, got {item['label']!r}")
        labels.append(item["label"])
        dom = item.get("domain", [0, 1])
        if not isinstance(dom, list):
            raise _fail(f"{ctx}.domain", "expected a list of numbers")
        try:  # plain floats: variables and graphs need no numpy
            domains.append([float(x) for x in _numbers(dom, f"{ctx}.domain")])
        except OverflowError:  # _floats names the integer too large for a float
            _floats(dom, f"{ctx}.domain")
    try:
        return Variables(labels, domains)
    except InvalidInputError as exc:
        raise _fail(context, str(exc)) from None


def _parse_graph(data, variables: Variables, context: str) -> Graph:
    if not isinstance(data, dict):
        raise _fail(context, "expected an object")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise _fail(f"{context}.edges", "expected a list of label pairs")
    pairs = []
    for k, e in enumerate(edges):
        ctx = f"{context}.edges[{k}]"
        if not isinstance(e, list) or len(e) != 2:
            raise _fail(ctx, f"expected a pair of labels, got {e!r}")
        try:
            pairs.append((variables.index(e[0]), variables.index(e[1])))
        except InvalidInputError as exc:
            raise _fail(ctx, str(exc)) from None
    try:
        return Graph.from_edges(variables.all_ids(), pairs)
    except InvalidInputError as exc:
        raise _fail(f"{context}.edges", str(exc)) from None


def _parse_potential(data, variables: Variables, context: str) -> Potential:
    from .potentials import InteractionTable, Potential

    if not isinstance(data, dict):
        raise _fail(context, "expected an object")
    interactions = data.get("interactions")
    if not isinstance(interactions, list):
        raise _fail(f"{context}.interactions", "expected a list")
    tables = []
    for k, item in enumerate(interactions):
        ctx = f"{context}.interactions[{k}]"
        if not isinstance(item, dict) or "scope" not in item or "table" not in item:
            raise _fail(ctx, "expected an object with 'scope' and 'table'")
        if not isinstance(item["scope"], list) or not item["scope"]:
            raise _fail(f"{ctx}.scope", "expected a non-empty list of labels")
        try:
            scope = variables.subset(item["scope"])
        except InvalidInputError as exc:
            raise _fail(f"{ctx}.scope", str(exc)) from None
        if len(scope) != len(item["scope"]):
            raise _fail(f"{ctx}.scope", "repeated labels in scope")
        if not isinstance(item["table"], list):
            raise _fail(f"{ctx}.table", "expected a flat list of numbers")
        flat = _numbers(item["table"], f"{ctx}.table")
        sizes = variables.sizes(scope)
        expected = math.prod(sizes)
        if len(flat) != expected:
            raise _fail(f"{ctx}.table",
                        f"expected {expected} values for scope {item['scope']}, got {len(flat)}")
        tables.append(InteractionTable(scope, _floats(flat, f"{ctx}.table").reshape(sizes)))
    try:
        return Potential(variables, tables)
    except InvalidInputError as exc:
        raise _fail(f"{context}.interactions", str(exc)) from None


def _parse_gaussian(data, variables: Variables, context: str) -> GaussianModel:
    from .gaussian import GaussianModel

    if not isinstance(data, dict):
        raise _fail(context, "expected an object")
    n = len(variables)
    mean = data.get("mean")
    if not isinstance(mean, list) or len(mean) != n:
        raise _fail(f"{context}.mean", f"expected {n} numbers")
    _numbers(mean, f"{context}.mean")
    rows = data.get("precision")
    if not isinstance(rows, list) or len(rows) != n:
        raise _fail(f"{context}.precision", f"expected {n} rows")
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise _fail(f"{context}.precision[{k}]", f"expected {n} numbers")
        _numbers(row, f"{context}.precision[{k}]")
    try:
        return GaussianModel(_floats(mean, f"{context}.mean"),
                             _floats(rows, f"{context}.precision"))
    except InvalidInputError as exc:
        raise _fail(f"{context}.precision", str(exc)) from None


def parse_model(data, source: str = "model") -> ModelFile:
    """Validate and convert a decoded JSON document into a :class:`ModelFile`."""
    if not isinstance(data, dict):
        raise _fail(source, "expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise _fail(f"{source}.format_version",
                    f"expected {FORMAT_VERSION}, got {version!r}")
    variables = _parse_variables(data.get("variables"), f"{source}.variables")
    present = [k for k in _PAYLOAD_KINDS if k in data]
    if len(present) != 1:
        raise _fail(source, f"expected exactly one of {list(_PAYLOAD_KINDS)}, found {present}")
    kind = present[0]
    model = ModelFile(kind=kind, variables=variables)
    if kind == "graph":
        model.graph = _parse_graph(data["graph"], variables, f"{source}.graph")
    elif kind == "potential":
        from .potentials import PotentialFamily

        model.family = PotentialFamily([
            _parse_potential(data["potential"], variables, f"{source}.potential")])
    elif kind == "potential_family":
        from .potentials import PotentialFamily

        payload = data["potential_family"]
        if not isinstance(payload, dict) or not isinstance(payload.get("members"), list) \
                or not payload["members"]:
            raise _fail(f"{source}.potential_family", "expected an object with non-empty 'members'")
        members = [
            _parse_potential(item, variables, f"{source}.potential_family.members[{k}]")
            for k, item in enumerate(payload["members"])]
        model.family = PotentialFamily(members)
    else:
        model.gaussian = _parse_gaussian(data["gaussian"], variables, f"{source}.gaussian")
    return model


def load_model(path) -> ModelFile:
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # unreadable, not UTF-8, too deep
        raise ModelFormatError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    model = parse_model(data, source=path)
    model.path = path
    return model


# ---------------------------------------------------------------------------
# Writers.
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


class _FloatReprs(dict):
    """The JSON text of each float looked up, formatted once per value; ±0.0
    compare equal but print apart, so they are never stored."""

    def __missing__(self, x: float) -> str:
        text = ("NaN" if x != x else "Infinity" if x == math.inf
                else "-Infinity" if x == -math.inf else float.__repr__(x))
        if x:
            self[x] = text
        return text


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(document: dict) -> str:
    """``json.dumps(document, indent=2) + "\\n"``, byte for byte, without the
    stdlib's pure-Python indenting encoder: each list of plain floats is
    joined in one pass, and a repeated float (a symmetric matrix repeats half
    its entries) is formatted once.  Other leaves take the stdlib's encoding.
    """
    out: list[str] = []
    _write(document, "\n", out, _FloatReprs())
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str], floats: _FloatReprs) -> None:
    """Append ``value`` as indented JSON to ``out``; ``newline`` is a line
    break plus the indentation of the line ``value`` starts on."""
    inner = newline + "  "
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, float):
        out.append(floats[value])
    elif isinstance(value, (list, tuple)) and value and set(map(type, value)) == {float}:
        out += ("[", inner, ("," + inner).join(map(floats.__getitem__, value)), newline, "]")
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _write(item, inner, out, floats)
        out.append(newline + "]")
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{',' if i else '{'}{inner}{_encode_str(key)}: ")
            _write(item, inner, out, floats)
        out.append(newline + "}")
    else:  # None, bools, ints, empty containers, non-string keys, unsupported types
        out.append(json.dumps(value, indent=2).replace("\n", newline))


def _dot_id(label: str) -> str:
    """``label`` as a quoted DOT ID: backslashes and double quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: Graph, variables: Variables, name: str = "marginal") -> str:
    """Plain DOT rendering; vertices then edges, both in id order."""
    ids = [_dot_id(label) for label in variables.labels]
    lines = [f"graph {name} {{"]
    for v in graph.vertices:
        lines.append(f"  {ids[v]};")
    for a, b in graph.edge_list:
        lines.append(f"  {ids[a]} -- {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
