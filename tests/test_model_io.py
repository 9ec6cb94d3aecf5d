import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margraph import Graph, ModelFormatError, Variables
from margraph.cli import main
from margraph.model_io import dump_json, graph_to_dot, load_model, parse_model

from fixture_models import (
    family_model_dict,
    fixture_documents,
    graph_model_dict,
    potential_model_dict,
    two_chain_graph,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def test_every_fixture_file_parses():
    names = sorted(os.listdir(FIXTURE_DIR))
    assert names, "fixture directory is empty"
    for name in names:
        model = load_model(fixture_path(name))
        assert model.kind in ("graph", "potential", "potential_family", "gaussian")


def test_fixture_files_match_the_builders():
    # the committed files are exactly what the builders produce
    for name, doc in fixture_documents().items():
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(dump_json(doc)), name


def test_graph_round_trip():
    variables, graph = two_chain_graph(with_chord=True)
    doc = graph_model_dict(variables, graph)
    model = parse_model(json.loads(dump_json(doc)))
    assert model.kind == "graph"
    assert model.graph == graph
    assert model.variables == variables


def test_potential_tables_round_trip_bit_exact():
    model = load_model(fixture_path("chain_potential_cancelling.json"))
    doc = json.loads(dump_json({
        "format_version": 1,
        "variables": [{"label": l, "domain": [0.0, 1.0]} for l in model.variables.labels],
        "potential_family": {"members": [
            {"interactions": [
                {"scope": [model.variables.labels[v] for v in t.scope], "table": t.ravel()}
                for t in member.tables]}
            for member in model.family]},
    }))
    again = parse_model(doc)
    for m1, m2 in zip(model.family, again.family):
        for t1, t2 in zip(m1.tables, m2.tables):
            assert t1.scope == t2.scope
            assert np.array_equal(t1.values, t2.values)


def test_gaussian_round_trip_bit_exact():
    model = load_model(fixture_path("damage_gaussian.json"))
    with open(fixture_path("damage_gaussian.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    assert np.array_equal(model.gaussian.precision, np.array(raw["gaussian"]["precision"]))


class TestParseErrors:
    def good(self):
        return {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "graph": {"edges": [["A", "B"]]},
        }

    def test_wrong_version(self):
        doc = self.good()
        doc["format_version"] = 2
        with pytest.raises(ModelFormatError, match="format_version"):
            parse_model(doc)

    def test_missing_payload(self):
        doc = self.good()
        del doc["graph"]
        with pytest.raises(ModelFormatError, match="exactly one of"):
            parse_model(doc)

    def test_two_payloads(self):
        doc = self.good()
        doc["gaussian"] = {"mean": [0, 0], "precision": [[1, 0], [0, 1]]}
        with pytest.raises(ModelFormatError, match="exactly one of"):
            parse_model(doc)

    def test_duplicate_labels(self):
        doc = self.good()
        doc["variables"][1]["label"] = "A"
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(doc)

    def test_unknown_edge_label_names_field_and_offender(self):
        doc = self.good()
        doc["graph"]["edges"] = [["A", "Z"]]
        with pytest.raises(ModelFormatError, match=r"graph\.edges\[0\].*'Z'"):
            parse_model(doc)

    def test_wrong_table_size_names_scope(self):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "potential": {"interactions": [{"scope": ["A", "B"], "table": [0.0, 1.0]}]},
        }
        with pytest.raises(ModelFormatError, match="expected 4 values"):
            parse_model(doc)

    def test_asymmetric_precision_names_check(self):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "gaussian": {"mean": [0, 0], "precision": [[1.0, 0.4], [0.1, 1.0]]},
        }
        with pytest.raises(ModelFormatError, match="symmetric"):
            parse_model(doc)

    def test_non_spd_precision_names_check(self):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "gaussian": {"mean": [0, 0], "precision": [[1.0, 3.0], [3.0, 1.0]]},
        }
        with pytest.raises(ModelFormatError, match="positive definite"):
            parse_model(doc)

    @pytest.mark.parametrize("where, bad, message", [
        ("precision", "x", "model.gaussian.precision[1][0]: expected a number, got 'x'"),
        ("precision", True, "model.gaussian.precision[1][0]: expected a number, got True"),
        ("mean", None, "model.gaussian.mean[1]: expected a number, got None"),
        ("table", False, "model.potential.interactions[0].table[2]: expected a number, got False"),
        ("domain", "1", "model.variables[1].domain[1]: expected a number, got '1'"),
        ("precision", -10 ** 400,
         "model.gaussian.precision[1][0]: integer too large for a float"),
        ("mean", 10 ** 400, "model.gaussian.mean[1]: integer too large for a float"),
        ("table", 10 ** 400,
         "model.potential.interactions[0].table[2]: integer too large for a float"),
        ("domain", 10 ** 400, "model.variables[1].domain[1]: integer too large for a float"),
    ])
    def test_bad_number_names_the_entry(self, where, bad, message):
        doc = {"format_version": 1, "variables": [{"label": "A"}, {"label": "B"}]}
        if where in ("precision", "mean"):
            doc["gaussian"] = {"mean": [0, 0.5], "precision": [[2.0, 0.5], [0.5, 1]]}
            if where == "precision":
                doc["gaussian"]["precision"][1][0] = bad
            else:
                doc["gaussian"]["mean"][1] = bad
        else:
            doc["potential"] = {"interactions": [
                {"scope": ["A", "B"], "table": [0.0, 0.0, 0.0, 1.5]}]}
            if where == "table":
                doc["potential"]["interactions"][0]["table"][2] = bad
            else:
                doc["variables"][1]["domain"] = [0, bad]
        with pytest.raises(ModelFormatError) as exc:
            parse_model(doc)
        assert str(exc.value) == message

    def test_json_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"format_version\": 1,,\n}\n")
        with pytest.raises(ModelFormatError, match=r":2:"):
            load_model(path)


def test_dot_output_is_deterministic():
    variables, graph = two_chain_graph()
    dot = graph_to_dot(graph, variables)
    assert dot == graph_to_dot(graph, variables)
    assert dot.splitlines()[0] == "graph marginal {"
    assert '  "V1" -- "V2";' in dot
    assert dot.endswith("}\n")


def test_dot_escapes_quotes_and_backslashes_in_labels():
    labels = ['a"b', "a\\", "plain"]
    dot = graph_to_dot(Graph.from_edges(range(3), [(0, 1), (1, 2)]), Variables(labels))
    assert dot.splitlines() == [
        "graph marginal {",
        '  "a\\"b";',
        '  "a\\\\";',
        '  "plain";',
        '  "a\\"b" -- "a\\\\";',
        '  "a\\\\" -- "plain";',
        "}",
    ]
    # a reader that takes a backslash as escaping the next character gets
    # every label back, and every quoted ID ends where it should
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == labels + labels[:2] + labels[1:]


# Leaves for the writer: strings with escapes, ints past 64 bits, every kind
# of float (a small pool makes repeats likely), and numpy floats.
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é\U0001f600')))
_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, 2.2e-310, float("inf"), float("-inf"), float("nan")]))
_LEAF = st.one_of(_TEXT, st.booleans(), st.none(), st.integers(-2 ** 100, 2 ** 100),
                  _FLOAT, _FLOAT.map(np.float64))


def _documents(leaf, keys=_TEXT):
    return st.recursive(
        leaf | st.lists(_FLOAT),
        lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(keys, inner, max_size=5)),
        max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_documents(_LEAF))
def test_dump_json_is_the_stdlib_text(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_documents(_LEAF | st.sampled_from([object(), np.int64(3), np.bool_(True), {(1,): 0}]),
                  keys=_TEXT | st.integers() | st.floats() | st.none() | st.booleans()))
def test_dump_json_raises_where_the_stdlib_raises(doc):
    try:
        expected = json.dumps(doc, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dump_json(doc)
    else:
        assert dump_json(doc) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2 ** 1000, 2 ** 1000),
                          st.floats(allow_nan=False, allow_infinity=False)).filter(bool),
                min_size=1, max_size=6, unique_by=float))
def test_domains_parse_as_numpy_reads_them(values):
    domain = [0, *values]
    model = parse_model({"format_version": 1, "variables": [{"label": "A", "domain": domain}],
                         "graph": {"edges": []}})
    assert model.variables.domains[0] == tuple(np.array(domain, dtype=float).tolist())


# Labels with commas, outer spaces, quotes, backslashes and non-ASCII text,
# and finite domains whose anchor 0.0 is never the first value.
_LABEL = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6),
    st.sampled_from([",", "a,b", " a ", "  ", '"', 'q"u"o', "\\", "b\\\\", "é", "Δ, λ ",
                     "日本"]))
_VALUE = st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 5e-324, 1e-300])


@st.composite
def _labelled_models(draw):
    """A potential-family document over 1-4 variables with arbitrary labels
    and domains, and a non-empty retained subset of its labels."""
    labels = draw(st.lists(_LABEL, min_size=1, max_size=4, unique=True))
    domains = []
    for _ in labels:
        others = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool),
                               min_size=1, max_size=3, unique=True))
        at = draw(st.integers(1, len(others)))
        domains.append(others[:at] + [0.0] + others[at:])
    members = []
    for _ in range(draw(st.integers(1, 2))):
        scopes = draw(st.lists(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=3,
                                        unique=True).map(sorted),
                               max_size=4, unique_by=tuple))
        members.append({"interactions": [
            {"scope": [labels[v] for v in s],
             "table": draw(st.lists(_VALUE, min_size=math.prod(len(domains[v]) for v in s),
                                    max_size=math.prod(len(domains[v]) for v in s)))}
            for s in scopes]})
    doc = {"format_version": 1,
           "variables": [{"label": l, "domain": d} for l, d in zip(labels, domains)],
           "potential_family": {"members": members}}
    return doc, draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(_labelled_models())
def test_arbitrary_labels_and_domains_round_trip_bit_for_bit(case):
    doc, _ = case
    model = parse_model(doc)
    n = len(model.variables)
    graph = Graph.from_edges(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])
    for write in (lambda: family_model_dict(model.family),
                  lambda: potential_model_dict(model.family.members[0]),
                  lambda: graph_model_dict(model.variables, graph)):
        again = parse_model(json.loads(dump_json(write())))
        assert again.variables.labels == model.variables.labels
        assert [_bits(d) for d in again.variables.domains] == [
            _bits(d) for d in model.variables.domains]
        if again.graph is not None:
            assert again.graph.edge_list == graph.edge_list
            continue
        for got, want in zip(again.family, model.family):
            assert [t.scope for t in got.tables] == [t.scope for t in want.tables]
            assert [t.values.tobytes() for t in got.tables] == [
                t.values.tobytes() for t in want.tables]


def _model_over(label):
    """A one-table model over ``label`` and "b", keeping ``label``."""
    return ({"format_version": 1,
             "variables": [{"label": label, "domain": [1.0, 0.0]},
                           {"label": "b", "domain": [2.0, 0.0]}],
             "potential_family": {"members": [{"interactions": [
                 {"scope": [label, "b"], "table": [0.5, -1.0, 0.25, 2.0]}]}]}},
            [label])


@settings(max_examples=50, deadline=None)
@given(_labelled_models())
@example(_model_over("-:"))  # labels starting with "-" need --keep-label=LABEL
@example(_model_over("--k"))
def test_arbitrary_labels_and_domains_marginalize_through_the_cli(case):
    doc, keep = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
        for fmt in ("json", "dot"):
            out, err = io.StringIO(), io.StringIO()
            argv = ["marginalize-hypergraph", path, "--format", fmt]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + [f"--keep-label={label}" for label in keep])
            assert code == 0, err.getvalue()
            if fmt == "json":
                labels = [v["label"] for v in doc["variables"]]
                assert json.loads(out.getvalue())["keep"] == [l for l in labels if l in keep]
            else:
                assert out.getvalue().startswith("graph marginal {")
