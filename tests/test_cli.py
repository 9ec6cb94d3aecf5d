import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import hypergraph_marginal
from margraph.cli import main
from margraph.errors import STATE_LIMIT
from margraph.gaussian import SYMMETRY_TOL
from margraph.model_io import dump_json

HUGE = int("9" * 401)  # a JSON integer no float can hold
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
DAMAGE_KEEP = ",".join(f"X{k}" for k in (1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 18, 19, 20, 21, 24))


def fixture(name):
    return os.path.join(FIXTURE_DIR, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestMarginalizeGraph:
    def test_two_chains(self, capsys):
        doc = run_json(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                       "--keep", "V1,V3,V5")
        assert doc["marginal_graph"]["edges"] == [["V1", "V3"]]
        assert doc["marginal_graph"]["vertices"] == ["V1", "V3", "V5"]

    def test_keep_everything_echoes_input(self, capsys):
        doc = run_json(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                       "--keep", "V1,V2,V3,V4,V5,V6")
        assert doc["marginal_graph"]["edges"] == [
            ["V1", "V2"], ["V2", "V3"], ["V4", "V5"], ["V5", "V6"]]

    def test_damage_subset(self, capsys):
        keep = ",".join(f"X{k}" for k in (1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 18, 19, 20, 21, 24))
        doc = run_json(capsys, "marginalize-graph", fixture("damage_graph.json"),
                       "--keep", keep)
        edges = {tuple(e) for e in doc["marginal_graph"]["edges"]}
        assert ("X2", "X8") in edges
        subgraph_edges = {("X1", "X2"), ("X1", "X9"), ("X1", "X10"), ("X2", "X3"),
                          ("X2", "X4"), ("X2", "X6"), ("X3", "X8"), ("X3", "X11"),
                          ("X3", "X12"), ("X3", "X21"), ("X4", "X8"), ("X4", "X24"),
                          ("X6", "X8"), ("X8", "X18"), ("X8", "X19"), ("X8", "X20")}
        assert edges == subgraph_edges | {("X2", "X8")}

    def test_dot_output(self, capsys):
        code, out, err = run(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                             "--keep", "V1,V3,V5", "--format", "dot")
        assert code == 0
        assert '"V1" -- "V3";' in out
        assert out.startswith("graph marginal {")

    def test_wrong_model_kind(self, capsys):
        code, out, err = run(capsys, "marginalize-graph", fixture("chain_potential.json"),
                             "--keep", "V1")
        assert code == 2 and "graph model" in err

    def test_unknown_label_lists_offender(self, capsys):
        code, out, err = run(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                             "--keep", "V1,NOPE")
        assert code == 2 and "NOPE" in err

    def test_empty_subset_rejected(self, capsys):
        code, out, err = run(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                             "--keep", " , ")
        assert code == 2 and "non-empty" in err


class TestMarginalizeHypergraph:
    def test_base_chain_model(self, capsys):
        doc = run_json(capsys, "marginalize-hypergraph", fixture("chain_potential.json"),
                       "--keep", "V1,V3,V5")
        got = {tuple(e) for e in doc["marginal_hypergraph"]}
        assert got == {("V1",), ("V3",), ("V1", "V3"), ("V5",)}
        assert doc["marginal_graph"]["edges"] == [["V1", "V3"]]
        assert doc["collapsible"] == {"graphical": False, "parametric": False}

    def test_cancelling_family(self, capsys):
        doc = run_json(capsys, "marginalize-hypergraph",
                       fixture("chain_potential_cancelling.json"), "--keep", "V1,V3,V5")
        assert {tuple(e) for e in doc["marginal_hypergraph"]} == {("V1",), ("V3",), ("V5",)}
        assert doc["removed"] == [["V1", "V3"]]
        assert doc["marginal_graph"]["edges"] == []

    def test_dot_output_of_marginal_graph(self, capsys):
        code, out, err = run(capsys, "marginalize-hypergraph", fixture("chain_potential.json"),
                             "--keep", "V1,V3,V5", "--format", "dot")
        assert code == 0
        assert '"V1" -- "V3";' in out

    def test_emit_potential(self, capsys):
        doc = run_json(capsys, "marginalize-hypergraph", fixture("chain_potential.json"),
                       "--keep", "V1,V3,V5", "--emit-potential")
        members = doc["marginal_potential"]["members"]
        assert len(members) == 1
        scopes = [tuple(i["scope"]) for i in members[0]["interactions"]]
        assert ("V1", "V3") in scopes

    def test_tolerance_flag_reaches_the_engine(self, capsys):
        # an absurdly large null tolerance wipes every interaction
        doc = run_json(capsys, "marginalize-hypergraph", fixture("chain_potential.json"),
                       "--keep", "V1,V3,V5", "--tolerance", "10")
        assert doc["marginal_hypergraph"] == []
        assert doc["diagnostics"]["null_tolerance"] == 10.0

    def test_non_normalized_input_notice_and_strict(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "potential": {"interactions": [
                {"scope": ["A", "B"], "table": [0.5, 0.5, 0.5, 1.5]}]},
        }
        path = tmp_path / "raw.json"
        path.write_text(dump_json(doc))
        code, out, err = run(capsys, "marginalize-hypergraph", str(path), "--keep", "A")
        assert code == 0 and "normalizing" in err
        assert json.loads(out)["diagnostics"]["normalized_input"] is True
        code, out, err = run(capsys, "marginalize-hypergraph", str(path),
                             "--keep", "A", "--strict")
        assert code == 2 and "not normalized" in err

    def test_duplicate_scope_names_its_labels_and_entries(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(dump_json({
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "potential": {"interactions": [
                {"scope": ["A", "B"], "table": [0.0, 0.0, 0.0, 1.0]},
                {"scope": ["B", "A"], "table": [0.0, 0.0, 0.0, 2.0]}]}}))
        code, out, err = run(capsys, "marginalize-hypergraph", str(path), "--keep", "A")
        assert code == 2 and out == ""
        assert err == (f"error: {path}.potential.interactions[1].scope: duplicate table for "
                       "scope ['B', 'A']: interactions[0] has ['A', 'B']\n")


class TestMarginalizeGaussian:
    def test_damage_innovation_entry(self, capsys):
        keep = ",".join(f"X{k}" for k in (1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 18, 19, 20, 21, 24))
        doc = run_json(capsys, "marginalize-gaussian", fixture("damage_gaussian.json"),
                       "--keep", keep)
        kept_labels = doc["marginal_graph"]["vertices"]
        i = kept_labels.index("X2")
        j = kept_labels.index("X8")
        assert abs(doc["innovation_matrix"][i][j]) > 1e-9
        assert ["X2", "X8"] in doc["marginal_graph"]["edges"]

    def test_identity_precision(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}, {"label": "C"}],
            "gaussian": {"mean": [1.0, 2.0, 3.0],
                         "precision": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        }
        path = tmp_path / "id.json"
        path.write_text(dump_json(doc))
        out = run_json(capsys, "marginalize-gaussian", str(path), "--keep", "A,C")
        assert out["marginal"]["precision"] == [[1.0, 0.0], [0.0, 1.0]]
        assert out["marginal"]["mean"] == [1.0, 3.0]
        assert out["marginal_graph"]["edges"] == []

    def test_tuned_fixture_drops_edge_graph_keeps_it(self, capsys):
        keep = ",".join(f"X{k}" for k in (1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 18, 19, 20, 21, 24))
        doc = run_json(capsys, "marginalize-gaussian", fixture("damage_gaussian_tuned.json"),
                       "--keep", keep)
        assert ["X2", "X4"] not in doc["marginal_graph"]["edges"]
        graph_doc = run_json(capsys, "marginalize-graph", fixture("damage_graph.json"),
                             "--keep", keep)
        assert ["X2", "X4"] in graph_doc["marginal_graph"]["edges"]

    def test_non_spd_input_names_check(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "gaussian": {"mean": [0.0, 0.0], "precision": [[1.0, 3.0], [3.0, 1.0]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        code, out, err = run(capsys, "marginalize-gaussian", str(path), "--keep", "A")
        assert code == 2 and "positive definite" in err

    def test_asymmetry_accepted_at_the_models_scale_exits_0(self, capsys, tmp_path):
        # P's symmetry tolerance scales with its largest entry, 1e6, so the
        # 1e-9 asymmetry of (B, C) passes; the retained block keeps it
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}, {"label": "C"}],
            "gaussian": {"mean": [0.0, 1.0, 2.0],
                         "precision": [[1e6, 0.0, 0.0], [0.0, 1.0, 0.5],
                                       [0.0, 0.5 + 1e-9, 1.0]]},
        }
        path = tmp_path / "scaled.json"
        path.write_text(dump_json(doc))
        out = run_json(capsys, "marginalize-gaussian", str(path), "--keep", "B,C")
        assert out["marginal"]["precision"] == [[1.0, 0.5], [0.5 + 1e-9, 1.0]]
        assert out["innovation_matrix"] == [[0.0, 0.0], [0.0, 0.0]]
        assert out["marginal_graph"]["edges"] == [["B", "C"]]


class TestCheckCollapsibility:
    def test_base_chain_model(self, capsys):
        doc = run_json(capsys, "check-collapsibility", fixture("chain_potential.json"),
                       "--keep", "V1,V3,V5")
        assert doc["collapsible"] == {"graphical": False, "parametric": False}
        assert doc["witnesses"]["graphical"] == ["V1", "V3"]
        assert doc["witnesses"]["parametric"] is not None

    def test_lost_edge_witness(self, capsys):
        # the family cancels the model edge V1-V3 on the marginal and adds
        # only singletons, so the witness is the removed pair
        doc = run_json(capsys, "check-collapsibility", fixture("chain_potential_cancelling.json"),
                       "--keep", "V1,V3,V5")
        assert doc["collapsible"]["graphical"] is False
        assert doc["removed"] == [["V1", "V3"]]
        assert all(len(e) == 1 for e in doc["added"])
        assert doc["witnesses"]["graphical"] == ["V1", "V3"]

    def test_keep_everything_is_collapsible(self, capsys):
        doc = run_json(capsys, "check-collapsibility", fixture("chain_potential.json"),
                       "--keep", "V1,V2,V3,V4,V5,V6")
        assert doc["collapsible"] == {"graphical": True, "parametric": True}
        assert doc["witnesses"] == {"graphical": None, "parametric": None}

    def test_isolated_eliminated_variables_are_parametrically_collapsible(
            self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}, {"label": "C"}],
            "potential": {"interactions": [
                {"scope": ["A", "B"], "table": [0.0, 0.0, 0.0, 1.0]}]},
        }
        path = tmp_path / "iso.json"
        path.write_text(dump_json(doc))
        out = run_json(capsys, "check-collapsibility", str(path), "--keep", "A,B")
        assert out["collapsible"]["parametric"] is True


class TestOracleVerify:
    def test_fixture_passes(self, capsys):
        doc = run_json(capsys, "oracle-verify", fixture("chain_potential_cancelling.json"),
                       "--keep", "V1,V3,V5")
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_grid_passes_without_the_null_drop(self, capsys):
        # the grid's 1023 innovations include many near-null ones; with
        # --tolerance 0 none is dropped, and every check passes
        doc = run_json(capsys, "oracle-verify", fixture("grid_potential.json"),
                       "--keep", "V1,V2,V3,V4,V5,V16,V17,V18,V19,V20", "--tolerance", "0")
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_resource_limit_exits_3(self, capsys, tmp_path, monkeypatch):
        # the oracle refuses 2^21 states before the engine marginalizes
        doc = {
            "format_version": 1,
            "variables": [{"label": f"A{k}"} for k in range(21)],
            "potential": {"interactions": [
                {"scope": ["A0", "A1"], "table": [0.0, 0.0, 0.0, 1.0]}]},
        }
        path = tmp_path / "big.json"
        path.write_text(dump_json(doc))
        calls = []
        monkeypatch.setattr(hypergraph_marginal, "marginalize_hypergraph",
                            lambda *args: calls.append(args))
        code, out, err = run(capsys, "oracle-verify", str(path), "--keep", "A0")
        assert calls == []
        assert code == 3 and out == "" and "state space" in err


class TestEngineResourceLimit:
    """One eliminated hub joined by pair tables to 21 retained binary
    variables needs a 2^22-entry factor; with 13 the factors fit, but the
    innovation split of the boundary needs 3^13 - 1 entries.  Both are
    refused before anything that size is allocated."""

    @staticmethod
    def _hub_model(tmp_path, width=21):
        retained = [f"A{k}" for k in range(1, width + 1)]
        doc = {
            "format_version": 1,
            "variables": [{"label": lbl} for lbl in ["H"] + retained],
            "potential": {"interactions": [
                {"scope": ["H", lbl], "table": [0.0, 0.0, 0.0, 0.4]} for lbl in retained]},
        }
        path = tmp_path / "hub.json"
        path.write_text(dump_json(doc))
        return str(path), ",".join(retained)

    def _exits_3_quickly_and_small(self, capsys, tmp_path, command, width=21):
        path, keep = self._hub_model(tmp_path, width)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run(capsys, command, path, "--keep", keep)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and "limit" in err
        assert elapsed < 1.0
        assert peak < 16 * 2 ** 20

    def test_marginalize_hypergraph(self, capsys, tmp_path):
        self._exits_3_quickly_and_small(capsys, tmp_path, "marginalize-hypergraph")

    def test_check_collapsibility(self, capsys, tmp_path):
        self._exits_3_quickly_and_small(capsys, tmp_path, "check-collapsibility")

    def test_marginalize_hypergraph_split_too_large(self, capsys, tmp_path):
        self._exits_3_quickly_and_small(capsys, tmp_path, "marginalize-hypergraph", width=13)

    def test_normalization_split_too_large(self, capsys, tmp_path):
        # one table over 13 binary variables splits into 3^13 - 1 entries
        labels = [f"A{k}" for k in range(13)]
        doc = {"format_version": 1, "variables": [{"label": lbl} for lbl in labels],
               "potential": {"interactions": [
                   {"scope": labels, "table": np.linspace(0.1, 1.0, 2 ** 13).tolist()}]}}
        path = tmp_path / "wide.json"
        path.write_text(dump_json(doc))
        code, out, err = run(capsys, "marginalize-hypergraph", str(path), "--keep", "A0")
        assert code == 3 and out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"error: normalization needs {3 ** 13 - 1} table entries, "
            f"above the limit of {STATE_LIMIT}"]


MARGINALIZE = ("marginalize-graph", "marginalize-hypergraph", "marginalize-gaussian")
POTENTIAL = ("marginalize-hypergraph", "check-collapsibility", "oracle-verify")
COMMAND_INPUTS = {
    "marginalize-graph": ("two_chains_graph.json", "V1,V3,V5"),
    "marginalize-hypergraph": ("chain_potential.json", "V1,V3,V5"),
    "marginalize-gaussian": ("damage_gaussian.json", "X1,X2,X8"),
    "check-collapsibility": ("chain_potential.json", "V1,V3,V5"),
    "oracle-verify": ("chain_potential_cancelling.json", "V1,V3,V5"),
}
# flag: (its arguments, the commands that take it), as README's "Common flags" lists them
FLAGS = {
    "--format": (("--format", "dot"), MARGINALIZE),
    "--strict": (("--strict",), POTENTIAL),
    "--tolerance": (("--tolerance", "1e-9"), tuple(set(COMMAND_INPUTS) - {"marginalize-graph"})),
    "--emit-potential": (("--emit-potential",), ("marginalize-hypergraph",)),
}


@pytest.mark.parametrize("flag", list(FLAGS))
@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_option_surface(capsys, command, flag):
    path, keep = COMMAND_INPUTS[command]
    flag_args, takers = FLAGS[flag]
    argv = [command, fixture(path), "--keep", keep, *flag_args]
    if command in takers:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag_args)}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("command", sorted(FLAGS["--tolerance"][1]))
def test_a_non_finite_or_negative_tolerance_exits_2(capsys, command, value):
    # NaN and infinities would reach the document as tokens no JSON parser
    # accepts; a negative cut would keep every entry
    path, keep = COMMAND_INPUTS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, fixture(path), "--keep", keep, f"--tolerance={value}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --tolerance: expected a finite number >= 0, got '{value}'" in err


# tests/golden/NAME holds the stdout of ``python -m margraph.cli ARGV`` run
# from the repository root; these bytes pin the output across commits.  The
# Gaussian files take DAMAGE_KEEP (see test_gaussian_stdout_matches_golden);
# the others, the commands below, as README lists them, plus the 4 x 5 grid
# in both formats, whose ten-variable boundary splits into 1 023 sub-scopes.
GOLDEN = {
    "two_chains_graph.json": ["marginalize-graph", "fixtures/two_chains_graph.json",
                              "--keep", "V1,V3,V5"],
    "two_chains_graph.dot": ["marginalize-graph", "fixtures/two_chains_graph.json",
                             "--keep", "V1,V3,V5", "--format", "dot"],
    "chain_potential.json": ["marginalize-hypergraph", "fixtures/chain_potential.json",
                             "--keep", "V1,V3,V5", "--emit-potential"],
    "chain_potential.dot": ["marginalize-hypergraph", "fixtures/chain_potential.json",
                            "--keep", "V1,V3,V5", "--emit-potential", "--format", "dot"],
    "grid_potential.json": ["marginalize-hypergraph", "fixtures/grid_potential.json",
                            "--keep", "V1,V2,V3,V4,V5,V16,V17,V18,V19,V20", "--emit-potential"],
    "grid_potential.dot": ["marginalize-hypergraph", "fixtures/grid_potential.json",
                           "--keep", "V1,V2,V3,V4,V5,V16,V17,V18,V19,V20", "--emit-potential",
                           "--format", "dot"],
    "chain_potential_cancelling.json": ["marginalize-hypergraph",
                                        "fixtures/chain_potential_cancelling.json",
                                        "--keep", "V1,V3,V5", "--emit-potential"],
    "chain_potential_cancelling.check-collapsibility.json": [
        "check-collapsibility", "fixtures/chain_potential_cancelling.json", "--keep", "V1,V3,V5"],
    "chain_potential_cancelling.oracle-verify.json": [
        "oracle-verify", "fixtures/chain_potential_cancelling.json", "--keep", "V1,V3,V5"],
    "chain_potential_partial_family.json": ["marginalize-hypergraph",
                                            "fixtures/chain_potential_partial_family.json",
                                            "--keep", "V1,V3,V5", "--emit-potential"],
}
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _stdout(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "margraph.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, check=True).stdout


def _golden(name):
    with open(os.path.join(ROOT, "tests", "golden", name), "rb") as fh:
        return fh.read()


class TestKeepLabel:
    """``--keep-label`` names a retained label verbatim, in a new process."""

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "variables": [{"label": "A,B"}, {"label": " C "}, {"label": "D"}, {"label": "C"}],
            "graph": {"edges": [["A,B", "D"], ["D", " C "], [" C ", "C"]]}}))
        return str(path)

    @staticmethod
    def _cli(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "margraph.cli", *argv], env=env,
                              capture_output=True, text=True)

    def test_labels_with_a_comma_or_outer_spaces_are_retained(self, model):
        done = self._cli("marginalize-graph", model, "--keep-label", "A,B",
                         "--keep-label", " C ")
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["keep"] == ["A,B", " C "]
        assert doc["marginal_graph"] == {"vertices": ["A,B", " C "], "edges": [["A,B", " C "]]}
        # --keep strips its labels, and the two add up
        done = self._cli("marginalize-graph", model, "--keep", " C ", "--keep-label", " C ")
        assert json.loads(done.stdout)["keep"] == [" C ", "C"]

    def test_an_unknown_label_exits_2(self, model):
        for argv in (["--keep-label", "A"], ["--keep-label", "C,D"], []):
            done = self._cli("marginalize-graph", model, *argv)
            assert done.returncode == 2 and done.stdout == ""
            assert "error:" in done.stderr and "Traceback" not in done.stderr

    def test_a_label_starting_with_a_dash_needs_the_equals_form(self, tmp_path):
        path = tmp_path / "dash.json"
        path.write_text(json.dumps({
            "format_version": 1, "variables": [{"label": "-:"}, {"label": "y"}],
            "graph": {"edges": [["-:", "y"]]}}))
        done = self._cli("marginalize-graph", str(path), "--keep-label", "-:")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage:") and "expected one argument" in done.stderr
        assert "Traceback" not in done.stderr
        done = self._cli("marginalize-graph", str(path), "--keep-label=-:")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["keep"] == ["-:"]


class TestOutputContract:
    def test_byte_identical_repeated_runs(self, capsys):
        args = ("marginalize-hypergraph", fixture("chain_potential_cancelling.json"),
                "--keep", "V1,V3,V5", "--emit-potential")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("name", ["damage_gaussian", "damage_gaussian_tuned"])
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_gaussian_stdout_matches_golden(self, name, fmt):
        argv = ["marginalize-gaussian", f"fixtures/{name}.json", "--keep", DAMAGE_KEEP]
        if fmt == "dot":
            argv += ["--format", "dot"]
        assert _stdout(argv) == _golden(f"{name}.{fmt}")

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_fixture_stdout_matches_golden(self, name):
        assert _stdout(GOLDEN[name]) == _golden(name)

    @pytest.mark.parametrize("name", [name for name, argv in GOLDEN.items()
                                      if argv[0] == "marginalize-hypergraph"])
    def test_a_warm_run_matches_the_golden(self, capsys, monkeypatch, name):
        # the second run in one process reuses the elimination plan and the
        # row layouts of the first, which a new process never does
        monkeypatch.chdir(ROOT)
        for _ in range(2):
            code, out, _ = run(capsys, *GOLDEN[name])
            assert code == 0
        assert out.encode() == _golden(name)

    def test_result_document_round_trips(self, capsys):
        code, out, _ = run(capsys, "marginalize-gaussian", fixture("damage_gaussian.json"),
                           "--keep", "X1,X2,X8")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, err = run(capsys, "marginalize-graph", fixture("two_chains_graph.json"),
                             "--keep", "V1,V3,V5", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["marginal_graph"]["edges"] == [["V1", "V3"]]

    @staticmethod
    def _cli(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "margraph.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)

    def test_unwritable_output_path_exits_2(self, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        done = self._cli("marginalize-graph", "fixtures/two_chains_graph.json",
                         "--keep", "V1,V3", "--output", target)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: {target}: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "too-deep"])
    def test_undecodable_model_file_exits_2(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        done = self._cli("marginalize-graph", str(path), "--keep", "V1")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in done.stderr

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "marginalize-graph", str(path), "--keep", "A")
        assert code == 2 and "error:" in err

    def test_nan_table_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "potential": {"interactions": [{"scope": ["A", "B"],
                                            "table": [0.0, 0.0, 0.0, float("nan")]}]}}))
        assert "NaN" in path.read_text()
        code, out, err = run(capsys, "marginalize-hypergraph", str(path), "--keep", "A")
        assert code == 2 and out == ""
        assert "non-finite" in err and "Traceback" not in err

    def test_a_split_that_overflows_exits_2_without_a_numpy_warning(self, tmp_path):
        # the anchored differences of the finite table overflow, and the
        # non-finite piece on A is refused; in a new process, where numpy's
        # warnings would reach stderr
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "variables": [{"label": "A"}, {"label": "B"}],
            "potential": {"interactions": [{"scope": ["A", "B"],
                                            "table": [-1.7e308, 0.0, 1.7e308, 0.0]}]}}))
        done = self._cli("marginalize-hypergraph", str(path), "--keep", "A")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == [
            "notice: input potential is not normalized; normalizing.",
            "error: computed table for scope ['A'] overflowed"]

    @pytest.mark.parametrize("command, payload, field", [
        ("marginalize-gaussian",
         {"gaussian": {"mean": [0, 0], "precision": [[2.0, 0.5], [0.5, HUGE]]}},
         "gaussian.precision[1][1]"),
        ("marginalize-hypergraph",
         {"potential": {"interactions": [{"scope": ["A", "B"],
                                          "table": [0.0, 0.0, 0.0, HUGE]}]}},
         "potential.interactions[0].table[3]"),
    ])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, command, payload, field):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format_version": 1,
                                    "variables": [{"label": "A"}, {"label": "B"}],
                                    **payload}))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "margraph.cli", command, str(path),
                               "--keep", "A"], env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"{field}: integer too large for a float" in done.stderr


def _main_on(doc, command, *argv):
    """Exit code, stdout and stderr of ``main`` in process, on ``doc``
    written to a model file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, path, *argv])
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _keep_argv(draw, labels) -> list:
    """--keep, or one to three --keep-label values, each in the two-word or
    the ``=`` form: the model's labels, or other text (empty, a comma, outer
    spaces, a leading dash)."""
    if draw(st.booleans()):
        return ["--keep", draw(st.one_of(
            st.sets(st.sampled_from(labels), min_size=1).map(",".join),
            st.sampled_from(["", " , ", "Y", "X0,Y", "X99"])))]
    argv = []
    for label in draw(st.lists(st.sampled_from(labels) | st.text(max_size=4), min_size=1,
                               max_size=3)):
        argv += [f"--keep-label={label}"] if draw(st.booleans()) else ["--keep-label", label]
    return argv


def _tolerance_argv(draw) -> list:
    """No --tolerance, or one in the two-word or the ``=`` form: any float's
    text (NaN, infinities and negatives included) or a few plain values."""
    if draw(st.booleans()):
        return []
    value = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-9", "0.5"])
                 | st.floats().map(repr))
    return [f"--tolerance={value}"] if draw(st.booleans()) else ["--tolerance", value]


@st.composite
def _gaussian_argv(draw):
    """A marginalize-gaussian document, drawn to hit every exit: ragged or
    non-square rows, indefinite matrices, asymmetry on either side of the
    tolerance, 400-digit integers, empty or unknown retained labels, and
    any --tolerance.  Returns the document and the arguments naming the
    retained set and the tolerance."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.normal(size=(n, n))
    prec = b @ b.T + draw(st.sampled_from([1.0, 1e-3, -1.0, -10.0])) * np.eye(n)
    prec *= 10.0 ** draw(st.integers(-5, 5))
    rows = prec.tolist()
    mean = rng.normal(size=n).tolist()
    flaw = draw(st.sampled_from(["none", "asymmetric", "ragged", "rows", "columns", "huge"]))
    if flaw == "asymmetric" and n > 1:
        # just inside or just outside the constructor's tolerance
        bound = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(prec))))
        rows[n - 1][0] += bound * draw(st.sampled_from([0.5, 1.0, 2.0]))
    elif flaw == "ragged":
        rows[draw(st.integers(0, n - 1))].append(1.0)
    elif flaw == "rows":
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    elif flaw == "columns":
        rows = [row + [0.0] for row in rows]
    elif flaw == "huge":
        big = int("9" * 400) * draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            mean[draw(st.integers(0, n - 1))] = big
        else:
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = big
    labels = [f"X{k}" for k in range(n)]
    doc = {"format_version": 1, "variables": [{"label": v} for v in labels],
           "gaussian": {"mean": mean, "precision": rows}}
    return doc, _keep_argv(draw, labels) + _tolerance_argv(draw)


@settings(max_examples=150, deadline=None)
@given(_gaussian_argv(), st.sampled_from(["json", "dot"]))
def test_marginalize_gaussian_exits_0_2_or_3(case, fmt):
    doc, keep = case
    code, out, err = _main_on(doc, "marginalize-gaussian", *keep, "--format", fmt)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and "error:" in err
    elif fmt == "json":
        # the writer emits no NaN or Infinity token
        json.loads(out, parse_constant=lambda token: pytest.fail(token))


@st.composite
def _potential_argv(draw):
    """A potential document for the three potential commands, drawn to hit
    every exit: ragged or wrongly sized tables, duplicate scopes, scopes
    naming unknown labels, repeated or non-numeric domain values, 400-digit
    integers, empty interactions, empty or unknown retained labels, and any
    --tolerance.  At most six variables, so oracle-verify enumerates few
    states.  Returns the document and the arguments naming the retained set
    and the tolerance."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = [f"X{k}" for k in range(n)]
    domains = [[0.0, 1.0] if draw(st.booleans()) else [-1.0, 0.0, 2.5] for _ in labels]
    interactions = []
    for _ in range(draw(st.integers(0, 2 * n))):
        scope = sorted(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False))
        size = int(np.prod([len(domains[v]) for v in scope]))
        interactions.append({"scope": [labels[v] for v in scope],
                             "table": (rng.normal(size=size) * draw(st.sampled_from(
                                 [0.0, 1e-12, 1.0, 30.0]))).tolist()})
    flaw = draw(st.sampled_from(["none", "none", "ragged", "size", "duplicate", "repeated label",
                                 "unknown label", "repeated value", "text value", "huge table",
                                 "huge domain", "empty"]))
    if interactions and flaw in ("ragged", "size", "duplicate", "repeated label", "unknown label",
                                 "huge table"):
        t = interactions[draw(st.integers(0, len(interactions) - 1))]
        big = int("9" * 400) * draw(st.sampled_from([1, -1]))
        if flaw == "ragged":
            t["table"] = [t["table"][:1], t["table"][1:]]
        elif flaw == "size":
            t["table"] = t["table"][:-1] if draw(st.booleans()) else t["table"] + [0.0]
        elif flaw == "duplicate":
            interactions.append(dict(t))
        elif flaw == "repeated label":
            t["scope"] = t["scope"] + t["scope"][:1]
        elif flaw == "unknown label":
            t["scope"] = t["scope"][:-1] + ["Y"]
        else:
            t["table"][draw(st.integers(0, len(t["table"]) - 1))] = big
    elif flaw in ("repeated value", "text value", "huge domain"):
        domain = domains[draw(st.integers(0, n - 1))]
        domain.append({"repeated value": domain[-1], "text value": "x",
                       "huge domain": int("9" * 400) * draw(st.sampled_from([1, -1]))}[flaw])
    elif flaw == "empty":
        interactions = []
    variables = [{"label": v, "domain": d} for v, d in zip(labels, domains)]
    payload = {"interactions": interactions}
    if draw(st.booleans()):
        payload = {"potential_family": {"members": [payload, {"interactions": interactions[::2]}]}}
    else:
        payload = {"potential": payload}
    doc = {"format_version": 1, "variables": variables, **payload}
    return doc, _keep_argv(draw, labels) + _tolerance_argv(draw)


@settings(max_examples=150, deadline=None)
@given(_potential_argv(), st.sampled_from([
    ["marginalize-hypergraph"], ["marginalize-hypergraph", "--emit-potential"],
    ["marginalize-hypergraph", "--format", "dot"], ["marginalize-hypergraph", "--strict"],
    ["check-collapsibility"], ["oracle-verify"]]))
def test_potential_commands_exit_0_2_or_3(case, command):
    doc, keep = case
    code, out, err = _main_on(doc, command[0], *keep, *command[1:])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if command[0] == "oracle-verify" and code == 2 and out:
        # checks that failed: the document says so, and nothing else is wrong
        assert json.loads(out)["passed"] is False
    elif code != 0:
        assert out == "" and "error:" in err
    elif "dot" not in command:
        # the writer emits no NaN or Infinity token
        json.loads(out, parse_constant=lambda token: pytest.fail(token))


@st.composite
def _graph_argv(draw):
    """A marginalize-graph document, drawn to hit every exit: labels of any
    text, repeated or non-string labels, loops, edges that are not pairs or
    name an unknown label, and a missing edge list.  Returns the document
    and the arguments naming the retained set."""
    labels = draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).map(list)
    edges = draw(st.lists(pairs, max_size=8))
    variables = [{"label": v} for v in labels]
    flaw = draw(st.sampled_from(["none", "none", "unknown label", "not a pair",
                                 "repeated label", "text label", "no edge list"]))
    if flaw == "unknown label" and edges:
        edges[0][1] = "".join(labels) + "?"
    elif flaw == "not a pair" and edges:
        edges[0] = edges[0][:draw(st.sampled_from([0, 1]))] or "A"
    elif flaw == "repeated label":
        variables.append({"label": labels[0]})
    elif flaw == "text label":
        variables[0]["label"] = draw(st.sampled_from([1, None, ["A"]]))
    graph = {} if flaw == "no edge list" else {"edges": edges}
    doc = {"format_version": 1, "variables": variables, "graph": graph}
    return doc, _keep_argv(draw, labels)


@settings(max_examples=150, deadline=None)
@given(_graph_argv(), st.sampled_from(["json", "dot"]))
def test_marginalize_graph_exits_0_2_or_3(case, fmt):
    doc, keep = case
    code, out, err = _main_on(doc, "marginalize-graph", *keep, "--format", fmt)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and "error:" in err
    elif fmt == "json":
        assert json.loads(out)["marginal_graph"]["vertices"] == json.loads(out)["keep"]
    else:
        assert out.startswith("graph ")
