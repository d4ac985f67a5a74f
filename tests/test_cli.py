"""Command line surface: determinism, schemas, exit codes."""

import io
import json

import pytest

from trigbethe import cli, spin, typea
from trigbethe.bethe import xpoint_from_dict
from trigbethe.cli import main
from trigbethe.nested import Chart


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_enumerate_roots_payload(capsys):
    data = run_json(capsys, "enumerate", "roots", "--type", "B2")
    assert data["schema"] == 1
    assert data["type"] == "B2"
    assert data["rank"] == 2
    assert data["cartan"] == [[2, -1], [-2, 2]]
    assert data["positive_count"] == 4
    assert data["weyl_order"] == 8
    assert [1, 2] in data["positive_roots"]
    data = run_json(capsys, "enumerate", "roots", "--type", "A5")
    assert data["weyl_order"] == 720


def test_enumerate_layers_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", "layers", "--type", "B2",
                 "--out", str(f1)]) == 0
    assert main(["enumerate", "layers", "--type", "B2",
                 "--out", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2 and b1.endswith(b"\n")
    data = json.loads(b1)
    assert data["count"] == 7
    torsion = [l for l in data["layers"] if l["gamma"] == [2]]
    assert len(torsion) == 1
    assert torsion[0]["character"] == ["1", "-1"]
    assert torsion[0]["roots"] == [[1, 0], [1, 2]]


def test_enumerate_building_set_counts(capsys):
    for label, expect in [("A2", 4), ("B2", 5), ("G2", 9), ("A3", 11)]:
        data = run_json(capsys, "enumerate", "building-set", "--type", label)
        assert data["count"] == expect
        assert all(l["indecomposable"] for l in data["layers"])


def test_enumerate_nested_sets(capsys):
    data = run_json(capsys, "enumerate", "nested-sets", "--type", "A3")
    assert data["count"] == 5
    assert data["vertices"] == 3
    assert data["edges"] == [[1, 2], [2, 3]]
    for fam in data["families"]:
        assert [1, 2, 3] in fam
        assert len(fam) == 3
    data = run_json(capsys, "enumerate", "nested-sets", "--type", "D4")
    assert data["count"] == 16


def test_enumerate_boundary_strata(capsys):
    data = run_json(capsys, "enumerate", "boundary-strata", "--type", "A2")
    assert data["count"] == 10
    shapes = [(tuple(s["I"]), s["codim"]) for s in data["strata"]]
    assert shapes.count(((1, 2), 1)) == 3
    assert ((), 0) in shapes


def test_dot_output(capsys):
    code, out, err = run(capsys, "enumerate", "layers", "--type", "A2",
                         "--format", "dot")
    assert code == 0
    assert out.startswith("digraph layers {")
    assert "chi = " in out
    code, out, err = run(capsys, "enumerate", "nested-sets", "--type", "A3",
                         "--format", "dot")
    assert code == 0
    assert out.startswith("digraph nested {")
    assert out.count("subgraph") == 5


def test_enumerate_stats_leave_stdout_and_exit_code_alone(capsys):
    # one walk per request; the counts are those of the lattice walk
    # (lattices visited, Hermite insertions, full Smith forms, layers) and
    # of the poset
    pinned = [
        (["enumerate", "layers", "--type", "A2"],
         {"walks": 1, "lattices": 5, "inserts": 6, "layers": 5}),
        (["enumerate", "layers", "--type", "B2"],
         {"walks": 1, "lattices": 7, "inserts": 10, "layers": 7}),
        (["enumerate", "layers", "--type", "B4", "--format", "dot"],
         {"walks": 1, "lattices": 164, "inserts": 648, "smith_forms": 7,
          "layers": 161, "poset_candidates": 1456, "contains_tests": 192,
          "relations": 1380}),
        (["enumerate", "boundary-strata", "--type", "C4"], {"walks": 1}),
        (["enumerate", "building-set", "--type", "B2"], {"walks": 1}),
        (["enumerate", "roots", "--type", "B2"], {"walks": 0}),
    ]
    for argv, counts in pinned:
        code, out, err = run(capsys, *argv)
        code_s, out_s, err_s = run(capsys, *argv, "--stats")
        assert code == 0 and (code_s, out_s) == (code, out) and err == ""
        [line] = err_s.splitlines()
        stats = json.loads(line)
        assert {k: stats[k] for k in counts} == counts, argv


def test_out_to_unwritable_path_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "point.json"
    spec.write_text(json.dumps({"type": "A2", "I": [1, 2], "y": ["2", "3"],
                                "S": [], "t": []}))
    for target in (str(tmp_path / "missing" / "x.json"), str(tmp_path)):
        for argv in (["enumerate", "layers", "--type", "A2"],
                     ["subspace", str(spec)],
                     ["check", "triangularity", "--type", "A2"]):
            code, out, err = run(capsys, *argv, "--out", target)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot write {target}: ")
            assert err.count("\n") == 1


def test_dot_rejected_for_other_targets(capsys):
    code, out, err = run(capsys, "enumerate", "roots", "--format", "dot")
    assert code == 2
    assert "dot output" in err


def test_bad_type_is_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "roots", "--type", "E8")
    assert code == 2
    assert "error:" in err
    # an unbounded field order is refused before the field is built
    code, out, err = run(capsys, "enumerate", "roots", "--field-order", "20000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "roots", "--type", "A99999"],
    ["enumerate", "layers", "--type", "B17"],
    ["check", "all", "--type", "A99999"],
    ["check", "rank", "--type", "D0017"],
])
def test_oversized_rank_is_usage_error(capsys, argv):
    # refused before the root system is built, which at rank 99999 would
    # not finish
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: rank ") and err.count("\n") == 1
    assert err.endswith("exceeds the maximum 16\n")


@pytest.mark.parametrize("what", ["rank", "injectivity", "all"])
def test_oversized_weyl_table_is_usage_error(capsys, monkeypatch, what):
    # |W(A8)| = 9! is read off the Cartan matrix, and the request is
    # refused before any check runs
    def refuse(*args):
        raise AssertionError("a check ran")
    for name in cli._CHECKS:
        monkeypatch.setitem(cli._CHECKS, name, refuse)
    code, out, err = run(capsys, "check", what, "--type", "A8")
    assert code == 2 and out == ""
    assert err == (f"error: check {what} tables the Weyl group of A8, "
                   "|W| = 362880, which exceeds the maximum 50000\n")


def test_checks_that_draw_no_point_run_above_the_weyl_bound(capsys):
    code, out, _ = run(capsys, "check", "typea", "--type", "A8")
    assert code == 0 and json.loads(out)["passed"]


def test_subspace_refuses_oversized_rank(capsys, monkeypatch):
    for label in ("A99999", "C17", "A" + "9" * 5000):
        text = json.dumps({"type": label})
        code, out, err = run_stdin(capsys, monkeypatch, text)
        assert_rejected(code, out, err, text)
        assert err.startswith("bad point description: rank ")


def test_each_verb_takes_only_the_options_it_reads(capsys):
    removed = [["subspace", "-", "--type", "B2"],
               ["subspace", "-", "--field-order", "12"],
               ["subspace", "-", "--seed", "1"],
               ["subspace", "-", "--samples", "3"],
               ["enumerate", "roots", "--seed", "1"],
               ["enumerate", "roots", "--samples", "3"],
               ["check", "rank", "--format", "dot"]]
    for argv in removed:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""


def test_subspace_interior(capsys, tmp_path):
    spec = {"type": "A2", "I": [1, 2], "y": ["2", "3"], "S": [], "t": []}
    f = tmp_path / "point.json"
    f.write_text(json.dumps(spec))
    data = run_json(capsys, "subspace", str(f))
    assert data["dimension"] == 2
    assert data["input"]["y"] == ["2", "3"]
    units = {tuple(u["root"]): u["value"] for u in data["recovered"]["units"]}
    assert units == {(1, 0): "2", (0, 1): "3", (1, 1): "6"}
    assert data["recovered"]["centralized"] == []
    assert data["recovered"]["vanishing"] == []


def test_subspace_boundary_stratum(capsys, tmp_path):
    spec = {"type": "A2", "I": [1], "y": ["5"], "S": [], "t": []}
    f = tmp_path / "point.json"
    f.write_text(json.dumps(spec))
    data = run_json(capsys, "subspace", str(f))
    assert data["dimension"] == 2
    assert data["recovered"]["vanishing"] == [[0, 1], [1, 1]]
    units = {tuple(u["root"]): u["value"] for u in data["recovered"]["units"]}
    assert units == {(1, 0): "5"}


def test_subspace_twisted_hides_recovery(capsys, tmp_path):
    spec = {"type": "A2", "w": [1], "I": [1, 2], "y": ["2", "3"],
            "S": [], "t": []}
    f = tmp_path / "point.json"
    f.write_text(json.dumps(spec))
    data = run_json(capsys, "subspace", str(f))
    assert "recovered" not in data
    assert data["dimension"] == 2


def test_subspace_from_stdin(capsys, monkeypatch):
    spec = {"type": "A1", "I": [1], "y": ["7"], "S": [], "t": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    data = run_json(capsys, "subspace", "-")
    assert data["dimension"] == 1
    assert data["basis"] == [{"t(1)": "1", "tau(1)": "-6/7"}]


def test_subspace_f4_defaults_to_order_twelve(capsys, monkeypatch):
    spec = {"type": "F4", "I": [], "y": [], "S": [], "t": []}
    assert xpoint_from_dict(spec).field.order == 12
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    data = run_json(capsys, "subspace", "-")
    assert data["input"]["field_order"] == 12


def test_subspace_bad_inputs(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, out, err = run(capsys, "subspace", str(f))
    assert code == 2 and "bad point description" in err
    code, out, err = run(capsys, "subspace", str(tmp_path / "missing.json"))
    assert code == 2
    f2 = tmp_path / "range.json"
    f2.write_text(json.dumps({"type": "A2", "I": [5], "y": ["1"]}))
    code, out, err = run(capsys, "subspace", str(f2))
    assert code == 2


def test_check_single_passes(capsys):
    for what in ["rank", "triangularity", "typea"]:
        data = run_json(capsys, "check", what, "--type", "A2",
                        "--samples", "3")
        assert data["passed"] is True
        assert [c["name"] for c in data["checks"]] == [what]
        assert all(c["passed"] for c in data["checks"])


def test_check_weyl_a2(capsys):
    data = run_json(capsys, "check", "weyl", "--type", "A2")
    assert data["passed"] is True
    [weyl] = data["checks"]
    assert weyl["name"] == "weyl" and weyl["passed"] is True
    assert weyl["group_law"] and weyl["delta_transport"] \
        and weyl["bethe_transport"]
    assert weyl["elements"] == 6 and weyl["products"] == 12


def test_check_weyl_d4_exhaustive(capsys):
    data = run_json(capsys, "check", "weyl", "--type", "D4")
    [weyl] = data["checks"]
    assert weyl["passed"] is True
    assert weyl["products"] == 768 == 192 * 4
    assert weyl["exhaustive"] is True


def test_check_weyl_states_presentation_coverage(capsys):
    for label, relations in [("A1", 1), ("G2", 3), ("F4", 10), ("B5", 15)]:
        data = run_json(capsys, "check", "weyl", "--type", label,
                        "--samples", "3")
        [weyl] = data["checks"]
        assert weyl["passed"] is True and weyl["exhaustive"] is True
        assert weyl["relations"] == relations and weyl["twists"] == 4
        assert weyl["twist_formula"] is True and weyl["control"] is True
        assert "Coxeter relations" in weyl["detail"]


def test_check_stats_leaves_stdout_and_exit_code_alone(capsys):
    for argv in (["check", "all", "--type", "B2", "--samples", "2"],
                 ["check", "weyl", "--type", "G2"],
                 ["check", "injectivity", "--type", "G2"]):
        code, out, err = run(capsys, *argv)
        code_s, out_s, err_s = run(capsys, *argv, "--stats")
        assert (code_s, out_s) == (code, out) and err == ""
        [line] = err_s.splitlines()
        seconds = json.loads(line)["check_seconds"]
        assert list(seconds) == [c["name"] for c in json.loads(out)["checks"]]
        assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
    # declared on each verb, not on the program
    with pytest.raises(SystemExit) as exc:
        main(["--stats", "check", "all"])
    assert exc.value.code == 2


def test_check_stats_counts_points_and_reductions(capsys):
    # one point stream per request: check all samples 6 points once and
    # row-reduces each once; A2 seed 2 draws one point twice
    for argv, counts in [
            (["check", "all", "--type", "A2", "--seed", "1"], (6, 6)),
            (["check", "all", "--type", "B2", "--seed", "1"], (6, 6)),
            (["check", "all", "--type", "A2", "--seed", "2"], (7, 6)),
            (["check", "injectivity", "--type", "B2", "--seed", "1"], (6, 6)),
            (["check", "weyl", "--type", "B2"], (0, 0))]:
        code, out, err = run(capsys, *argv)
        code_s, out_s, err_s = run(capsys, *argv, "--stats")
        assert (code_s, out_s) == (code, out) and err == ""
        stats = json.loads(err_s)
        assert (stats["points"], stats["reductions"]) == counts


def test_check_all_shares_its_points_with_the_single_checks(capsys):
    for label in ["A2", "B2", "G2", "A3"]:
        for seed in range(10):
            common = ["--type", label, "--seed", str(seed)]
            _, out, _ = run(capsys, "check", "all", *common)
            entries = {c["name"]: c for c in json.loads(out)["checks"]}
            for name in ("rank", "injectivity"):
                _, single, _ = run(capsys, "check", name, *common)
                assert json.loads(single)["checks"] == [entries[name]]


def test_check_all_reduces_each_point_once(capsys, monkeypatch):
    from trigbethe.bethe import XPoint
    calls: dict[int, int] = {}
    subspace = XPoint.subspace

    def counted(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return subspace(self)

    monkeypatch.setattr(XPoint, "subspace", counted)
    for label in ["A2", "G2", "A3"]:
        calls.clear()
        _, _, err = run(capsys, "check", "all", "--type", label, "--seed", "1",
                        "--stats")
        assert len(calls) == json.loads(err)["reductions"] == 6
        assert set(calls.values()) == {1}


def test_check_all_a2(capsys):
    data = run_json(capsys, "check", "all", "--type", "A2", "--samples", "2")
    assert data["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert names == ["commutativity", "rank", "injectivity",
                     "triangularity", "hecke", "typea", "weyl"]


def test_check_spec_examples(capsys):
    data = run_json(capsys, "check", "all", "--type", "A2", "--seed", "7",
                    "--samples", "2")
    assert data["passed"] is True
    data = run_json(capsys, "check", "hecke", "--type", "G2", "--samples", "2")
    assert data["passed"] is True
    # the suite selector is case-insensitive
    data = run_json(capsys, "check", "typeA", "--samples", "2")
    assert [c["name"] for c in data["checks"]] == ["typea"]


def run_failing_check(capsys, *argv):
    """A check request that must report a failure: exit 1, nothing on
    stderr, "passed": false overall and on its one check; its detail."""
    code, out, err = run(capsys, "check", *argv)
    assert (code, err) == (1, "")
    data = json.loads(out)
    [check] = data["checks"]
    assert data["passed"] is False and check["passed"] is False
    return check["detail"]


def test_check_triangularity_reports_a_matrix_that_is_not_unitriangular(
        capsys, monkeypatch):
    # transposed, each of the 5 chain matrices of A3 has a 1 below the
    # diagonal
    chain_matrix = Chart.chain_matrix
    monkeypatch.setattr(Chart, "chain_matrix",
                        lambda self: [list(c) for c in zip(*chain_matrix(self))])
    detail = run_failing_check(capsys, "triangularity", "--type", "A3")
    assert detail == "5 charts fail"


def test_check_commutativity_reports_each_identity(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spin, "commute", lambda a, b: False)
        detail = run_failing_check(capsys, "commutativity", "--samples", "1")
    assert detail.split("; ") == ["n=2 s=0 [H1,H2] != 0",
                                  "n=3 s=0 [H1,H2] != 0",
                                  "n=3 s=0 [H1,H3] != 0",
                                  "n=3 s=0 [H2,H3] != 0"]
    monkeypatch.setattr(typea, "reindex_map",
                        lambda source, target, vec: target.zero())
    detail = run_failing_check(capsys, "commutativity", "--samples", "1")
    assert detail.split("; ") == ["n=2 s=0 image(k=1) != -z_k H_k",
                                  "n=2 s=0 image(k=2) != -z_k H_k",
                                  "n=3 s=0 image(k=1) != -z_k H_k",
                                  "n=3 s=0 image(k=2) != -z_k H_k"]


def test_check_hecke_reports_a_sign_control_that_commutes(capsys,
                                                           monkeypatch):
    # the flipped algebra's commutators made to look zero
    check = cli.exact_commutator_check

    def blind_to_the_flip(alg, first_only=False):
        tested, bad = check(alg, first_only)
        return (tested, []) if alg.relation_sign == -1 else (tested, bad)
    monkeypatch.setattr(cli, "exact_commutator_check", blind_to_the_flip)
    detail = run_failing_check(capsys, "hecke", "--type", "A2")
    assert detail == "sign-flipped exchange rule still commutes"


def test_check_typea_reports_scaled_identity_and_span(capsys, monkeypatch):
    monkeypatch.setattr(typea, "reindex_map",
                        lambda source, target, vec: target.zero())
    detail = run_failing_check(capsys, "typea", "--samples", "1")
    assert detail.split("; ") == ["n=2 s=0 k=1 scaled identity",
                                  "n=2 s=0 k=2 scaled identity",
                                  "n=2 s=0 span equality",
                                  "n=3 s=0 k=1 scaled identity"]


def test_check_rejects_nonpositive_samples(capsys):
    for name, samples in [("rank", "0"), ("injectivity", "-3"), ("all", "0")]:
        code, out, err = run(capsys, "check", name, "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_check_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "mystery"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_2_messages_name_the_fault_in_the_input(capsys, monkeypatch):
    # e^{alpha_1 + alpha_2} = 2 * 1/2 = 1 puts one root in the
    # centralizer's base, so S needs one member and lists none
    text = json.dumps({"type": "A2", "I": [1, 2], "y": ["2", "1/2"]})
    code, out, err = run_stdin(capsys, monkeypatch, text)
    assert_rejected(code, out, err, text)
    assert err == ("bad point description: S must list 1 member, one per "
                   "root of the centralizer's base, not 0\n")
    # G2 has layers of order 3, and 3 does not divide 4
    code, out, err = run(capsys, "enumerate", "layers", "--type", "G2",
                         "--field-order", "4")
    assert (code, out) == (2, "")
    assert err == ("error: Q(zeta_4) has no primitive root of unity of order "
                   "3; enlarge the field order to a multiple of 3\n")


@pytest.mark.parametrize("label,order,missing", [
    ("F4", 2, 3), ("F4", 3, 2), ("F4", 4, 3), ("B4", 3, 2)])
def test_field_too_small_names_the_first_smith_invariant_factor(
        capsys, label, order, missing):
    # the walk's first lattice whose torsion the field cannot see names
    # the first Smith invariant factor of sat/L that the field lacks
    code, out, err = run(capsys, "enumerate", "layers", "--type", label,
                         "--field-order", str(order))
    assert (code, out) == (2, "")
    assert err == (f"error: Q(zeta_{order}) has no primitive root of unity "
                   f"of order {missing}; enlarge the field order to a "
                   f"multiple of {missing}\n")


def test_field_order_flag(capsys):
    data = run_json(capsys, "enumerate", "layers", "--type", "A2",
                    "--field-order", "12")
    assert data["field_order"] == 12
    assert data["count"] == 5


def run_stdin(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "subspace", "-")


def assert_rejected(code, out, err, text):
    assert code == 2, text
    assert out == "", text
    assert err.startswith("bad point description:"), (text, err)
    assert err.count("\n") == 1 and "Traceback" not in err, (text, err)


VALID_POINTS = [
    {"type": "A2", "I": [1, 2], "y": ["2", "3"], "S": [], "t": []},
    {"type": "A2", "I": [1], "y": ["5"], "S": [], "t": []},
    {"type": "A2", "w": [1], "I": [1, 2], "y": ["2", "3"], "S": [], "t": []},
    {"type": "G2", "I": [2], "y": ["1"], "S": [[1]], "t": ["1"]},
    {"type": "B2", "I": [1, 2], "y": ["1/2 - 3*z", "z"], "S": [], "t": []},
]


def test_subspace_rejects_malformed_points(capsys, monkeypatch):
    base = {"type": "A2", "I": [1, 2], "y": ["2", "3"], "S": [], "t": []}
    for point in VALID_POINTS:
        code, out, err = run_stdin(capsys, monkeypatch, json.dumps(point))
        assert code == 0 and err == "", (point, err)
    cases = [
        {**base, "y": "23"},                    # a string is not a list
        {**base, "y": ["2", 3]},                # numbers are not exact strings
        {**base, "y": ["2", 0.1]},
        {**base, "y": ["2", "0"]},              # not a torus point
        {**base, "y": ["2", "z - z"]},
        {**base, "y": ["2", "zz"]},
        {**base, "y": ["2", "z junk"]},
        {**base, "y": ["2", "2*"]},
        {**base, "y": ["2", "1 + + z"]},
        {**base, "y": ["2", ""]},
        {**base, "y": ["2", "1/0"]},
        {**VALID_POINTS[3], "t": [0.1]},
        {**VALID_POINTS[3], "t": [1]},
        {**VALID_POINTS[3], "t": ["1/0"]},
        {**VALID_POINTS[3], "t": ["1" + "0" * 5000]},  # beyond int parsing
        {**base, "I": ["1", "2"]},
        {**base, "field_order": "6"},
        {**base, "field_order": 20000},         # beyond the bounded order
        {**base, "type": 2},
        {**base, "S": "1"},
    ]
    texts = [json.dumps(c) for c in cases] + ["[1, 2]", '"A2"', "3", "null",
                                              "[" * 100000]
    for text in texts:
        assert_rejected(*run_stdin(capsys, monkeypatch, text), text)


def test_subspace_t_grammar_is_what_str_fraction_writes(capsys, monkeypatch):
    # accepted: [+-]p and [+-]p/q in decimal digits; every other form is
    # refused by the grammar itself, before any number is built
    point = {"type": "A2", "I": [1, 2], "y": ["1", "1"], "S": [[1], [1, 2]]}
    for t in ["3", "+3", "-3", "6/4", "-6/4", "007"]:
        code, out, err = run_stdin(capsys, monkeypatch,
                                   json.dumps({**point, "t": [t, "1"]}))
        assert code == 0 and err == "", (t, err)
    for t in ["1e10000000", "1e5000", "1.5", "1_0", " 1", "1 ", "1 / 2",
              "+-1", "1/-2", "0x1", "inf", "1/2/3", "", "\u0663"]:
        text = json.dumps({**point, "t": [t, "1"]})
        code, out, err = run_stdin(capsys, monkeypatch, text)
        assert_rejected(code, out, err, text)
        assert "chart coordinate t" in err, (t, err)


def test_subspace_t_pairs_with_s_as_listed(capsys, monkeypatch):
    # t = 0 on {1} and t = 1 on {1,2}, listed in both orders: one point,
    # one basis, and the echo pairs each t with its member
    point = {"type": "A2", "I": [1, 2], "y": ["1", "1"]}
    outs = []
    for s, t in [([[1], [1, 2]], ["0", "1"]), ([[1, 2], [1]], ["1", "0"])]:
        code, out, err = run_stdin(capsys, monkeypatch,
                                   json.dumps({**point, "S": s, "t": t}))
        assert code == 0 and err == "", err
        outs.append(out)
    assert outs[0] == outs[1]
    data = json.loads(outs[1])
    assert data["input"]["S"] == [[1], [1, 2]]
    assert data["input"]["t"] == ["0", "1"]
    assert data["basis"] == [{"t(0,1)": "1"},
                             {"t(1,0)": "1", "t(1,1)": "1"}]


def test_subspace_rejects_s_that_is_not_maximal_nested(capsys, monkeypatch):
    # on A3 at y = (1, 1, 1) the base is the simple roots; each S below
    # lists one member per base root, and nestedness is decided before a
    # chart is built, so the message names S whether or not the members
    # pass the chart's one-missing-vertex rule or cover every root
    a3 = {"type": "A3", "I": [1, 2, 3], "y": ["1", "1", "1"],
          "t": ["2", "3", "1"]}
    a2 = {"type": "A2", "I": [1, 2], "y": ["1", "1"], "t": ["2", "1"]}
    cases = [
        ({**a3, "S": [[1], [2], [1, 2, 3]]}, "maximal nested"),  # adjacent
        ({**a3, "S": [[1], [1, 3], [1, 2, 3]]}, "maximal nested"),  # {1,3}
        ({**a3, "S": [[1, 2], [2, 3], [1, 2, 3]]}, "maximal nested"),
        ({**a3, "S": [[1], [3], [1, 3]]}, "maximal nested"),
        ({**a2, "S": [[1], [2]]}, "maximal nested"),
        ({**a2, "S": [[1, 1], [1, 2]]}, "vertex repeats"),
        ({**a2, "S": [[1], [1]]}, "member repeats"),
    ]
    for point, reason in cases:
        text = json.dumps(point)
        code, out, err = run_stdin(capsys, monkeypatch, text)
        assert_rejected(code, out, err, text)
        assert reason in err, (text, err)
    code, out, err = run_stdin(
        capsys, monkeypatch, json.dumps({**a3, "S": [[1], [3], [1, 2, 3]]}))
    assert code == 0 and json.loads(out)["dimension"] == 3, err


def test_subspace_stats_leave_stdout_and_exit_code_alone(capsys, monkeypatch):
    # generators: the tau-carrying Bethe vectors plus the chart family
    # (always the rank); basis_entries: the nonzero entries of the
    # reduced basis that stdout prints
    for point, generators, entries in [(VALID_POINTS[0], 2, 6),
                                       (VALID_POINTS[4], 2, 8),
                                       (VALID_POINTS[3], 2, 2)]:
        text = json.dumps(point)
        code, out, err = run_stdin(capsys, monkeypatch, text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code_s, out_s, err_s = run(capsys, "subspace", "-", "--stats")
        assert code == 0 and (code_s, out_s) == (code, out) and err == ""
        [line] = err_s.splitlines()
        stats = json.loads(line)
        assert (stats["generators"], stats["basis_entries"]) == \
            (generators, entries), point
        assert entries == sum(len(row) for row in json.loads(out)["basis"])
        assert list(stats["seconds"]) == ["build", "emit", "parse",
                                          "recover", "reduce"]
        assert all(isinstance(v, float) and v >= 0
                   for v in stats["seconds"].values())
    # a rejected point prints its one error line and no stats
    monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
    assert_rejected(*run(capsys, "subspace", "-", "--stats"), "[]")


def test_json_writer_matches_json_dumps():
    from trigbethe.cli import _write_json
    cases = [
        {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]], {"e": [{}]},
        (1, (2, 3), [4, (5,)]), {"t": ("x", ("y",))},
        True, False, None, [True, False, None], {"b": True, "n": None},
        0, -1, -(10 ** 40), 10 ** 40, [0, -7, 2 ** 64],
        "", "plain", "caf\u00e9", "\u03b6_12", "\U0001d54f", "quote\"back\\",
        "tab\tnew\nline\x00", {"\u00e9": "\u00e9", "a": "z^2"},
        {"b": 1, "a": 2, "B": 3, "_": [1, {"z": [], "y": {}}]},
        [1.5, -0.0, 1e300], {"k": 2.0},
    ]
    for obj in cases:
        out: list[str] = []
        _write_json(obj, "\n", out)
        assert "".join(out) == json.dumps(obj, indent=2, sort_keys=True), obj


@pytest.mark.parametrize("label", ["B4", "C4", "D4", "A4", "F4", "G2", "B5"])
def test_layer_gamma_certificate_matches_smith_form(label):
    # gamma is skipped as empty when the roots' Hermite form is the
    # layer's (saturated) basis; the Smith form decides every layer here
    from trigbethe.cli import _layer_facts
    from trigbethe.field import CyclotomicField, default_field_order
    from trigbethe.layers import enumerate_layers, gamma_divisors
    from trigbethe.roots import root_system
    rs = root_system(label)
    torsion = 0
    for layer in enumerate_layers(
            rs, CyclotomicField(default_field_order(rs.family))):
        gamma = gamma_divisors(layer.roots_pos, rs.rank)
        assert _layer_facts(layer, False)["gamma"] == gamma, layer
        torsion += bool(gamma)
    # non-empty gamma occurs, so the Smith branch is exercised
    assert torsion > 0 or label in ("A4", "G2")


def test_subspace_pairs_y_with_i_in_the_order_given(capsys, monkeypatch):
    # y[k] is the coordinate of I[k]: I = [2, 1] with y = [2, 3] is the
    # point e^{alpha_1} = 3, e^{alpha_2} = 2
    swapped = {"type": "A2", "I": [2, 1], "y": ["2", "3"], "S": [], "t": []}
    ordered = {"type": "A2", "I": [1, 2], "y": ["3", "2"], "S": [], "t": []}
    x = xpoint_from_dict(swapped)
    assert x.subset == (0, 1) and [str(v) for v in x.point] == ["3", "2"]
    assert x.signature() == xpoint_from_dict(ordered).signature()
    code, out, err = run_stdin(capsys, monkeypatch, json.dumps(swapped))
    assert code == 0 and err == ""
    assert (code, out, err) == run_stdin(capsys, monkeypatch,
                                         json.dumps(ordered))
    data = json.loads(out)
    assert data["input"]["I"] == [1, 2] and data["input"]["y"] == ["3", "2"]
    units = {tuple(u["root"]): u["value"] for u in data["recovered"]["units"]}
    assert units[(1, 0)] == "3" and units[(0, 1)] == "2"


def test_subspace_rejects_repeated_stratum_index(capsys, monkeypatch):
    for point in [{"type": "A2", "I": [1, 1], "y": ["2", "3"]},
                  {"type": "A3", "I": [3, 1, 3], "y": ["2", "3", "5"]}]:
        text = json.dumps(point)
        code, out, err = run_stdin(capsys, monkeypatch, text)
        assert_rejected(code, out, err, text)
        assert "repeat" in err


def _mutate(rng, point):
    """A copy of a valid point description made invalid in one random way."""
    point = json.loads(json.dumps(point))
    kind = rng.randrange(9)
    if kind == 0:
        return json.dumps(point)[:rng.randrange(1, len(json.dumps(point)))]
    if kind == 1:
        return json.dumps(rng.choice([[point], "A2", 7, None, True]))
    if kind == 2:
        point["y"] = "".join(point["y"]) or "1"
    elif kind == 3:
        bad = rng.choice([0.1, 2, None, True, ["1"], {"a": 1}])
        point["y"].insert(rng.randrange(len(point["y"]) + 1), bad)
    elif kind == 4:
        junk = rng.choice(["zz", "z junk", "2*", "", " ", "1 + + z", "1/0",
                           "z^", "*z", "2 z", "1 -", "--1", "0", "0*z",
                           "3 - 3", "z^2^3", "1/2/3", "z*2", "x"])
        if point["y"]:
            point["y"][rng.randrange(len(point["y"]))] = junk
        else:
            point["I"], point["y"] = [1], [junk]
    elif kind == 5:
        bad = rng.choice([0.1, 1, None, ["1"], "1/0", "one", "1e10000000",
                          "1e5000", "2.5", "1_000", " 3", "3 ", "-0x1"])
        point["t"].insert(rng.randrange(len(point["t"]) + 1), bad)
    elif kind == 6:
        key = rng.choice(["w", "I"])
        point[key] = point.get(key, []) + [rng.choice(["1", 1.0, True, None])]
    elif kind == 7:
        point[rng.choice(["type", "field_order"])] = rng.choice(
            [None, 6.0, "6", [6], {}])
    else:
        point[rng.choice(["y", "t", "S", "I", "w"])] = rng.choice(
            ["12", 12, {"1": 2}, [[1], "1"]])
    return json.dumps(point)


def test_subspace_mutation_fuzz(capsys, monkeypatch):
    import random
    rng = random.Random(20261018)
    for _ in range(300):
        text = _mutate(rng, rng.choice(VALID_POINTS))
        assert_rejected(*run_stdin(capsys, monkeypatch, text), text)


def test_type_independent_checks_state_coverage(capsys):
    for label in ["A2", "G2"]:
        data = run_json(capsys, "check", "all", "--type", label,
                        "--samples", "1")
        entries = {c["name"]: c for c in data["checks"]}
        for name in ["commutativity", "typea"]:
            assert entries[name]["type_independent"] is True
            assert entries[name]["n"] == [2, 3]
        for name in ["rank", "injectivity", "triangularity", "hecke", "weyl"]:
            assert "type_independent" not in entries[name]


def test_check_hecke_rank_one_is_vacuous(capsys):
    data = run_json(capsys, "check", "hecke", "--type", "A1")
    [hecke] = data["checks"]
    assert hecke["passed"] is True and hecke["pairs"] == 0
    assert hecke["coefficients"] == 0
    assert "vacuous" in hecke["detail"] and "not run" in hecke["detail"]


def test_check_hecke_ignores_seed_and_samples(capsys):
    base = run_json(capsys, "check", "hecke", "--type", "B3")["checks"]
    other = run_json(capsys, "check", "hecke", "--type", "B3", "--seed", "5",
                     "--samples", "1")["checks"]
    assert base == other
    [hecke] = base
    assert hecke["passed"] is True and hecke["exhaustive"] is True
    assert hecke["pairs"] == 3 and hecke["coefficients"] > 0


def test_check_entries_state_coverage(capsys):
    data = run_json(capsys, "check", "all", "--type", "B2", "--samples", "3")
    entries = {c["name"]: c for c in data["checks"]}
    for name in ["rank", "injectivity"]:
        assert entries[name]["exhaustive"] is False
        assert entries[name]["points"] > 0
    assert entries["rank"]["points"] == 3
    assert entries["triangularity"]["exhaustive"] is True
    assert entries["triangularity"]["charts"] == 2
    assert entries["hecke"]["exhaustive"] is True
    assert entries["hecke"]["pairs"] == 1
    assert entries["weyl"]["exhaustive"] is True


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    # one parser serves a whole sequence of requests, an argparse error
    # included: each gets the output, and the Namespace, of a parser built
    # fresh for it
    requests = [
        (["check", "all", "--type", "A2", "--samples", "2"], None),
        (["subspace", "-"], json.dumps(VALID_POINTS[2])),
        (["check", "mystery"], None),
        (["subspace", "-"], json.dumps(VALID_POINTS[4])),
    ]
    seen = []
    for name in ("_cmd_check", "_cmd_subspace"):
        def record(args, _cmd=getattr(cli, name)):
            seen.append(dict(vars(args)))
            return _cmd(args)
        monkeypatch.setattr(cli, name, record)

    def serve(argv, stdin):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert cli.build_parser() is cli.build_parser()
    shared = [serve(argv, stdin) for argv, stdin in requests]
    shared_args, seen[:] = list(seen), []
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    fresh = []
    for argv, stdin in requests:
        cli.build_parser.cache_clear()
        fresh.append(serve(argv, stdin))
    assert shared == fresh
    assert shared_args == seen and len(seen) == 3
    assert "seed" not in seen[1] and "what" not in seen[1]
