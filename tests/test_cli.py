import io
import json
import re

import numpy as np
import pytest

from limid import (
    InfluenceDiagram,
    Policy,
    Strategy,
    Variable,
    expected_utility,
    validate_diagram,
)
from limid.cli import (
    DocumentError,
    document_to_diagram,
    generate_diagram,
    main,
    parse,
    serialize,
)
from limid.treedecomp import TreeDecomposition

from conftest import pick_diagram, policy_cells_diagram, two_agent_diagram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- documents -----------------------------------------------------------------

def test_round_trip_identity():
    for seed in range(6):
        d = generate_diagram(3, 2, 3, 2, 2, seed)
        text = serialize(d)
        parsed, _ = parse(text)
        assert serialize(parsed) == text


def test_round_trip_two_agent_diagram():
    d = two_agent_diagram()
    parsed, _ = parse(serialize(d))
    assert parsed.arcs == d.arcs
    for var in d.cpts:
        assert np.array_equal(parsed.cpt(var), d.cpt(var))
    for var in d.rewards:
        assert np.array_equal(parsed.reward(var), d.reward(var))


def test_parent_order_is_respected():
    # same table flattened under both parent orders parses to equal arrays
    doc = json.loads(serialize(two_agent_diagram()))
    spec = doc["cpts"]["c2"]
    arr = np.asarray(spec["table"]).reshape((2, 2, 2), order="F")
    swapped = {"parents": [spec["parents"][1], spec["parents"][0]],
               "table": [float(x) for x in arr.transpose(0, 2, 1).ravel(order="F")]}
    doc["cpts"]["c2"] = swapped
    parsed, _ = document_to_diagram(doc)
    assert np.array_equal(parsed.cpt("c2"), two_agent_diagram().cpt("c2"))


def test_empty_variables_list_is_valid():
    parsed, _ = parse('{"variables": [], "arcs": [], "cpts": {}, "rewards": {}}')
    assert validate_diagram(parsed) == []


def test_parse_errors_name_the_variable():
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["table"] = [0.8, 0.2, 0.3]
    with pytest.raises(DocumentError) as err:
        document_to_diagram(doc)
    assert "'c'" in str(err.value)
    with pytest.raises(DocumentError):
        parse("{not json")


def test_parse_rejects_parent_mismatch():
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["parents"] = []
    doc["cpts"]["c"]["table"] = [0.8, 0.2]
    with pytest.raises(DocumentError) as err:
        document_to_diagram(doc)
    assert "arcs" in str(err.value)


def test_decomposition_block_round_trip():
    d = pick_diagram()
    from limid.treedecomp import build_decomposition
    t = build_decomposition(d)
    parsed, decomposition = parse(serialize(d, t))
    assert decomposition == t
    assert validate_diagram(parsed) == []


def test_numpy_integers_serialize_and_parse_back():
    d = InfluenceDiagram([Variable("x", "chance", np.int64(2)), Variable("v", "value")],
                         [("x", "v")], {"x": [0.5, 0.5]}, {"v": [0.0, 1.0]})
    t = TreeDecomposition([["x"], ["x"]], [(np.int64(0), np.int64(1))], root=np.int64(1))
    text = serialize(d, t)
    parsed, decomposition = parse(text)
    assert decomposition == t and serialize(parsed, decomposition) == text
    assert json.loads(text)["variables"][1] == {"id": "x", "kind": "chance", "cardinality": 2}


# -- generator ------------------------------------------------------------------

def test_generator_is_deterministic_and_valid():
    a = generate_diagram(4, 2, 3, 2, 2, 123)
    b = generate_diagram(4, 2, 3, 2, 2, 123)
    assert serialize(a) == serialize(b)
    assert validate_diagram(a) == []
    c = generate_diagram(4, 2, 3, 2, 2, 124)
    assert serialize(c) != serialize(a)


def test_generator_respects_bounds():
    d = generate_diagram(5, 3, 3, 2, 2, 7, decision_max_parents=1)
    assert len(d.chance_ids) == 5 and len(d.decision_ids) == 3 and len(d.value_ids) == 2
    for var in d.chance_ids + d.decision_ids:
        assert 2 <= d.cardinality(var) <= 3
        assert len(d.parents(var)) <= 2
    for dec in d.decision_ids:
        assert len(d.parents(dec)) <= 1
    for v in d.value_ids:
        assert 1 <= len(d.parents(v)) <= 2
        r = d.reward(v)
        assert np.all(r >= 0.0) and np.all(r <= 1.0)


# -- subcommands -------------------------------------------------------------------

def test_gen_validate_and_determinism(capsys, tmp_path):
    code, out1, _ = run(capsys, "gen", "--chance", "3", "--decisions", "2",
                        "--card", "3", "--max-parents", "2", "--values", "2",
                        "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--chance", "3", "--decisions", "2",
                        "--card", "3", "--max-parents", "2", "--values", "2",
                        "--seed", "7")
    assert out1 == out2
    path = write(tmp_path, "gen.json", out1)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_solve_exact_matches_oracle(capsys, tmp_path):
    path = write(tmp_path, "d.json", serialize(two_agent_diagram()))
    code, solve_out, _ = run(capsys, "solve", "--exact", path)
    assert code == 0
    code, oracle_out, _ = run(capsys, "oracle", path)
    assert code == 0
    solve_doc, oracle_doc = json.loads(solve_out), json.loads(oracle_out)
    assert solve_doc["value"] == pytest.approx(oracle_doc["value"], abs=1e-9)


def test_solve_with_an_epsilon_too_small_for_alpha_is_exact(capsys, tmp_path):
    # 1 + 1e-17 / (2m) rounds to 1.0: nothing can be pruned, and the exact
    # solve meets the (1 + epsilon) bound
    path = write(tmp_path, "d.json", serialize(generate_diagram(4, 2, 3, 2, 2, 99,
                                                                decision_max_parents=1)))
    code, tiny, err = run(capsys, "solve", "--epsilon", "1e-17", path)
    assert (code, err) == (0, "")
    code, exact, _ = run(capsys, "solve", "--exact", path)
    assert code == 0 and json.loads(tiny) == json.loads(exact)


def test_solve_epsilon_guarantee_and_pure_strategy(capsys, tmp_path):
    d = generate_diagram(4, 2, 3, 2, 2, 99, decision_max_parents=1)
    path = write(tmp_path, "d.json", serialize(d))
    code, out, _ = run(capsys, "solve", "--epsilon", "0.5", path)
    assert code == 0
    doc = json.loads(out)
    code, oracle_out, _ = run(capsys, "oracle", path)
    oracle = json.loads(oracle_out)["value"]
    assert oracle <= 1.5 * doc["value"] + 1e-9
    assert doc["value"] <= oracle + 1e-9
    # reported strategy is pure and reproduces the reported value
    policies = []
    for dec, spec in doc["strategy"].items():
        cards = (d.cardinality(dec),) + tuple(d.cardinality(p) for p in spec["parents"])
        table = np.asarray(spec["table"]).reshape(cards, order="F")
        assert set(np.unique(table)) <= {0.0, 1.0}
        policies.append(Policy(dec, tuple(spec["parents"]), table))
    assert expected_utility(d, Strategy(policies)) == pytest.approx(doc["value"], abs=1e-9)


def test_solve_stats_deterministic_output(capsys, tmp_path):
    path = write(tmp_path, "d.json", serialize(two_agent_diagram()))
    code, out1, _ = run(capsys, "solve", "--epsilon", "0.2", "--stats", path)
    code2, out2, _ = run(capsys, "solve", "--epsilon", "0.2", "--stats", path)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["m"] == len(doc["stats"])
    assert doc["alpha"] == pytest.approx(1 + 0.2 / (2 * doc["m"]), abs=1e-15)


def test_reduce_subcommand(capsys, tmp_path):
    path = write(tmp_path, "d.json", serialize(two_agent_diagram()))
    code, out, _ = run(capsys, "reduce", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["reduction"]["value_count"] == 2
    assert doc["reduction"]["utility_lower"] == 0.0
    assert doc["reduction"]["utility_upper"] == 1.0
    assert set(doc["reduction"]) == {"o_vars", "utility_lower", "utility_upper",
                                     "value_count"}
    reduced, decomposition = parse(json.dumps(doc))
    assert len(reduced.value_ids) == 1
    # the rewrite adds the chain and one value variable, nothing else
    original = two_agent_diagram()
    assert reduced.decision_ids == original.decision_ids
    assert set(reduced.chance_ids) == set(original.chance_ids) | set(doc["reduction"]["o_vars"])
    assert len(doc["reduction"]["o_vars"]) == 2
    assert decomposition is not None
    # the merged diagram has the same brute-force optimum
    code, oracle_out, _ = run(capsys, "oracle", path)
    reduced_path = write(tmp_path, "r.json", json.dumps(doc))
    code, reduced_oracle_out, _ = run(capsys, "oracle", reduced_path)
    assert json.loads(reduced_oracle_out)["value"] == pytest.approx(
        json.loads(oracle_out)["value"], abs=1e-9)


def test_validate_reports_violations(capsys, tmp_path):
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["table"] = [0.6, 0.3, 0.3, 0.7]
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert any("summing" in line for line in json.loads(out)["violations"])


def test_solve_rejects_invalid_document(capsys, tmp_path):
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["table"] = [0.6, 0.3, 0.3, 0.7]
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "solve", "--exact", path)
    assert code == 1
    assert "invalid diagram" in err


@pytest.mark.parametrize("command", ["reduce", "oracle"])
def test_reduce_and_oracle_reject_invalid_diagram(capsys, tmp_path, command):
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["table"] = [0.6, 0.3, 0.3, 0.7]
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert out == ""
    assert "invalid diagram" in err


@pytest.mark.parametrize("argv", [["solve", "--exact"], ["reduce"]])
def test_supplied_decomposition_without_edges_is_rejected(capsys, tmp_path, argv):
    from limid.treedecomp import build_decomposition
    d = two_agent_diagram()
    doc = json.loads(serialize(d, build_decomposition(d)))
    assert len(doc["decomposition"]["clusters"]) > 1
    doc["decomposition"]["edges"] = []
    path = write(tmp_path, "d.json", json.dumps(doc))
    code, out, err = run(capsys, *argv, path)
    assert code == 1
    assert out == ""
    assert "invalid decomposition" in err


def test_reduce_needs_a_value_variable(capsys, tmp_path):
    doc = {"variables": [{"id": "c", "kind": "chance", "cardinality": 2}], "arcs": [],
           "cpts": {"c": {"parents": [], "table": [0.5, 0.5]}}, "rewards": {}}
    path = write(tmp_path, "d.json", json.dumps(doc))
    code, out, err = run(capsys, "reduce", path)
    assert code == 1
    assert out == ""
    assert "value" in err


def test_reduce_accepts_supplied_decomposition(capsys, tmp_path):
    from limid.treedecomp import build_decomposition
    d = two_agent_diagram()
    bare = write(tmp_path, "bare.json", serialize(d))
    supplied = write(tmp_path, "supplied.json", serialize(d, build_decomposition(d)))
    code, out_supplied, _ = run(capsys, "reduce", supplied)
    assert code == 0
    code, out_bare, _ = run(capsys, "reduce", bare)
    assert code == 0
    assert out_supplied == out_bare


def test_usage_errors_exit_64(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    capsys.readouterr()
    path = write(tmp_path, "d.json", serialize(pick_diagram()))
    with pytest.raises(SystemExit) as exc:
        main(["solve", path])
    assert exc.value.code == 64
    capsys.readouterr()


def test_solve_rejects_both_exact_and_epsilon(capsys, tmp_path):
    path = write(tmp_path, "d.json", serialize(pick_diagram()))
    for argv in (["--exact", "--epsilon", "0.5"], ["--epsilon", "0.5", "--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *argv, path])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == "" and "--epsilon" in err and "--exact" in err


def test_oracle_resource_cap_exits_2(capsys, tmp_path):
    doc = {
        "variables": [{"id": f"c{i}", "kind": "chance", "cardinality": 2}
                      for i in range(4)]
        + [{"id": "d0", "kind": "decision", "cardinality": 3},
           {"id": "v0", "kind": "value"}],
        "arcs": [[f"c{i}", "d0"] for i in range(4)] + [["d0", "v0"]],
        "cpts": {f"c{i}": {"parents": [], "table": [0.5, 0.5]} for i in range(4)},
        "rewards": {"v0": {"parents": ["d0"], "table": [0.0, 0.5, 1.0]}},
    }
    path = write(tmp_path, "big.json", json.dumps(doc))
    code, _, err = run(capsys, "oracle", path)
    assert code == 2
    assert "instance too large" in err


def test_oracle_policy_cell_cap_exits_2(capsys, tmp_path):
    path = write(tmp_path, "cells.json", serialize(policy_cells_diagram()))
    assert run(capsys, "oracle", path) == (2, "", "limid: instance too large: "
                                                  "64000000 policy cells\n")


def test_solver_cap_env_override_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LIMID_MAX_SET_SIZE", "1")
    path = write(tmp_path, "d.json", serialize(pick_diagram()))
    code, _, err = run(capsys, "solve", "--exact", path)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_solver_cap_env_rejects_bad_values(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setenv("LIMID_MAX_SET_SIZE", value)
    path = write(tmp_path, "d.json", serialize(pick_diagram()))
    code, out, err = run(capsys, "solve", "--exact", path)
    assert code == 1
    assert out == ""
    assert "LIMID_MAX_SET_SIZE" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_non_finite_epsilon(capsys, tmp_path, value):
    path = write(tmp_path, "d.json", serialize(pick_diagram()))
    code, out, err = run(capsys, "solve", "--epsilon", value, path)
    assert code == 1
    assert out == ""
    assert "epsilon" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(pick_diagram())))
    code, out, _ = run(capsys, "oracle", "-")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.8, abs=1e-9)


@pytest.mark.parametrize("doc, field", [
    ({"variables": 5}, "variables"),
    ({"variables": [], "arcs": 5}, "arcs"),
    ({"variables": [], "arcs": [], "cpts": [1]}, "cpts"),
    ({"variables": [{"id": "c", "kind": "chance", "cardinality": [2]}]}, "cardinality"),
    ({"variables": [{"id": "c", "kind": "chance", "cardinality": 2}], "arcs": [],
      "cpts": {"c": {"parents": 5, "table": [0.5, 0.5]}}}, "parents"),
])
def test_malformed_fields_exit_1_with_one_message(capsys, tmp_path, doc, field):
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("limid: ") and err.count("\n") == 1
    assert repr(field) in err


@pytest.mark.parametrize("command", [["validate"], ["solve", "--exact"], ["reduce"], ["oracle"]])
def test_deeply_nested_json_exits_1_as_malformed(capsys, tmp_path, command):
    # nesting past the interpreter's recursion limit is a bad document, not a crash
    for text in ("[" * 100_000 + "]" * 100_000,
                 '{"variables": ' + "[" * 5_000 + "]" * 5_000 + "}"):
        code, out, err = run(capsys, *command, write(tmp_path, "deep.json", text))
        assert (code, out) == (1, "")
        assert err.startswith("limid: malformed JSON") and err.count("\n") == 1


def one_reward_document(cardinality=2, cpt=(0.5, 0.5), reward=(0.0, 1.0)) -> dict:
    return {"variables": [{"id": "c", "kind": "chance", "cardinality": cardinality},
                          {"id": "v", "kind": "value"}],
            "arcs": [["c", "v"]],
            "cpts": {"c": {"parents": [], "table": list(cpt)}},
            "rewards": {"v": {"parents": ["c"], "table": list(reward)}}}


@pytest.mark.parametrize("doc, where", [
    (one_reward_document(cardinality=2.7), "'cardinality' of 'c'"),
    (one_reward_document(cardinality=True), "'cardinality' of 'c'"),
    (one_reward_document(cardinality="abc"), "'cardinality' of 'c'"),
    (one_reward_document(cardinality="2"), "'cardinality' of 'c'"),
    (one_reward_document(cpt=("x", 0.5)), "cpt table of 'c'"),
    (one_reward_document(reward=(0.0, "x")), "reward table of 'v'"),
    (one_reward_document(reward=([0.0], 1.0)), "reward table of 'v'"),
])
def test_bad_numbers_name_the_variable_and_field(capsys, tmp_path, doc, where):
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"limid: {where} ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["solve", "--exact"], ["reduce"], ["oracle"]])
@pytest.mark.parametrize("doc, where", [
    (one_reward_document(reward=(0, 10**400)), "reward table of 'v'"),
    (one_reward_document(cpt=(10**400, 0)), "cpt table of 'c'"),
], ids=["reward", "cpt"])
def test_an_integer_too_large_for_a_float_names_the_table(capsys, tmp_path, command, doc, where):
    path = write(tmp_path, "big.json", json.dumps(doc))
    code, out, err = run(capsys, *command, path)
    assert code == 1
    assert out == ""
    assert err == f"limid: {where} holds a number too large\n"


def constant_rewards_document(*rewards) -> dict:
    values = [f"v{i}" for i in range(len(rewards))]
    return {"variables": [{"id": "c", "kind": "chance", "cardinality": 2}]
                         + [{"id": v, "kind": "value"} for v in values],
            "arcs": [["c", v] for v in values],
            "cpts": {"c": {"parents": [], "table": [0.5, 0.5]}},
            "rewards": {v: {"parents": ["c"], "table": [r, r]} for v, r in zip(values, rewards)}}


@pytest.mark.parametrize("rewards", [(1e17,), (1e17, 1e17)])
@pytest.mark.parametrize("argv", [["--exact"], ["--epsilon", "0.5"]])
def test_constant_rewards_past_two_to_the_53_solve_to_the_oracle(capsys, tmp_path, rewards,
                                                                 argv):
    # there lo + 1 rounds back to lo, so the rescale must widen by one ulp
    path = write(tmp_path, "big.json", json.dumps(constant_rewards_document(*rewards)))
    code, out, err = run(capsys, "solve", *argv, path)
    assert (code, err) == (0, "")
    code, oracle_out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert json.loads(out)["value"] == json.loads(oracle_out)["value"] == sum(rewards)


@pytest.mark.parametrize("argv", [["--exact"], ["--epsilon", "0.5"]])
def test_rewards_wider_than_a_float_solve_to_the_oracle_and_reduce(capsys, tmp_path, argv):
    # hi - lo overflows a float; the rescale runs in units of two
    path = write(tmp_path, "wide.json", json.dumps(one_reward_document(reward=(1e308, -1e308))))
    code, out, err = run(capsys, "solve", *argv, path)
    assert (code, err) == (0, "")
    code, oracle_out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert json.loads(out)["value"] == json.loads(oracle_out)["value"] == 0.0
    code, out, err = run(capsys, "reduce", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["reduction"]["utility_upper"] == 1e308


@pytest.mark.parametrize("command", [["solve", "--exact"], ["solve", "--epsilon", "0.5"],
                                     ["reduce"]])
def test_rewards_too_wide_to_rescale_exit_1_naming_their_range(capsys, tmp_path, command):
    # each bound fits, but the merged reward table holds two rewards' sum 2 * hi
    doc = constant_rewards_document(0.0, 0.0)
    doc["rewards"]["v0"]["table"] = [1e308, 0.0]
    path = write(tmp_path, "wide.json", json.dumps(doc))
    code, out, err = run(capsys, *command, path)
    assert (code, out) == (1, "")
    assert err == "limid: rewards span [0.0, 1e+308]: rescaling them overflows a float\n"


@pytest.mark.parametrize("command", [["validate"], ["oracle"], ["solve", "--exact"]])
def test_a_nan_cpt_entry_is_a_violation_naming_the_variable(capsys, tmp_path, command):
    doc = json.loads(serialize(pick_diagram()))
    doc["cpts"]["c"]["table"] = [float("nan"), 0.2, 0.3, 0.7]
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, *command, path)
    assert code == 1
    assert "cpt of 'c' has entries outside [0, 1]" in (out if command == ["validate"] else err)


def decomposed_document(**changes) -> dict:
    """``pick_diagram`` with a two-node decomposition, ``changes`` applied to its block."""
    doc = json.loads(serialize(pick_diagram()))
    doc["decomposition"] = {"clusters": [["c", "d"], ["c"]], "edges": [[0, 1]], "root": 0}
    doc["decomposition"].update(changes)
    return doc


def nested_table_document() -> dict:
    doc = decomposed_document()
    doc["cpts"]["c"]["table"] = [[0.8, 0.2], [0.3, 0.7]]
    return doc


@pytest.mark.parametrize("doc, where", [
    (decomposed_document(clusters=["cd"]), "each of 'clusters'"),
    (decomposed_document(root=0.7), "'root'"),
    (decomposed_document(root=True), "'root'"),
    (decomposed_document(edges=[[0.9, 1]]), "a node id in 'edges'"),
    (nested_table_document(), "cpt table of 'c'"),
], ids=["cluster-string", "fractional-root", "boolean-root", "fractional-edge", "nested-table"])
def test_loose_document_values_are_rejected_naming_the_field(capsys, tmp_path, doc, where):
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "solve", "--exact", path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"limid: {where} ") and err.count("\n") == 1


def value_parent_document() -> dict:
    doc = one_reward_document()
    doc["variables"].append({"id": "w", "kind": "value"})
    doc["rewards"]["v"]["parents"] = ["w"]
    return doc


@pytest.mark.parametrize("doc, message", [
    ([], "document must be a JSON object"),
    ({**one_reward_document(), "variables": [{"id": "c"}]},
     "every variable needs 'id' and 'kind'"),
    ({**one_reward_document(),
      "variables": [{"id": "c", "kind": "chance", "cardinality": 2}] * 2},
     "duplicate variable ids"),
    ({**one_reward_document(), "arcs": [["c"]]}, "arcs must be [from, to] pairs, got ['c']"),
    ({**one_reward_document(), "arcs": [["c", "v"], ["c", "z"]]},
     "arc ('c', 'z') references an unknown variable"),
    ({**one_reward_document(), "cpts": {"c": {"parents": []}}},
     "table for 'c' needs 'parents' and 'table' keys"),
    ({**one_reward_document(), "rewards": {"v": {"parents": ["c", "c"], "table": [0.0] * 4}}},
     "table for 'v' declares parents ['c', 'c'], arcs give ['c']"),
    ({**one_reward_document(), "rewards": {"v": {"parents": ["z"], "table": [0.0]}}},
     "table for 'v' declares parents ['z'], arcs give ['c']"),
    (value_parent_document(), "table for 'v' declares parents ['w'], arcs give ['c']"),
    ({**one_reward_document(), "cpts": {"z": {"parents": [], "table": [1.0]}}},
     "cpt for unknown variable 'z'"),
    ({**one_reward_document(), "cpts": {"v": {"parents": [], "table": [1.0]}}},
     "cpt given for value variable 'v'"),
    ({**one_reward_document(), "rewards": {"z": {"parents": [], "table": [1.0]}}},
     "reward table for unknown variable 'z'"),
    ({**decomposed_document(), "decomposition": {"edges": []}},
     "decomposition needs a 'clusters' key"),
    (decomposed_document(edges=[[0]]), "'edges' must hold [i, j] pairs, got [0]"),
    (decomposed_document(edges=[[0, 5]]), "bad decomposition: bad edge (0, 5)"),
    (decomposed_document(root=5), "bad decomposition: unknown node id 5"),
    # an arc fault is named before a table is compared with the arcs
    ({**one_reward_document(), "arcs": [["c", "v"], ["c", "z"]],
      "rewards": {"v": {"parents": [], "table": [0.0]}}},
     "arc ('c', 'z') references an unknown variable"),
], ids=["not-an-object", "no-kind", "duplicate-id", "short-arc", "unknown-arc-end",
        "no-table-key", "twice-listed-parent", "unknown-parent", "value-parent",
        "unknown-cpt", "value-cpt", "unknown-reward", "no-clusters", "short-edge",
        "edge-out-of-range", "root-out-of-range", "unknown-arc-end-before-table"])
def test_each_document_fault_is_refused_with_its_message(doc, message):
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        document_to_diagram(doc)


@pytest.mark.parametrize("listed", [[], ["a"]], ids=["table-without-a", "table-with-a"])
def test_a_self_arc_is_refused_whatever_the_table_lists(capsys, tmp_path, listed):
    # the arc itself is the fault, named before the table is compared with the arcs
    doc = {"variables": [{"id": "a", "kind": "chance", "cardinality": 2}],
           "arcs": [["a", "a"]],
           "cpts": {"a": {"parents": listed, "table": [0.5] * 2 ** (1 + len(listed))}}}
    code, out, err = run(capsys, "validate", write(tmp_path, "self.json", json.dumps(doc)))
    assert (code, out, err) == (1, "", "limid: self-arc on 'a'\n")


def test_a_repeated_arc_counts_once(capsys, tmp_path):
    # the diagram keeps one copy of an arc, and the table check counts it once
    once = {"variables": [{"id": "c", "kind": "chance", "cardinality": 2},
                          {"id": "d", "kind": "decision", "cardinality": 2},
                          {"id": "v", "kind": "value"}],
            "arcs": [["c", "d"], ["c", "v"], ["d", "v"]],
            "cpts": {"c": {"parents": [], "table": [0.3, 0.7]}},
            "rewards": {"v": {"parents": ["c", "d"], "table": [1.0, 0.0, 0.0, 2.0]}}}
    twice = {**once, "arcs": once["arcs"] + [["c", "v"]]}
    path = write(tmp_path, "twice.json", json.dumps(twice))
    assert run(capsys, "validate", path) == (0, '{\n  "violations": []\n}\n', "")
    code, out, err = run(capsys, "solve", "--exact", path)
    assert (code, err) == (0, "")
    assert out == run(capsys, "solve", "--exact", write(tmp_path, "once.json", json.dumps(once)))[1]
    assert json.loads(serialize(*parse(json.dumps(twice))))["arcs"] == once["arcs"]


@pytest.mark.parametrize("card, counts, message", [
    (1, (1, 1, 1, 1, 0), "card must be at least 2"),
    (2, (-1, 1, 1, 1, 0), "counts must be nonnegative"),
    (2, (1, 1, 1, -1, 0), "counts must be nonnegative"),
    (2, (1, 1, 1, 1, -1), "seed must be nonnegative"),
])
def test_generator_arguments_are_checked(card, counts, message):
    n_chance, n_decisions, max_parents, n_values, seed = counts
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_diagram(n_chance, n_decisions, card, max_parents, n_values, seed)


def labelled_document(states) -> dict:
    doc = one_reward_document()
    doc["variables"][0]["states"] = states
    return doc


@pytest.mark.parametrize("command", [["validate"], ["solve", "--exact"], ["reduce"]])
@pytest.mark.parametrize("states", [[1, {"a": 2}], ["lo", 2], [["lo"], "hi"], "lohi", {"lo": 0}])
def test_state_labels_must_be_an_array_of_strings(capsys, tmp_path, command, states):
    path = write(tmp_path, "bad.json", json.dumps(labelled_document(states)))
    code, out, err = run(capsys, *command, path)
    assert (code, out) == (1, "")
    assert err == "limid: 'states' of 'c' must be a JSON array of strings\n"


def test_a_value_variable_takes_no_state_labels(capsys, tmp_path):
    doc = one_reward_document()
    doc["variables"][1]["states"] = ["lo", "hi"]
    code, out, err = run(capsys, "validate", write(tmp_path, "bad.json", json.dumps(doc)))
    assert (code, out) == (1, "")
    assert err == "limid: value variable 'v' must not carry a cardinality or state labels\n"


def test_string_state_labels_are_kept(capsys, tmp_path):
    path = write(tmp_path, "ok.json", json.dumps(labelled_document(["lo", "hi"])))
    code, out, _ = run(capsys, "reduce", path)
    assert code == 0
    assert {"id": "c", "kind": "chance", "cardinality": 2, "states": ["lo", "hi"]} in \
        json.loads(out)["variables"]


def test_integral_float_node_ids_are_accepted(capsys, tmp_path):
    doc = decomposed_document(edges=[[0.0, 1.0]], root=1.0)
    path = write(tmp_path, "ok.json", json.dumps(doc))
    code, out, _ = run(capsys, "solve", "--exact", path)
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.8, abs=1e-9)


def test_integral_float_cardinality_is_accepted(capsys, tmp_path):
    path = write(tmp_path, "ok.json", json.dumps(one_reward_document(cardinality=2.0)))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and json.loads(out) == {"violations": []}


def chain_document(n: int) -> tuple[dict, float]:
    """A chain of ``n`` binary chance variables, one decision and one reward
    on the last link and the decision, with its path decomposition; and the
    chain's MEU by the forward product."""
    names = [f"x{k:04d}" for k in range(n)]
    cpts = {names[0]: {"parents": [], "table": [0.3, 0.7]}}
    p = 0.7  # P(x = 1) along the chain
    for k in range(1, n):
        on, off = (0.9, 0.2) if k % 2 else (0.6, 0.5)  # P(1 | parent 1), P(1 | parent 0)
        # flat tables list the first axis fastest: child given parent 0, then given 1
        cpts[names[k]] = {"parents": [names[k - 1]], "table": [1 - off, off, 1 - on, on]}
        p = p * on + (1 - p) * off
    doc = {"variables": [{"id": x, "kind": "chance", "cardinality": 2} for x in names]
                        + [{"id": "d", "kind": "decision", "cardinality": 2},
                           {"id": "v", "kind": "value"}],
           "arcs": [[a, b] for a, b in zip(names, names[1:])] + [[names[-1], "v"], ["d", "v"]],
           "cpts": cpts,
           # 1 for guessing the last link "on", 0.5 for guessing "off"
           "rewards": {"v": {"parents": [names[-1], "d"], "table": [0.5, 0.0, 0.0, 1.0]}},
           # supplied, because min-fill alone takes seconds on a chain this long
           "decomposition": {
               "clusters": [[a, b] for a, b in zip(names, names[1:])] + [[names[-1], "d"]],
               "edges": [[k, k + 1] for k in range(n - 1)]}}
    return doc, max(p, 0.5 * (1 - p))


def test_a_deep_chain_solves_and_reduces(capsys, tmp_path):
    doc, meu = chain_document(1500)
    path = write(tmp_path, "chain.json", json.dumps(doc))
    code, out, _ = run(capsys, "solve", "--exact", path)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(meu, abs=1e-9)
    code, out, _ = run(capsys, "reduce", path)
    assert code == 0 and json.loads(out)["reduction"]["value_count"] == 1


def sighted_document(clusters, edges) -> dict:
    """``d`` sees ``n`` and ``x`` but only ``x`` bears on its reward, and ``b``
    bears on nothing, so solving drops ``n`` and ``b``; with a decomposition."""
    return {"variables": [{"id": x, "kind": "chance", "cardinality": 2} for x in "bnx"]
                         + [{"id": "d", "kind": "decision", "cardinality": 2},
                            {"id": "v", "kind": "value"}],
            "arcs": [["n", "d"], ["x", "d"], ["d", "v"], ["x", "v"]],
            "cpts": {"b": {"parents": [], "table": [0.5, 0.5]},
                     "n": {"parents": [], "table": [0.5, 0.5]},
                     "x": {"parents": [], "table": [0.25, 0.75]}},
            # 1 for d = x = 0, 0.5 for d = x = 1
            "rewards": {"v": {"parents": ["d", "x"], "table": [1.0, 0.0, 0.0, 0.5]}},
            "decomposition": {"clusters": clusters, "edges": edges}}


@pytest.mark.parametrize("rewards", [{}, {"v": {"parents": ["x"], "table": [0.0, 1.0]}}])
def test_a_bad_decomposition_is_refused_with_or_without_a_reward(capsys, tmp_path, rewards):
    # two nodes and no edge, a stray zz, and no cluster holds d's family {d, x}
    doc = {"variables": [{"id": "x", "kind": "chance", "cardinality": 2},
                         {"id": "d", "kind": "decision", "cardinality": 2}]
                        + [{"id": v, "kind": "value"} for v in rewards],
           "arcs": [["x", "d"]] + [["x", v] for v in rewards],
           "cpts": {"x": {"parents": [], "table": [0.5, 0.5]}}, "rewards": rewards,
           "decomposition": {"clusters": [["x"], ["x", "zz"]], "edges": []}}
    path = write(tmp_path, "bad.json", json.dumps(doc))
    code, out, err = run(capsys, "solve", "--exact", path)
    assert code == 1 and out == ""
    assert err == ("limid: invalid decomposition: decomposition edges do not form a tree; "
                   "cluster 1 contains 'zz', which is not a chance or decision variable of "
                   "the diagram; family of 'd' not covered by any cluster\n")


def test_a_supplied_decomposition_naming_dropped_variables_solves(capsys, tmp_path):
    # restricted to the kept variables, the clusters ["n"] and ["b"] are empty
    doc = sighted_document([["d", "n", "x"], ["n"], ["b"]], [[0, 1], [1, 2]])
    path = write(tmp_path, "sighted.json", json.dumps(doc))
    for argv in (["--exact"], ["--epsilon", "0.5"]):
        code, out, _ = run(capsys, "solve", *argv, path)
        assert code == 0
        got = json.loads(out)
        assert got["value"] == pytest.approx(0.625, abs=1e-12)
        # over the original parents, constant along n: d follows x
        assert got["strategy"] == {"d": {"parents": ["n", "x"],
                                         "table": [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]}}


def test_a_supplied_decomposition_loses_the_nodes_it_leaves_empty(capsys, tmp_path):
    # ["n"] and ["b"] hold no kept variable: only ["d", "x"] stays, and as the
    # value leaf it takes the reduction's _o1; m is 1, alpha 1 + 0.5 / 2
    doc = sighted_document([["d", "n", "x"], ["n"], ["b"]], [[0, 1], [1, 2]])
    path = write(tmp_path, "sighted.json", json.dumps(doc))
    code, out, _ = run(capsys, "solve", "--epsilon", "0.5", "--stats", path)
    assert code == 0
    got = json.loads(out)
    assert (got["m"], got["alpha"]) == (1, 1.25)
    assert [s["cluster"] for s in got["stats"]] == [["_o1", "d", "x"]]
    assert got["value"] == pytest.approx(0.625, abs=1e-12)
    assert got["strategy"]["d"]["table"] == [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]


def test_a_supplied_decomposition_is_checked_against_the_original_diagram(capsys, tmp_path):
    # no cluster holds b, which solving drops: the document is still refused
    doc = sighted_document([["d", "n", "x"]], [])
    path = write(tmp_path, "sighted.json", json.dumps(doc))
    code, out, err = run(capsys, "solve", "--exact", path)
    assert code == 1 and out == ""
    assert err == "limid: invalid decomposition: family of 'b' not covered by any cluster\n"
