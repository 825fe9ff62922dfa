import json
import math
import warnings

import numpy as np
import pytest

import umbellab as U
from umbellab.cli import _HANDLERS, SCHEMA, build_parser, main, parse_args


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_invariant_subcommand(capsys):
    code, out = run(capsys, "invariant", "--tree", "bin:h=4",
                    "--invariant", "fork-cotype", "--p", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == SCHEMA
    assert obj["lhs"] == pytest.approx(2.0)
    assert obj["ratio_root"] == pytest.approx(2.0)


def test_invariant_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(capsys, "invariant", "--tree", "inc:h=4,b=6",
                  "--invariant", "umbel-cotype", "--p", "2",
                  "--out", str(target))
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["ratio_root"] == pytest.approx(2.0)


def test_certify_holds_exit_zero(capsys):
    code, out = run(capsys, "certify", "--space", "l2:dim=3",
                    "--inequality", "tripod", "--q", "2", "--K", "1",
                    "--samples", "500", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == 0


def test_certify_violated_exit_one(capsys):
    # K large enough that the separation term cannot be hidden, on a graph
    # containing star configurations
    code, out = run(capsys, "certify", "--space", "l2:dim=3",
                    "--inequality", "midpoint-curvature",
                    "--samples", "400", "--seed", "1")
    assert code in (0, 1)
    obj = json.loads(out)
    assert (code == 1) == (obj["violations"] > 0)


def test_embed_writes_csv(tmp_path, capsys):
    csv = tmp_path / "moduli.csv"
    code, out = run(capsys, "embed", "--tree", "inc:h=4,b=6", "--p", "2",
                    "--csv", str(csv))
    assert code == 0
    obj = json.loads(out)
    assert obj["distortion"] >= 1.0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,rho,omega"
    assert len(lines) > 1


def test_embed_p1_requires_l1_variant(capsys):
    code = main(["embed", "--tree", "inc:h=4,b=6", "--p", "1"])
    capsys.readouterr()
    assert code == 2
    code = main(["embed", "--tree", "inc:h=4,b=6", "--p", "1",
                 "--variant", "l1"])
    capsys.readouterr()
    assert code == 0


def test_search_exhaustive_and_jsonl_out(tmp_path, capsys):
    mat = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"n": 3, "d": mat.tolist()}))
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"pins": [[[], 0]]}))
    out = tmp_path / "results.jsonl"
    for mode in ("exhaustive", "local"):
        code, _ = run(capsys, "search", "--tree", "bin:h=2",
                      "--invariant", "markov-directed", "--p", "2",
                      "--target-file", str(target), "--pins-file", str(pins),
                      "--mode", mode, "--out", str(out))
        assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["schema"] == SCHEMA
        assert obj["best_ratio"] == pytest.approx(2.0)


def test_search_budget_exit_three(tmp_path, capsys):
    mat = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"n": 4, "d": mat.tolist()}))
    code = main(["search", "--tree", "bin:h=4", "--invariant", "fork-cotype",
                 "--p", "2", "--target-file", str(target),
                 "--mode", "exhaustive", "--budget", "1000"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("option", ["--restarts", "--steps"])
def test_search_negative_counts_exit_two(tmp_path, capsys, option):
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    code, out, err = run_strict(capsys, "search", "--tree", "bin:h=2",
                                "--invariant", "markov-directed", "--p", "2",
                                "--target-file", str(target), "--mode", "local",
                                option, "-1")
    assert code == 2 and out == ""
    assert "restarts and steps must be >= 0" in err["error"]


def test_exponent_past_the_scale_range_exit_two(tmp_path, capsys):
    # 2^(s p) overflows at s = 1: the error names the exponent
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    for argv in (["invariant", "--tree", "bin:h=4", "--invariant",
                  "fork-convexity", "--p", "1500"],
                 ["search", "--tree", "bin:h=4", "--invariant", "fork-convexity",
                  "--p", "1500", "--target-file", str(target),
                  "--mode", "local", "--restarts", "0", "--steps", "0"]):
        code, out, err = run_strict(capsys, *argv)
        assert code == 2 and out == ""
        assert "p = 1500.0 is too large" in err["error"]


def test_lift_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (10, 2))
    from scipy.spatial.distance import cdist
    d = cdist(pts, pts)
    oracle = {"domain": {"d": d.tolist()}, "target": {"d": d.tolist()},
              "values": list(range(10)), "C": 2.0, "K": 0.0}
    oracle_file = tmp_path / "oracle.json"
    oracle_file.write_text(json.dumps(oracle))
    spec = U.parse_tree_spec("bin:h=2")
    assign = {v: int(rng.integers(0, 10)) for v in U.vertices(spec)}
    g = U.TreeMap(spec, U.FiniteMatrixSpace(d), assign)
    map_file = tmp_path / "map.json"
    map_file.write_text(g.to_json())
    code, out = run(capsys, "lift", "--map-file", str(map_file),
                    "--oracle-file", str(oracle_file))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_morphism_subcommand(capsys):
    code, out = run(capsys, "morphism", "--k", "3", "--j-const", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["property_star"] is True
    code, out = run(capsys, "morphism", "--k", "3", "--j-max", "8",
                    "--seed", "4")
    assert code == 0


def test_heisenberg_subcommand(capsys):
    code, out = run(capsys, "heisenberg", "--dim", "2", "--p", "inf",
                    "--lam", "1", "--samples", "500", "--seed", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["quasi_constant_estimate"] <= 2.0


def test_validation_exit_two(capsys):
    assert main(["invariant", "--tree", "bogus", "--invariant",
                 "fork-cotype", "--p", "2"]) == 2
    capsys.readouterr()
    assert main(["invariant", "--tree", "bin:h=4", "--invariant",
                 "no-such-invariant", "--p", "2"]) == 2
    capsys.readouterr()
    assert main(["certify", "--space", "l2:dim=3", "--inequality",
                 "tripod"]) == 2  # missing --samples
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_infeasible_search_is_strict_json(tmp_path, capsys):
    # an all-zero target makes every rhs zero: no feasible assignment
    target = tmp_path / "zero.json"
    target.write_text(json.dumps({"n": 2, "d": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run(capsys, "search", "--tree", "bin:h=2",
                    "--invariant", "markov-directed", "--p", "2",
                    "--target-file", str(target), "--mode", "exhaustive")
    assert code == 0
    obj = json.loads(out, parse_constant=_reject_constant)
    assert obj["feasible"] is False
    assert obj["best_ratio"] is None


@pytest.mark.parametrize("space,inequality", [
    ("l2:dim=2", "parallelogram"),       # needs a Heisenberg group
    ("prod:q=2;l2:dim=2", "tripod"),      # product exponent misspelt
    ("prod:p=2;l2:dim=2", "p-uniform-convexity"),  # needs an lp space
])
def test_certify_bad_input_exit_two(capsys, space, inequality):
    code = main(["certify", "--space", space, "--inequality", inequality,
                 "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err, parse_constant=_reject_constant)
    assert err["schema"] == SCHEMA and err["error"]


@pytest.mark.parametrize("d,message", [
    (1e308, "overflow"),         # d ** q overflows in the tripod kernel
    (math.inf, "finite"),        # rejected when the space is read
])
def test_certify_bad_matrix_exit_two(tmp_path, capsys, d, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "d": [[0.0, d], [d, 0.0]]}))
    code = main(["certify", "--space", f"matrix:file={path}",
                 "--inequality", "tripod", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err, parse_constant=_reject_constant)
    assert message in err["error"]


def test_slack_belongs_to_certify(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 4, "d": [
        [0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
        [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]}))
    # the star's worst tripod margin is -0.25: a slack of 0.3 absorbs it
    argv = ["certify", "--space", f"matrix:file={path}", "--inequality",
            "tripod", "--samples", "500", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 1 and json.loads(out)["worst_margin"] == -0.25
    code, out = run(capsys, *argv, "--slack", "0.3")
    assert code == 0
    assert json.loads(out)["config"]["slack"] == 0.3
    for extra in (["--slack", "0.1"], ["--threads", "2"]):
        assert main(["invariant", "--tree", "bin:h=2", "--invariant",
                     "fork-cotype", "--p", "2", *extra]) == 2
        capsys.readouterr()


def test_certify_large_xs_count(capsys):
    code, out = run(capsys, "certify", "--space", "l2:dim=3", "--inequality",
                    "relaxed-p-umbel", "--K", "4", "--xs-count", "100",
                    "--samples", "300", "--seed", "2")
    obj = json.loads(out)
    assert (code == 1) == (obj["violations"] > 0)
    assert len(obj["worst_witness"][2]) == 100


def run_strict(capsys, *argv):
    """Exit code, stdout and the stderr JSON error of a run in which any
    warning is an error."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    err = json.loads(captured.err, parse_constant=_reject_constant) \
        if captured.err else None
    return code, captured.out, err


@pytest.mark.parametrize("p", ["nan", "inf", "-1", "0"])
def test_invariant_bad_exponent_exit_two(capsys, p):
    code, out, err = run_strict(capsys, "invariant", "--tree", "bin:h=4",
                                "--invariant", "fork-cotype", "--p", p)
    assert code == 2 and out == ""
    assert "exponent" in err["error"]


def test_certify_infinite_exponent_exit_two(capsys):
    code, out, err = run_strict(capsys, "certify", "--space", "l2:dim=2",
                                "--inequality", "tripod", "--q", "inf",
                                "--samples", "10")
    assert code == 2 and out == ""
    assert "exponent" in err["error"]


def test_certify_nan_lp_exponent_exit_two(capsys):
    code, out, err = run_strict(capsys, "certify", "--space",
                                "lp:p=nan,dim=2", "--inequality", "tripod",
                                "--samples", "10")
    assert code == 2 and out == ""
    assert "p must be" in err["error"]


@pytest.mark.parametrize("option", ["--K", "--C", "--slack"])
def test_certify_non_finite_constants_exit_two(capsys, option):
    for value in ("nan", "inf"):
        code, out, err = run_strict(capsys, "certify", "--space", "l2:dim=2",
                                    "--inequality", "tripod", option, value,
                                    "--samples", "10")
        assert code == 2 and out == ""
        assert "finite" in err["error"]


def test_invariant_document_lipschitz_flag(capsys):
    for inv, flag in (("umbel-cotype", False), ("umbel-convexity", None)):
        code, out, _ = run_strict(capsys, "invariant", "--tree", "inc:h=4,b=6",
                                  "--invariant", inv, "--p", "2")
        assert code == 0
        assert json.loads(out)["lipschitz_flag"] is flag


def test_search_document_counts_evaluations(tmp_path, capsys):
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"pins": [[[], 0]]}))
    common = ["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
              "--p", "2", "--target-file", str(target),
              "--pins-file", str(pins)]
    code, out, _ = run_strict(capsys, *common, "--mode", "exhaustive")
    obj = json.loads(out)
    assert code == 0
    assert obj["evaluations"] == 3 ** 6
    assert 0 < obj["feasible_evaluations"] < obj["evaluations"]
    code, out, _ = run_strict(capsys, *common, "--mode", "local",
                              "--restarts", "2", "--steps", "3")
    obj = json.loads(out)
    assert code == 0
    assert 0 < obj["feasible_evaluations"] <= obj["evaluations"]


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--p", "nan", "--samples", "100"],
    ["heisenberg", "--p", "0", "--samples", "100"],
    ["heisenberg", "--p", "2", "--lam", "nan", "--samples", "100"],
    ["heisenberg", "--p", "2", "--lam", "-1", "--samples", "100"],
    ["certify", "--space", "heis:dim=2,p=nan", "--inequality", "tripod",
     "--samples", "10"],
    ["certify", "--space", "heis:dim=2,p=2,lambda=nan", "--inequality",
     "parallelogram", "--samples", "10"],
])
def test_heisenberg_bad_parameters_exit_two(capsys, argv):
    code, out, err = run_strict(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be" in err["error"] and "JSON" not in err["error"]


@pytest.mark.parametrize("argv,field", [
    (["certify", "--space", "heis:dim=2,p=2,lam=3", "--inequality",
      "parallelogram", "--samples", "10"], "'lam=3'"),
    (["certify", "--space", "l2:dim=3,p=1", "--inequality", "tripod",
      "--samples", "10"], "'p=1'"),
    (["certify", "--space", "l2:dim", "--inequality", "tripod",
      "--samples", "10"], "'dim'"),
    (["certify", "--space", "prod:p=2,dim=2;l2:dim=2", "--inequality", "tripod",
      "--samples", "10"], "'dim=2'"),
    (["certify", "--space", "lp:p=2,dim=2,p=3", "--inequality", "tripod",
      "--samples", "10"], "'p=3'"),
    (["invariant", "--tree", "bin:h=2,h=3", "--invariant", "fork-cotype",
      "--p", "2"], "'h=3'"),
    (["invariant", "--tree", "bin:h=4,b=3", "--invariant", "fork-cotype",
      "--p", "2"], "'b=3'"),
    (["embed", "--tree", "inc:h=2,b=4,c=1", "--p", "2"], "'c=1'"),
], ids=["heis-lam", "l2-p", "l2-no-value", "prod-dim", "lp-repeat", "bin-repeat",
        "bin-b", "inc-c"])
def test_descriptor_unknown_or_repeated_key_exit_two(capsys, argv, field):
    code, out, err = run_strict(capsys, *argv)
    assert code == 2 and out == ""
    assert f"bad field {field}" in err["error"]


def _search_with_pins(tmp_path, capsys, pins):
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    return run_strict(capsys, "search", "--tree", "bin:h=2", "--invariant",
                      "markov-directed", "--p", "2", "--target-file",
                      str(target), "--pins-file", str(path), "--mode",
                      "exhaustive")


@pytest.mark.parametrize("pins", [
    {"pins": [[[], "a"]]},        # point not an int
    {"pins": [[[], 1.5]]},        # would be truncated to 1
    {"pins": [[[], True]]},       # a bool is not a point
    {"pins": [[[], 3]]},          # out of range
    {"pins": [[5, 0]]},           # vertex not a list
    {"pins": [[[[1]], 0]]},       # vertex label not an int
    {"pins": [[[1.0], 0]]},       # vertex label a float
    {"pins": [[[], 0, 1]]},       # not a pair
    {"pins": {"()": 0}},          # not a list
    [[[], 0]],                    # not a pins document
    {"pins": [[[], 0], [[], 1]]},  # a vertex pinned twice
    {"pins": [[[1], 0], [[True], 1]]},  # [true] is the key of [1]
])
def test_search_bad_pins_exit_two(tmp_path, capsys, pins):
    code, out, err = _search_with_pins(tmp_path, capsys, pins)
    assert code == 2 and out == ""
    assert "pin" in err["error"]


def test_search_good_pins_still_pin(tmp_path, capsys):
    code, out, _ = _search_with_pins(tmp_path, capsys,
                                     {"pins": [[[], 2], [[1], 1]]})
    assert code == 0
    assignment = dict((tuple(v), p) for v, p in json.loads(out)["assignment"])
    assert assignment[()] == 2 and assignment[(1,)] == 1


def _lift_files(tmp_path, values, map_point):
    d = [[0.0, 1.0], [1.0, 0.0]]
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"domain": {"d": d}, "target": {"d": d},
                                  "values": values, "C": 2.0, "K": 0.0}))
    spec = U.parse_tree_spec("bin:h=1")
    g = U.TreeMap(spec, U.FiniteMatrixSpace(np.array(d)),
                  {v: 0 for v in U.vertices(spec)})
    doc = json.loads(g.to_json())
    doc["assignment"][-1][1] = map_point
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    return ["lift", "--map-file", str(path), "--oracle-file", str(oracle)]


@pytest.mark.parametrize("values,map_point,message", [
    ([0, 2], 0, "value point"),       # oracle value outside the target
    ([0, -1], 0, "value point"),      # negative: numpy would wrap it
    ([0], 0, "align"),                # one value short
    ([0, 1], 5, "map point"),         # map point outside the target
    ([0, 1], "a", "map point"),
])
def test_lift_bad_points_exit_two(tmp_path, capsys, values, map_point, message):
    code, out, err = run_strict(capsys, *_lift_files(tmp_path, values, map_point))
    assert code == 2 and out == ""
    assert message in err["error"]


def _map_reading_runs(tmp_path):
    """(map document, argv) of a `lift` of a bin:h=1 map into a 2-point table
    and of an `invariant` run on a bin:h=1 map into l2, each reading its
    document."""
    lift = _lift_files(tmp_path, [0, 1], 0)
    l2_map = tmp_path / "l2.json"
    l2_map.write_text(json.dumps({"spec": "bin:h=1", "target": "l2:dim=1",
                                  "assignment": [[[], [0.0]], [[-1], [1.0]],
                                                 [[1], [2.0]]]}))
    invariant = ["invariant", "--tree", "bin:h=1", "--invariant", "fork-cotype",
                 "--p", "2", "--map", f"file:{l2_map}"]
    return (tmp_path / "map.json", lift), (l2_map, invariant)


def test_map_label_not_a_vertex_exit_two(tmp_path, capsys):
    for path, argv in _map_reading_runs(tmp_path):
        doc = json.loads(path.read_text())
        doc["assignment"].append([[7, 8], [50.0]])
        path.write_text(json.dumps(doc))
        code, out, err = run_strict(capsys, *argv)
        assert code == 2 and out == ""
        assert "label [7, 8] is not a vertex of bin:h=1" in err["error"]


@pytest.mark.parametrize("label,message", [
    ([1], "is a second entry for its vertex"),
    ([True], "is not a [vertex, point] pair"),  # (True,) == (1,) as a key
], ids=["repeated", "bool-label"])
def test_map_second_entry_for_a_vertex_exit_two(tmp_path, capsys, label, message):
    for path, argv in _map_reading_runs(tmp_path):
        doc = json.loads(path.read_text())
        doc["assignment"].append([label, [5.0]])
        path.write_text(json.dumps(doc))
        code, out, err = run_strict(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err["error"]


def test_lift_good_points_verified(tmp_path, capsys):
    code, out, _ = run_strict(capsys, *_lift_files(tmp_path, [0, 1], 1))
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("target", [None, "l2:dim=2", "heis:dim=2,p=2",
                                    "prod:p=2;l2:dim=2;heis:dim=2,p=inf"])
def test_invariant_constant_map_into_any_target(capsys, target):
    argv = ["invariant", "--tree", "bin:h=4", "--invariant", "fork-convexity",
            "--p", "2", "--map", "constant"]
    code, out, _ = run_strict(capsys, *argv, *(["--target", target] if target else []))
    assert code == 0
    assert json.loads(out)["lhs"] == 0.0


def _product_map_argv(tmp_path, point):
    """An invariant run on a map into prod:p=2;matrix:file=<2 points> whose
    last vertex has the table factor point `point`."""
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"n": 2, "d": [[0, 1], [1, 0]]}))
    spec = U.parse_tree_spec("bin:h=4")
    assignment = [[list(v), [i % 2]] for i, v in enumerate(U.vertices(spec))]
    assignment[-1][1] = [point]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"spec": "bin:h=4",
                                "target": f"prod:p=2;matrix:file={matrix}",
                                "assignment": assignment}))
    return ["invariant", "--tree", "bin:h=4", "--invariant", "fork-cotype",
            "--p", "2", "--map", f"file:{path}"]


@pytest.mark.parametrize("point", [5, 1.5, True, -1])
def test_product_map_bad_table_factor_point_exit_two(tmp_path, capsys, point):
    code, out, err = run_strict(capsys, *_product_map_argv(tmp_path, point))
    assert code == 2 and out == ""
    assert f"product point factor {json.dumps(point)} is not an index" in err["error"]


def test_product_map_good_table_factor_point(tmp_path, capsys):
    code, out, _ = run_strict(capsys, *_product_map_argv(tmp_path, 1))
    assert code == 0 and json.loads(out)["invariant"] == "fork-cotype"


def test_matrix_document_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_strict(capsys, "certify", "--space", f"matrix:file={path}",
                                "--inequality", "tripod", "--samples", "10")
    assert code == 2 and out == ""
    assert "matrix document" in err["error"]


# one argv per subcommand, every option of it given
SUBCOMMAND_ARGV = [
    ["invariant", "--tree", "bin:h=4", "--map", "constant", "--invariant",
     "tessera", "--p", "2", "--target", "l2:dim=2", "--j-min", "3",
     "--seed", "4", "--out", "o.json"],
    ["certify", "--space", "l2:dim=2", "--inequality", "tripod", "--p", "3",
     "--q", "2", "--K", "2", "--C", "1.5", "--samples", "10", "--xs-count",
     "5", "--slack", "0.1"],
    ["embed", "--tree", "inc:h=2,b=3", "--p", "2", "--variant", "linf",
     "--csv", "m.csv"],
    ["search", "--tree", "bin:h=2", "--invariant", "tessera", "--p", "2",
     "--target-file", "t.json", "--pins-file", "p.json", "--mode",
     "exhaustive", "--restarts", "2", "--steps", "3", "--budget", "9"],
    ["lift", "--map-file", "m.json", "--oracle-file", "o.json"],
    ["morphism", "--k", "3", "--j-const", "2", "--j-max", "5"],
    ["heisenberg", "--dim", "4", "--p", "2", "--lambda", "0.5", "--samples", "7"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda a: a[0])
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    assert parse_args(argv) == build_parser().parse_args(argv)


def _parse_outcome(capsys, parse, argv):
    """(stdout, stderr, exit code) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


# per subcommand: its help, a missing required option (heisenberg has none),
# an option without its value and a value its type= rejects
_BAD_VALUE = {"invariant": ["--p", "x"], "certify": ["--samples", "2.5"],
              "embed": ["--p", "x"], "search": ["--restarts", "x"],
              "lift": ["--seed", "x"], "morphism": ["--k", "x"],
              "heisenberg": ["--lambda", "x"]}
_EXITING_ARGV = [argv for name, bad in _BAD_VALUE.items()
                 for argv in [[name, "--help"], [name, "--out"], [name] + bad]
                 + ([[name]] if name != "heisenberg" else [])]


@pytest.mark.parametrize("argv", _EXITING_ARGV, ids=" ".join)
def test_one_subcommand_parser_helps_and_fails_as_the_full_parser(capsys, argv):
    full = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert _parse_outcome(capsys, parse_args, argv) == full
    assert main(argv) == (2 if full[2] else 0)
    assert capsys.readouterr() == full[:2]


def test_every_subcommand_has_an_argv():
    assert [argv[0] for argv in SUBCOMMAND_ARGV] == list(_HANDLERS)


@pytest.mark.parametrize("argv,code", [([], 2), (["--help"], 0), (["bogus"], 2),
                                       (["invariant", "--help"], 0),
                                       (["invariant"], 2)])
def test_top_level_help_and_errors_keep_their_exit_codes(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    if argv == ["--help"]:
        assert all(name in out for name in ("invariant", "certify", "heisenberg"))
    if argv == ["bogus"]:
        assert "invalid choice: 'bogus'" in err and "heisenberg" in err


@pytest.mark.parametrize("csv", [False, True])
def test_embed_writes_no_csv_when_the_document_fails(tmp_path, capsys, csv):
    # p = 1e300 puts inf in the moduli and the compression integral
    path = tmp_path / "moduli.csv"
    argv = ["embed", "--tree", "inc:h=2,b=2", "--p", "1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + (["--csv", str(path)] if csv else []))
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not path.exists()
    assert "not JSON compliant" in json.loads(err)["error"]
