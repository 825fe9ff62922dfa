import contextlib
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import umbellab as U
from umbellab import embeddings
from umbellab.cli import (_HANDLERS, _OPTIONS, SCHEMA, _options, _parsers,
                          _read_table, main, parse_args)


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


@pytest.mark.parametrize("q,K,worst", [("300", "1000", 2.8751359408604892e-111),
                                        ("200", "100", 1.6128431394477913e-74)])
def test_certify_K_power_past_the_float_range(capsys, q, K, worst):
    # K^q overflows the float range: it is inf, and B / K^q is 0
    code, out = run(capsys, "certify", "--space", "l2:dim=3",
                    "--inequality", "tripod", "--samples", "2000",
                    "--seed", "1", "--q", q, "--K", K)
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == 0
    assert obj["worst_margin"] == worst


@pytest.mark.parametrize("ineq,K,samples", [("tripod", "0.01", "2000"),
                                            ("p-uniform-convexity", "0.09", "200")])
def test_certify_K_power_below_the_float_range(capsys, ineq, K, samples):
    # K^300 is 0 (tripod) or so small that B / K^300 overflows (p-uniform
    # convexity): B / K^300 is inf, so every margin is -inf, a violation
    code, out = run(capsys, "certify", "--space", "l2:dim=3",
                    "--inequality", ineq, "--samples", samples,
                    "--seed", "1", "--q", "300", "--K", K)
    assert code == 1
    obj = json.loads(out)
    assert obj["violations"] == int(samples)
    assert obj["worst_margin"] is None


def test_certify_violated_exit_one(tmp_path, capsys):
    # the tripod on the 4-point star, as the campaign benchmark runs it: the
    # configuration (0, 1, 2, 3) violates it
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR_MATRIX))
    code, out = run(capsys, "certify", "--space", f"matrix:file={path}",
                    "--inequality", "tripod", "--q", "2", "--K", "1",
                    "--samples", "400", "--seed", "1")
    assert code == 1
    assert json.loads(out)["violations"] > 0


def test_certify_midpoint_curvature_at_the_midpoint(tmp_path, capsys):
    # m is (x + y) / 2: l2 meets the inequality with equality, so within the
    # rounding bound every draw holds; lp at p = 3 and 1.5 violate it about
    # half the time; spaces without that midpoint are refused
    argv = ["certify", "--inequality", "midpoint-curvature", "--samples", "20000",
            "--seed", "1", "--space"]
    code, out = run(capsys, *argv, "l2:dim=3")
    assert code == 0 and json.loads(out)["violations"] == 0
    for space in ("lp:p=3,dim=2", "lp:p=1.5,dim=2"):
        code, out = run(capsys, *argv, space)
        assert code == 1 and 6000 < json.loads(out)["violations"] < 14000
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR_MATRIX))
    for space in ("heis:dim=2,p=2", f"matrix:file={path}"):
        code, out, err = run_strict(capsys, *argv, space)
        assert code == 2 and out == ""
        assert err["error"].startswith("midpoint-curvature needs an lp space")


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


def test_embed_single_vertex_tree_writes_no_csv(tmp_path, capsys):
    # a one-vertex tree has no pair: the document gives lip, colip and
    # distortion 1.0 and no moduli, and no CSV is written
    csv = tmp_path / "moduli.csv"
    code, out, err = run_strict(capsys, "embed", "--tree", "inc:h=0,b=0", "--p", "2",
                                "--csv", str(csv))
    assert (code, err) == (0, None)
    obj = json.loads(out)
    assert (obj["lip"], obj["colip"], obj["distortion"]) == (1.0, 1.0, 1.0)
    assert "compression_integral" not in obj
    assert not csv.exists()


def test_embed_p1_runs_the_l1_map(capsys):
    # --p picks the map's exponent unless --variant does: at p = 1 both
    # name Bourgain's l1 map
    code, out = run(capsys, "embed", "--tree", "inc:h=4,b=6", "--p", "1")
    assert code == 0
    assert run(capsys, "embed", "--tree", "inc:h=4,b=6", "--p", "1",
               "--variant", "l1") == (code, out)
    code, out, err = run_strict(capsys, "embed", "--tree", "inc:h=4,b=6", "--p", "0.5")
    assert (code, out) == (2, "")
    assert err["error"] == "p must lie in [1, inf], not 0.5"


def test_invariant_j_min_refusal_names_j_min(capsys):
    # b = 5 passes the validation, and every class is realised without
    # j_min; the class (4, 4, 2) has next labels up to 5 - 4 + 2 + 1 = 4
    argv = ["invariant", "--tree", "inc:h=4,b=5", "--invariant", "umbel-cotype",
            "--p", "2"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run_strict(capsys, *argv, "--j-min", "5")
    assert (code, out) == (2, "")
    assert err["error"] == ("no admissible configuration: j_min 5 is past the "
                            "largest next label B - a + c + 1 = 4 of the class "
                            "(a, b, c) = (4, 4, 2)")
    assert run(capsys, *argv, "--j-min", "4")[0] == 0


@pytest.mark.parametrize("p", ["-3", "0"])
def test_embed_refuses_a_compression_exponent_that_is_not_positive(capsys, p):
    # the l1 variant ignores --p, which only the compression integral reads
    code, out, err = run_strict(capsys, "embed", "--tree", "inc:h=4,b=6", "--p", p,
                                "--variant", "l1")
    assert (code, out) == (2, "")
    assert err["error"] == f"the exponent p must be a finite positive number, not {float(p)}"


def test_embed_on_a_binary_tree(tmp_path, capsys):
    code, out, err = run_strict(capsys, "embed", "--tree", "bin:h=4", "--p", "2",
                                "--csv", str(tmp_path / "moduli.csv"))
    assert (code, err) == (0, None)
    assert json.loads(out)["distortion"] == 2.116690435118209


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


def test_search_budget_refusal_names_its_count(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"n": 6, "d": (1.0 - np.eye(6)).tolist()}))
    for h, count in [(10, "6^2047"), (12, "6^8191"), (16, "6^131071")]:
        code, out, err = run_strict(capsys, "search", "--tree", f"bin:h={h}",
                                    "--invariant", "fork-cotype", "--p", "2",
                                    "--target-file", str(target),
                                    "--mode", "exhaustive")
        assert code == 3 and out == ""
        assert err["error"] == (f"{count} assignments exceed the exhaustive "
                                "budget of 10000000")


def test_search_negative_budget_exit_two(tmp_path, capsys):
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    code, out, err = run_strict(capsys, "search", "--tree", "bin:h=2",
                                "--invariant", "markov-directed", "--p", "2",
                                "--target-file", str(target),
                                "--mode", "exhaustive", "--budget", "-1")
    assert code == 2 and out == ""
    assert "budget must be >= 0" in err["error"]


@pytest.mark.parametrize("mode", ["local", "exhaustive"])
def test_search_past_the_float_range_does_not_warn(tmp_path, capsys, mode):
    # d^p overflows to inf in the scorer, as in lhs and rhs, without a warning
    big = 1e308
    target = tmp_path / "big.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, big, big], [big, 0, big],
                                                [big, big, 0]]}))
    common = ("search", "--tree", "bin:h=2", "--invariant", "markov-directed",
              "--target-file", str(target), "--mode", mode)
    code, out, err = run_strict(capsys, *common, "--p", "2")
    assert (code, err) == (0, None)
    assert json.loads(out)["feasible"]
    code, out, err = run_strict(capsys, *common, "--p", "1e6")
    assert code == 2 and out == ""
    assert "is past the float range" in err["error"]


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


STAR_MATRIX = {"n": 4, "d": [[0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
                            [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]}
STAR_GRAPH = {"n": 4, "edges": [[0, 3], [1, 3], [2, 3]]}


def test_slack_belongs_to_certify(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR_MATRIX))
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


@pytest.mark.parametrize("descriptor,doc", [
    ("matrix:file={}", STAR_MATRIX),
    ("prod:p=2;l2:dim=2;matrix:file={}", STAR_MATRIX),
    ("graph:file={}", STAR_GRAPH),
], ids=["matrix", "prod-matrix", "graph"])
def test_descriptor_file_path_may_hold_a_comma(tmp_path, capsys, descriptor, doc):
    # a file= value runs to the end of its descriptor; the star violates the
    # tripod inequality, so exit 1 shows its file was read
    path = tmp_path / "a,b.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_strict(capsys, "certify", "--space",
                                descriptor.format(path), "--inequality",
                                "tripod", "--samples", "500", "--seed", "1")
    assert (code, err) == (1, None)
    assert json.loads(out)["worst_margin"] < 0


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


@pytest.mark.parametrize("message,want", [
    ("Unable to allocate 29.1 TiB for an array with shape (100000000000, 3) "
     "and data type float64",
     "out of memory: Unable to allocate 29.1 TiB for an array with shape "
     "(100000000000, 3) and data type float64"),
    ("", "out of memory: an allocation failed")])
def test_an_allocation_past_memory_exits_two(capsys, monkeypatch, message, want):
    # a huge dim asks numpy for terabytes; the handler here fails as numpy
    # does, without allocating anything
    def handler(args):
        raise MemoryError(message)

    for command in ("certify", "invariant"):
        monkeypatch.setitem(_HANDLERS, command, handler)
    for argv in (["certify", "--space", "l2:dim=100000000000", "--inequality",
                  "tripod", "--samples", "10"],
                 ["invariant", "--tree", "bin:h=4", "--invariant", "tessera",
                  "--p", "2", "--map", "constant", "--target",
                  "l2:dim=100000000000"]):
        code, out, err = run_strict(capsys, *argv)
        assert code == 2 and out == ""
        assert err == {"schema": SCHEMA, "error": want}


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


@pytest.mark.parametrize("key", ["C", "K"])
@pytest.mark.parametrize("flag", [True, False])
def test_lift_oracle_bool_constant_exit_two(tmp_path, capsys, key, flag):
    # JSON's true and false are no numbers, though Python's bools are ints
    argv = _lift_files(tmp_path, [0, 1], 1)
    oracle = tmp_path / "oracle.json"
    doc = json.loads(oracle.read_text())
    doc[key] = flag
    oracle.write_text(json.dumps(doc))
    code, out, err = run_strict(capsys, *argv)
    assert code == 2 and out == ""
    assert f"lift oracle document needs a {key!r} entry" in err["error"]


@pytest.mark.parametrize("C,K", [(2, 0), (2.0, 0.0), (3, 0.5)])
def test_lift_oracle_numeric_constants_still_read(tmp_path, capsys, C, K):
    argv = _lift_files(tmp_path, [0, 1], 1)
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({**json.loads(oracle.read_text()), "C": C, "K": K}))
    code, out, _ = run_strict(capsys, *argv)
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("key,value", [("C", 0.5), ("C", math.nan), ("K", -1.0),
                                       ("K", math.nan), ("C", math.inf),
                                       ("K", math.inf)])
def test_lift_oracle_constant_off_its_range_exit_two(tmp_path, capsys, key, value):
    # the JSON NaN and Infinity tokens are read as numbers; C below 1, NaN
    # or K below 0 failed with the misleading "farther than K" error, and
    # an infinite constant printed a vacuous "verified": true
    argv = _lift_files(tmp_path, [0, 1], 1)
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({**json.loads(oracle.read_text()), key: value}))
    code, out, err = run_strict(capsys, *argv)
    assert code == 2 and out == ""
    assert f"oracle constant {key} must be a finite number" in err["error"]


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


def _matrix_reading_argv(tmp_path, d, n=2):
    """(document name, argv) of each command that reads a matrix document,
    with the distance table d (and the matrix document's entry n)."""
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"n": n, "d": d}))
    lift = _lift_files(tmp_path, [0, 1], 0)
    oracle = json.loads((tmp_path / "oracle.json").read_text())
    oracle["domain"]["d"] = d
    (tmp_path / "oracle.json").write_text(json.dumps(oracle))
    return [
        ("matrix", ["certify", "--space", f"matrix:file={matrix}",
                    "--inequality", "tripod", "--samples", "10"]),
        ("matrix", ["search", "--tree", "bin:h=4", "--invariant", "fork-cotype",
                    "--p", "2", "--target-file", str(matrix)]),
        ("matrix", ["invariant", "--tree", "bin:h=4", "--map", "constant",
                    "--invariant", "fork-cotype", "--p", "2",
                    "--target", f"matrix:file={matrix}"]),
        ("lift oracle domain", lift),
    ]


@pytest.mark.parametrize("entry", [{}, "1", True, None, [1]],
                         ids=["object", "string", "bool", "null", "list"])
@pytest.mark.parametrize("command", ["certify", "search", "invariant", "lift"])
def test_matrix_entry_not_a_number_exit_two(tmp_path, capsys, entry, command):
    # a float conversion would fail on {} and read "1" and true as 1
    runs = dict((argv[0], (name, argv)) for name, argv
                in _matrix_reading_argv(tmp_path, [[0, entry], [1, 0]]))
    name, argv = runs[command]
    code, out, err = run_strict(capsys, *argv)
    assert code == 2 and out == ""
    assert err["error"] == (f"the {name} document's entry {json.dumps(entry)} "
                            "is not a real number")


def test_matrix_rows_of_other_lengths_exit_two(tmp_path, capsys):
    for name, argv in _matrix_reading_argv(tmp_path, [[0, 1], [1]]):
        code, out, err = run_strict(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == f"the {name} document's rows differ in length"


@pytest.mark.parametrize("n,d", [(True, [[0]]), (2.0, [[0, 1], [1, 0]]),
                                 ("2", [[0, 1], [1, 0]])],
                         ids=["bool", "float", "string"])
@pytest.mark.parametrize("command", ["certify", "search", "invariant"])
def test_matrix_n_not_an_int_exit_two(tmp_path, capsys, n, d, command):
    # true and 2.0 compare equal to the side of the table they come with
    runs = {argv[0]: argv for _, argv in _matrix_reading_argv(tmp_path, d, n)}
    code, out, err = run_strict(capsys, *runs[command])
    assert code == 2 and out == ""
    assert err["error"] == "the matrix document needs a 'n' entry of type int"


def test_numeric_matrix_documents_read_as_before(tmp_path, capsys):
    # ints, floats and ints past the int64 range, as a float conversion reads them
    d = [[0, 1.5], [1.5, 0]]
    for name, argv in _matrix_reading_argv(tmp_path, d):
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    big = {"n": 2, "d": [[0, 10 ** 20], [10 ** 20, 0.0]]}
    m = U.FiniteMatrixSpace.from_json(json.dumps(big))
    assert m.matrix.tolist() == [[0.0, 1e20], [1e20, 0.0]]


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
    assert vars(parse_args(argv)) == vars(_parsers()[0].parse_args(argv))


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
    full = _parse_outcome(capsys, _parsers()[0].parse_args, argv)
    assert _parse_outcome(capsys, parse_args, argv) == full
    assert main(argv) == (2 if full[2] else 0)
    assert capsys.readouterr() == full[:2]


def _typed_vars(args):
    """vars(args) with each value as its type and repr, so that nan equals
    nan and 2 differs from 2.0."""
    return {key: (type(value), repr(value)) for key, value in vars(args).items()}


_FULL_PARSER = _parsers()[0]  # parses many argv, one after another


def _full_vars(argv):
    """_typed_vars of the full parser's namespace, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return _typed_vars(_FULL_PARSER.parse_args(argv))
        except SystemExit:
            return None


def _table_vars(argv):
    """_typed_vars of the table path's namespace, or None when it declines."""
    try:
        return _typed_vars(_read_table(argv))
    except (KeyError, ValueError):
        return None


_FLAGS = sorted({flag for name in _OPTIONS for flags, _, _ in _options(name)
                 for flag in flags})
_PREFIXES = sorted({flag[:k] for flag in _FLAGS for k in range(3, len(flag))})
_CHOICES = sorted({c for name in _OPTIONS for _, _, kwargs in _options(name)
                   for c in kwargs.get("choices", [])})
_VALUES = st.one_of(
    st.sampled_from(_CHOICES), st.integers(0, 10 ** 6).map(str),
    st.floats().map(str),
    st.sampled_from(["2.5", "x", "", "nan", "1e400", "-1", "-1.5", "-x", "--"]))


def _likely(kwargs):
    """Values that the option mostly accepts: for an option with choices,
    the choices of every option."""
    if "choices" in kwargs:
        return st.sampled_from(_CHOICES)
    if kwargs.get("type") in (int, float):
        return st.integers(0, 10 ** 6).map(str)
    return st.sampled_from(["bin:h=2", "x", "", "nan", "2.5"])


@st.composite
def _argv(draw):
    """A command, then (flag, value) pairs of its options (its required ones
    most of the time, values mostly of their type), at times a token of
    another kind (another command's flag, a flag prefix, a --flag=value
    form, -h or --help), and at times one token dropped."""
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    options = list(_options(name))

    def pair(option):
        flags, _, kwargs = option
        likely = draw(st.integers(0, 3))
        return (draw(st.sampled_from(flags)),
                draw(_likely(kwargs) if likely else _VALUES))

    pairs = [pair(option) for option in options
             if option[2].get("required") and draw(st.integers(0, 9))]
    pairs += [pair(draw(st.sampled_from(options)))
              for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 2)) == 0:
        flag = draw(st.one_of(st.sampled_from(_FLAGS), st.sampled_from(_PREFIXES),
                              st.sampled_from(["-h", "--help"])))
        value = draw(_VALUES)
        pairs.append(draw(st.sampled_from([(flag, value), (f"{flag}={value}",)])))
    argv = [name] + [token for pair in draw(st.permutations(pairs))
                     for token in pair]
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_argv())
def test_table_path_reads_argv_as_the_full_parser(argv):
    # the table path may decline an argv the full parser reads (a flag
    # prefix, --flag=value); it must never read one that the full parser
    # rejects or helps on, or read it otherwise
    table = _table_vars(argv)
    if table is not None:
        assert table == _full_vars(argv)


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda a: a[0])
def test_every_subcommand_argv_is_read_from_the_table(argv):
    assert _table_vars(argv) is not None


@pytest.mark.parametrize("order", [("--p", "--q"), ("--q", "--p")], ids=["p-q", "q-p"])
def test_certify_exponent_takes_the_last_spelling_given(order, capsys):
    # --q and --p are one option: a repeated option keeps its last value
    first, last = order
    argv = ["certify", "--space", "l2:dim=3", "--inequality", "tripod",
            "--samples", "10", first, "3", last, "2"]
    assert _table_vars(argv) == _full_vars(argv)
    assert parse_args(argv).q == 2.0
    code, out = run(capsys, *argv)
    assert json.loads(out)["config"]["exponent"] == 2.0


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda a: a[0])
def test_unrecognized_arguments_are_reported_with_the_subcommand_usage(capsys, argv):
    # the full parser would give its top-level usage
    assert main(argv + ["--threads", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: umbel-lab {argv[0]} [-h]")
    assert err.endswith(f"umbel-lab {argv[0]}: error: unrecognized arguments: "
                        "--threads 2\n")


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
def test_embed_writes_no_csv_when_the_document_fails(tmp_path, capsys, csv,
                                                    monkeypatch):
    # a compression integral past the float range makes the document fail;
    # no Bourgain map reaches one (every distance is at most 2h, at any p),
    # so the integral is forced to inf
    monkeypatch.setattr(embeddings, "compression_integral",
                        lambda *args: math.inf)
    path = tmp_path / "moduli.csv"
    argv = ["embed", "--tree", "inc:h=2,b=2", "--p", "1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + (["--csv", str(path)] if csv else []))
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not path.exists()
    assert "not JSON compliant" in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# Documents built from one dict and encoded once


def _old_emit(obj) -> str:
    """What `_emit` prints for obj."""
    return json.dumps({"schema": SCHEMA, **obj}, indent=2, allow_nan=False) + "\n"


def _decoded(report):
    """The report's `to_dict()` encoded as JSON and decoded again."""
    return json.loads(json.dumps(report.to_dict()))


def _old_invariant(rep, seed):
    obj = _decoded(rep)
    obj["seed"] = seed
    return _old_emit(obj)


def _old_search(result, mode, seed, tree, invariant, p):
    obj = _decoded(result)
    obj.update({"mode": mode, "seed": seed, "tree": tree,
                "invariant": invariant, "p": p})
    return json.dumps({"schema": SCHEMA, **obj}, allow_nan=False) + "\n"


def _document_cases(tmp_path):
    """(argv, the library call whose result the document holds, the
    document as the command printed it by decoding that result's encoded
    to_dict(), the texts of the command's input files) of each command of
    a family: invariant on every id, certify on every inequality and on a
    Heisenberg space, search in both modes, infeasible too, and lift."""
    from umbellab import invariants, pointwise, search
    cases = []
    for inv in U.InvariantId:
        tree = ("inc:h=4,b=5" if inv in invariants._INCREASING_IDS
                else "bin:h=4")
        cases.append((["invariant", "--tree", tree, "--invariant", inv.value,
                       "--p", "2", "--seed", "3"], (invariants, "report"),
                      lambda rep: _old_invariant(rep, 3), ()))
    cases.append((["invariant", "--tree", "inc:h=4,b=6", "--invariant",
                   "umbel-cotype", "--p", "1.5", "--map", "constant",
                   "--target", "heis:dim=2,p=2", "--j-min", "2"],
                  (invariants, "report"), lambda rep: _old_invariant(rep, 0), ()))
    for ineq in U.InequalityId:
        space = {"parallelogram": "heis:dim=2,p=2"}.get(ineq.value, "l2:dim=2")
        cases.append((["certify", "--space", space, "--inequality", ineq.value,
                       "--samples", "50", "--seed", "2"],
                      (pointwise, "certify"),
                      lambda rep: _old_emit(_decoded(rep)), ()))
    cases.append((["certify", "--space", "heis:dim=2,p=600", "--inequality",
                   "tripod", "--samples", "20", "--q", "3"],
                  (pointwise, "certify"),
                  lambda rep: _old_emit(_decoded(rep)), ()))
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 2, "d": [[0.0, 0.0], [0.0, 0.0]]}))
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"pins": [[[], 0]]}))
    for mode, name, path, extra in [
            ("exhaustive", "exhaustive_max", target, []),
            ("local", "local_search_max", target, ["--pins-file", str(pins)]),
            ("exhaustive", "exhaustive_max", zero, [])]:
        argv = ["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
                "--p", "2", "--target-file", str(path), "--mode", mode,
                "--seed", "5", "--restarts", "2", "--steps", "3", *extra]
        cases.append((argv, (search, name),
                      functools.partial(_old_search, mode=mode, seed=5,
                                        tree="bin:h=2", p=2.0,
                                        invariant="markov-directed"),
                      (path.read_text(), pins.read_text())))
    d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"domain": {"d": d}, "target": {"d": d},
                                  "values": [0, 1, 2], "C": 2.0, "K": 0.0}))
    spec = U.parse_tree_spec("bin:h=2")
    g = U.TreeMap(spec, U.FiniteMatrixSpace(np.array(d)),
                  {v: len(v) % 3 for v in U.vertices(spec)})
    map_file = tmp_path / "map.json"
    map_file.write_text(g.to_json())
    cases.append((["lift", "--map-file", str(map_file), "--oracle-file",
                   str(oracle)], (embeddings, "lift_map"),
                  lambda h: _old_emit({"verified": True,
                                       "lift": json.loads(h.to_json())}),
                  (oracle.read_text(), map_file.read_text())))
    return cases


def _recorded(monkeypatch, module, name) -> list:
    """The results of every call of module.name, which it keeps returning."""
    results, real = [], getattr(module, name)

    def record(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, record)
    return results


def test_documents_equal_the_decoded_to_json_path(tmp_path, capsys, monkeypatch):
    for argv, (module, name), old, _ in _document_cases(tmp_path):
        with monkeypatch.context() as patch:
            results = _recorded(patch, module, name)
            code, out = run(capsys, *argv)
        assert code in (0, 1) and len(results) == 1, argv
        assert out == old(results[0]), argv


def test_certify_document_with_a_nan_margin(capsys, monkeypatch):
    # a nan margin is a violation whose worst_margin has no number
    from umbellab import pointwise
    real = pointwise.batch_margins

    def with_nan(*args):
        margins = real(*args)
        margins[[1, 4]] = np.nan
        return margins

    monkeypatch.setattr(pointwise, "batch_margins", with_nan)
    results = _recorded(monkeypatch, pointwise, "certify")
    code, out = run(capsys, "certify", "--space", "heis:dim=2,p=2",
                    "--inequality", "tripod", "--samples", "10")
    assert code == 1 and json.loads(out)["worst_margin"] is None
    assert "worst_witness" in out and '"s": ' in out  # Heisenberg points
    assert out == _old_emit(_decoded(results[0]))


def test_documents_are_not_decoded(tmp_path, capsys, monkeypatch):
    # json.loads reads the input files and nothing else
    real = json.loads
    for argv, _, _, inputs in _document_cases(tmp_path):
        read = []

        def loads(s, **kwargs):
            read.append(s)
            return real(s, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", loads)
            code, _ = run(capsys, *argv)
        assert code in (0, 1), argv
        assert all(text in inputs for text in read), argv
