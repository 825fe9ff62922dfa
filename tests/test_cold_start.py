"""A fresh process imports umbellab and runs the CLI subcommands, and the
distortion and moduli of a plain l2 map, without loading scipy, and reads
a well-formed argv without loading argparse or gettext, which only help and
errors need.  General graphs still get their shortest-path tables, which
load scipy on demand.
`import umbellab` loads none of its modules, and each subcommand loads only
the modules it calls.  The checks run in a subprocess because this test
process has scipy and every umbellab module loaded already."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import umbellab as U

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = r"""
import collections, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def bfs_table(n, edges):
    adj = collections.defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    table = []
    for s in range(n):
        dist, queue = {s: 0}, collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append([float(dist[v]) for v in range(n)])
    return table

commands, graph_file, out = json.loads(sys.argv[1])
import umbellab
record = {"import": scipy_modules()}
from umbellab.cli import main
for argv in commands:
    record[argv[0]] = [main(argv), scipy_modules(), "argparse" in sys.modules,
                       "gettext" in sys.modules]
record["help"] = [main([commands[0][0], "--help"]), "argparse" in sys.modules]
spec = umbellab.parse_tree_spec("inc:h=4,b=6")
f = umbellab.TreeMap(spec, umbellab.LpSpace(2, 2.0),
                     {v: (float(i), 1.0) for i, v in enumerate(umbellab.vertices(spec))})
umbellab.distortion(f)
umbellab.moduli(f)
record["l2 map"] = scipy_modules()
graph = umbellab.parse_space("graph:file=" + graph_file)
record["tables"] = graph.table.tolist() == bfs_table(graph.n, graph.edges)
record["after_tables"] = scipy_modules()
with open(out, "w") as fh:
    json.dump(record, fh)
"""


def _fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_runs_without_scipy(tmp_path):
    target = tmp_path / "path3.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3],
                                                   [3, 4], [4, 0], [0, 2]]}))
    out = tmp_path / "record.json"
    commands = [
        ["certify", "--space", "l2:dim=3", "--inequality", "tripod",
         "--samples", "200"],
        ["invariant", "--tree", "inc:h=4,b=6", "--invariant", "umbel-cotype",
         "--p", "2"],
        ["embed", "--tree", "inc:h=4,b=6", "--p", "2",
         "--csv", str(tmp_path / "moduli.csv")],
        ["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
         "--p", "2", "--target-file", str(target), "--mode", "exhaustive"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([commands, str(graph), str(out)])],
        cwd=ROOT, env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["import"] == []
    for argv in commands:  # a well-formed argv is read without argparse
        assert record[argv[0]] == [0, [], False, False], argv
    assert record["help"] == [0, True]
    assert record["l2 map"] == []
    assert record["tables"] is True
    assert "scipy.sparse.csgraph" in record["after_tables"]


# the names `umbellab` exported when it imported every module up front,
# less those deleted since (search.identity_report; trees.tree_distance,
# level_edges, diamond_graph and laakso_graph; spaces.h_mul, h_inv,
# h_dilate, koranyi_norm, koranyi_dist, horizontal_length and
# HeisenbergSpace, folded into HeisenbergMetricSpace;
# pointwise.ramsey_refine and check_parallelogram)
EXPORTS = {
    "trees": ["TreeSpec", "parse_tree_spec", "vertices", "vertices_at_height",
              "binary_to_increasing", "check_star_property"],
    "spaces": ["LpSpace", "FiniteMatrixSpace", "GraphMetricSpace",
               "ProductSpace", "HeisenbergMetricSpace",
               "HPoint", "quasi_constant_estimate",
               "standard_symplectic", "parse_space"],
    "pointwise": ["InequalityId", "InequalityConfig", "CheckReport",
                  "CampaignReport", "ModulusEstimate", "NoSolution",
                  "check_inequality", "certify",
                  "ball_sampler", "min_feasible_K", "solve_umbel_K",
                  "alpha_rows", "modulus_delta", "modulus_delta_tilde",
                  "modulus_beta", "parallelogram_constants"],
    "invariants": ["InvariantId", "InvariantReport", "TreeMap", "lhs", "rhs",
                   "report", "lipschitz_constant",
                   "markov_pair_expectation_exact", "named_map"],
    "embeddings": ["ModulusCurve", "QuotientOracle", "bourgain_embed",
                   "distortion", "moduli", "compression_integral", "lift_map",
                   "verify_lift"],
    "search": ["SearchProblem", "SearchResult", "exhaustive_max",
               "local_search_max", "BudgetExceeded"],
}

MODULES_PROBE = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("umbellab."))

argv, out = json.loads(sys.argv[1])
import umbellab
record = {"import": loaded()}
from umbellab.cli import main
record["code"] = main(argv)
record["command"] = loaded()
with open(out, "w") as fh:
    json.dump(record, fh)
"""


def _lift_argv(tmp_path):
    d = [[0.0, 1.0], [1.0, 0.0]]
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"domain": {"d": d}, "target": {"d": d},
                                  "values": [0, 1], "C": 2.0, "K": 0.0}))
    spec = U.parse_tree_spec("bin:h=1")
    g = U.TreeMap(spec, U.FiniteMatrixSpace(np.array(d)),
                  {v: 0 for v in U.vertices(spec)})
    path = tmp_path / "map.json"
    path.write_text(g.to_json())
    return ["--map-file", str(path), "--oracle-file", str(oracle)]


def _search_argv(tmp_path):
    target = tmp_path / "path3.json"
    target.write_text(json.dumps({"n": 3, "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    return ["--tree", "bin:h=2", "--invariant", "markov-directed", "--p", "2",
            "--target-file", str(target), "--mode", "exhaustive"]


# subcommand -> (argv after its name, or a function of tmp_path giving it;
# the library modules it loads besides cli)
COMMAND_MODULES = {
    "certify": (["--space", "heis:dim=2", "--inequality", "parallelogram",
                 "--samples", "50"], {"spaces", "pointwise"}),
    "heisenberg": (["--samples", "50"], {"spaces"}),
    "invariant": (["--tree", "inc:h=4,b=6", "--invariant", "umbel-cotype",
                   "--p", "2"], {"trees", "spaces", "invariants"}),
    "morphism": (["--k", "3", "--j-const", "2"], {"trees", "spaces"}),
    "embed": (["--tree", "inc:h=4,b=6", "--p", "2"],
              {"trees", "spaces", "invariants", "embeddings"}),
    "lift": (_lift_argv, {"trees", "spaces", "invariants", "embeddings"}),
    "search": (_search_argv, {"trees", "spaces", "invariants", "search"}),
}


@pytest.mark.parametrize("name", COMMAND_MODULES)
def test_import_and_each_subcommand_load_only_their_modules(tmp_path, name):
    argv, modules = COMMAND_MODULES[name]
    if callable(argv):
        argv = argv(tmp_path)
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps([[name] + argv, str(out)])],
        cwd=ROOT, env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["import"] == []
    assert record["code"] == 0, proc.stderr
    assert record["command"] == sorted(f"umbellab.{m}" for m in modules | {"cli"})


def test_every_export_resolves_to_its_module_attribute():
    names = {name: module for module, names in EXPORTS.items() for name in names}
    for name, module in names.items():
        assert getattr(U, name) is getattr(
            importlib.import_module(f"umbellab.{module}"), name), name
    assert sorted(U.__all__) == sorted(names)
    assert set(names) <= set(dir(U))
    star = {}
    exec("from umbellab import *", star)
    del star["__builtins__"]
    assert star == {name: getattr(U, name) for name in names}


@pytest.mark.parametrize("name", ["no_such_name", "_EXPORT", "np", "scipy"])
def test_an_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(U, name)
    assert not hasattr(U, name)


def test_an_export_reads_its_module_binding_each_time(monkeypatch):
    # an export read while its function is patched must not keep the patch
    original = U.spaces.quasi_constant_estimate

    def patched(*args):
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(U.spaces, "quasi_constant_estimate", patched)
        assert U.quasi_constant_estimate is patched
    assert U.quasi_constant_estimate is original
    assert "quasi_constant_estimate" not in vars(U)
