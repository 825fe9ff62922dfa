"""A fresh process imports umbellab and runs the CLI subcommands, and the
distortion and moduli of a plain l2 map, without loading scipy; general
graphs still get their shortest-path tables, which load scipy on demand.
The checks run in a subprocess because this test process has scipy loaded
already."""

import json
import os
import pathlib
import subprocess
import sys

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
    record[argv[0]] = [main(argv), scipy_modules()]
spec = umbellab.parse_tree_spec("inc:h=4,b=6")
f = umbellab.TreeMap(spec, umbellab.LpSpace(2, 2.0),
                     {v: (float(i), 1.0) for i, v in enumerate(umbellab.vertices(spec))})
umbellab.distortion(f)
umbellab.moduli(f)
record["l2 map"] = scipy_modules()
diamond = umbellab.diamond_graph(2)
graph = umbellab.parse_space("graph:file=" + graph_file)
record["tables"] = [g.table.tolist() == bfs_table(g.n, g.edges)
                    for g in (diamond, graph)]
record["after_tables"] = scipy_modules()
with open(out, "w") as fh:
    json.dump(record, fh)
"""


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([commands, str(graph), str(out)])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["import"] == []
    for argv in commands:
        assert record[argv[0]] == [0, []], argv
    assert record["l2 map"] == []
    assert record["tables"] == [True, True]
    assert "scipy.sparse.csgraph" in record["after_tables"]
