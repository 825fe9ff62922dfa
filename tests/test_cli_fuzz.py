"""Fuzz of the command-line front end: space and tree descriptors and the
argv of every subcommand, at tiny sizes.  Every run exits with 0, 1, 2 or 3,
raises nothing past `main` (so no traceback reaches stderr), emits no
warning, and prints strict JSON on stdout when it exits with 0 or 1; a
validation error names more than a missing key, and the runs in EXPECTED
end as listed there.  Paths are written with a {dir} placeholder for
the directory of the fixture files below."""

import contextlib
import io
import json
import re
import traceback
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import umbellab as U
from umbellab.cli import main

STAR = [[0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
        [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]
PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def _map(points):
    """A map document of bin:h=1 into PATH3 with the given points."""
    spec = U.parse_tree_spec("bin:h=1")
    return {"spec": "bin:h=1", "target": "matrix:n=3",
            "assignment": [[list(v), p] for v, p in zip(U.vertices(spec), points)]}


def _line_map(point):
    """A map document of bin:h=4 into l2:dim=1 with point(i) at vertex i.  A
    string point stands for its text, unquoted: JSON numbers past the float
    range."""
    spec = U.parse_tree_spec("bin:h=4")
    return {"spec": "bin:h=4", "target": "l2:dim=1",
            "assignment": [[list(v), point(i)]
                           for i, v in enumerate(U.vertices(spec))]}


def _oracle(values):
    return {"domain": {"d": PATH3}, "target": {"d": PATH3}, "values": values,
            "C": 2.0, "K": 0.5}


FILES = {
    "star.json": {"n": 4, "d": STAR},
    "path3.json": {"n": 3, "d": PATH3},
    "graph.json": {"n": 6, "edges": [[0, 1], [0, 2], [0, 3], [3, 4], [4, 5]]},
    "pins.json": {"pins": [[[], 0], [[1], 2]]},
    "pins-str.json": {"pins": [[[], "a"]]},
    "pins-vertex.json": {"pins": [[5, 0]]},
    "pins-float.json": {"pins": [[[], 1.5]]},
    "map.json": _map([0, 1, 2]),
    "map-range.json": _map([0, 1, 7]),
    "map-entry.json": {"spec": "bin:h=1", "target": "l2:dim=1",
                       "assignment": [[[], [0.0]], [[-1], [1.0]], 5]},
    "map-heis.json": {"spec": "bin:h=1", "target": "heis:dim=2,p=2",
                      "assignment": [[[], {"s": 0.0}]]},
    "map-inf.json": _line_map(lambda i: ["1e400"] if i == 3 else [0.0]),
    "map-bool.json": _line_map(lambda i: [True] if i == 3 else [0.0]),
    "map-dim.json": _line_map(lambda i: [1.0, 2.0]),
    # edges 2e300 long: their squares are past the float range
    "map-huge.json": _line_map(lambda i: [1e300 * (-1) ** i]),
    "oracle.json": _oracle([0, 1, 2]),
    "oracle-range.json": _oracle([0, 1, 9]),
    "oracle-short.json": _oracle([0, 1]),
    "oracle-values.json": _oracle(5),
    "oracle-c.json": {**_oracle([0, 1, 2]), "C": "x"},
    "list.json": [1, 2],
    # 33 bytes asking for a 10^6 x 10^6 table
    "big-graph.json": {"n": 1000000, "edges": [[0, 1]]},
    "graph-edge.json": {"n": 2, "edges": [[0]]},
    "graph-entry.json": {"n": 2, "edges": [5]},
    "graph-float.json": {"n": 2, "edges": [[0, 1.5]]},
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, obj in FILES.items():
        (d / name).write_text(re.sub(r'"(1e\d+)"', r"\1", json.dumps(obj)))
    (d / "broken.json").write_text('{"n": ')
    return d


def path(names):
    return st.sampled_from([f"{{dir}}/{n}" for n in names]
                           + ["{dir}/missing.json", "{dir}/broken.json"])


# valid values are listed more than once so that most runs get past the
# argument checks
NUMBER = st.sampled_from(["2", "2", "2", "1.5", "3", "1", "0.5", "inf", "nan",
                          "0", "-1", "x"])
COUNT = st.sampled_from(["1", "2", "3", "4", "0", "-1"])
TEXT = st.text(max_size=12)
INEQUALITIES = [i.value for i in U.InequalityId]
INVARIANTS = [i.value for i in U.InvariantId]


def fields(template, *values):
    return st.tuples(*values).map(lambda vs: template.format(*vs))


LEAF_SPACES = st.one_of(
    fields("l2:dim={}", COUNT),
    fields("lp:p={},dim={}", NUMBER, COUNT),
    fields("heis:dim={},p={},lambda={}", st.sampled_from(["2", "2", "4", "0", "1"]),
           NUMBER, NUMBER),
    fields("matrix:file={}", path(["star.json", "star.json", "path3.json",
                                   "pins.json", "list.json"])),
    fields("graph:file={}", path(["graph.json", "graph.json", "list.json",
                                  "big-graph.json", "graph-edge.json",
                                  "graph-entry.json", "graph-float.json"])),
)
SPACES = st.one_of(
    LEAF_SPACES, LEAF_SPACES,
    st.tuples(NUMBER, st.lists(LEAF_SPACES, max_size=3)).map(
        lambda t: ";".join([f"prod:p={t[0]}"] + t[1])),
    TEXT,
)
GOOD_TREES = st.sampled_from(["bin:h=1", "bin:h=2", "bin:h=4", "inc:h=1,b=3",
                              "inc:h=2,b=4", "inc:h=4,b=6"])
TREES = st.one_of(
    GOOD_TREES, GOOD_TREES,
    fields("bin:h={}", st.integers(-1, 4)),
    fields("inc:h={},b={}", st.sampled_from(["0", "1", "2", "4"]),
           st.integers(-1, 6)),
    TEXT,
)
# the exhaustive search stays small: at most 4^7 assignments on these trees
SEARCH_TREES = st.sampled_from(["bin:h=0", "bin:h=1", "bin:h=2", "bin:h=2",
                                "bin:h=4", "inc:h=1,b=3", "inc:h=2,b=3",
                                "bin:h=-1", "bogus"])


def options(**opts):
    """argv fragments: each option present or left out."""
    parts = [st.one_of(st.just([]), value.map(lambda v, k=k: [k, v]))
             for k, value in opts.items()]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def command(name, required, **opts):
    req = st.tuples(*[v.map(lambda v, k=k: [k, v]) for k, v in required.items()])
    return st.tuples(req, options(**opts)).map(
        lambda t: [name] + [a for p in t[0] for a in p] + t[1])


INVARIANT_OPTIONS = {
    "--map": st.one_of(st.sampled_from(["identity", "constant", "x"]),
                       path(["map.json", "map-range.json", "map-entry.json",
                             "map-heis.json", "map-inf.json", "map-bool.json",
                             "map-dim.json", "map-huge.json", "list.json"])
                       .map("file:{}".format)),
    "--target": SPACES, "--j-min": COUNT}
BINARY_IDS = ["fork-convexity", "fork-cotype", "tessera", "markov-directed"]

ARGV = st.one_of(
    command("invariant",
            {"--tree": TREES, "--invariant": st.sampled_from(INVARIANTS + ["x"]),
             "--p": NUMBER}, **INVARIANT_OPTIONS),
    # trees that the invariant accepts
    command("invariant",
            {"--tree": st.sampled_from(["bin:h=2", "bin:h=4"]),
             "--invariant": st.sampled_from(BINARY_IDS), "--p": NUMBER},
            **INVARIANT_OPTIONS),
    command("invariant",
            {"--tree": st.sampled_from(["inc:h=2,b=4", "inc:h=4,b=6"]),
             "--invariant": st.sampled_from(sorted(set(INVARIANTS)
                                                   - set(BINARY_IDS))),
             "--p": NUMBER}, **INVARIANT_OPTIONS),
    command("certify",
            {"--space": SPACES,
             "--inequality": st.sampled_from(INEQUALITIES + ["x"]),
             "--samples": st.sampled_from(["1", "7", "40", "0", "-1"])},
            **{"--p": NUMBER, "--q": NUMBER, "--K": NUMBER, "--C": NUMBER,
               "--xs-count": COUNT, "--slack": NUMBER, "--seed": COUNT}),
    command("embed", {"--tree": TREES, "--p": NUMBER},
            **{"--variant": st.sampled_from(["lp", "l1", "linf", "x"]),
               "--csv": st.just("{dir}/out.csv")}),
    command("search",
            {"--tree": SEARCH_TREES,
             "--invariant": st.sampled_from(INVARIANTS), "--p": NUMBER,
             "--target-file": path(["path3.json", "star.json", "graph.json",
                                    "list.json"])},
            **{"--pins-file": path(["pins.json", "pins-str.json",
                                    "pins-vertex.json", "pins-float.json",
                                    "path3.json"]),
               "--mode": st.sampled_from(["exhaustive", "local"]),
               "--restarts": COUNT, "--steps": COUNT,
               "--budget": st.integers(-1, 100).map(str)}),
    command("lift",
            {"--map-file": path(["map.json", "map-range.json", "map-entry.json",
                                 "map-heis.json", "oracle.json", "list.json"]),
             "--oracle-file": path(["oracle.json", "oracle-range.json",
                                    "oracle-short.json", "oracle-values.json",
                                    "oracle-c.json",
                                    "map.json", "list.json"])}),
    command("morphism", {"--k": COUNT},
            **{"--j-const": st.integers(-1, 6).map(str),
               "--j-max": st.integers(-1, 8).map(str), "--seed": COUNT}),
    command("heisenberg", {"--samples": st.integers(-1, 30).map(str)},
            **{"--dim": st.sampled_from(["-2", "0", "1", "2", "4"]),
               "--p": NUMBER, "--lam": NUMBER}),
    st.lists(TEXT, max_size=4),
)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _fork_cotype(map_file):
    return ["invariant", "--tree", "bin:h=4", "--invariant", "fork-cotype",
            "--p", "2", "--map", "file:{dir}/" + map_file]


# runs with a known outcome: the exit code and a text its error holds
EXPECTED = {tuple(_fork_cotype(name)): (code, error) for name, code, error in [
    ("map-inf.json", 2, "map document's point [Infinity]"),
    ("map-bool.json", 2, "map document's point [true]"),
    ("map-dim.json", 2, "map document's point [1.0, 2.0]"),
    ("map-huge.json", 0, None),
]}
# trees past the vertex cap are refused before any vertex is listed
HUGE_TREES = [["invariant", "--tree", "bin:h=40", "--invariant", "fork-cotype",
               "--p", "2"],
              ["embed", "--tree", "inc:h=30,b=60", "--p", "2"],
              ["morphism", "--k", "40"],
              # the identity checks the cap of its TreeGraph target
              ["invariant", "--tree", "bin:h=4096", "--invariant", "fork-cotype",
               "--p", "2"]]
EXPECTED.update({tuple(argv): (2, "more than 200000 vertices")
                 for argv in HUGE_TREES})
_LOCAL_SEARCH = ["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
                 "--p", "2", "--target-file", "{dir}/path3.json", "--mode", "local"]
NEGATIVE_COUNTS = [_LOCAL_SEARCH + ["--restarts", "-1"],
                   _LOCAL_SEARCH + ["--steps", "-1"]]
EXPECTED.update({tuple(argv): (2, "must be >= 0") for argv in NEGATIVE_COUNTS})
HUGE_EXPONENT = [["invariant", "--tree", "bin:h=4", "--invariant",
                  "fork-convexity", "--p", "1500"],
                 ["search", "--tree", "bin:h=4", "--invariant", "fork-convexity",
                  "--p", "1500", "--target-file", "{dir}/path3.json"]]
EXPECTED.update({tuple(argv): (2, "p = 1500.0 is too large")
                 for argv in HUGE_EXPONENT})
# a left-hand side of 2881180923 vertex pairs: a profile map reads its 341
# classes, and search's pair plan is refused before it is built
_HUGE_MARKOV = ["--tree", "bin:h=16", "--invariant", "markov-directed", "--p", "2"]
HUGE_PLANS = [["invariant"] + _HUGE_MARKOV,
              ["invariant"] + _HUGE_MARKOV + ["--map", "constant"],
              ["search"] + _HUGE_MARKOV + ["--target-file", "{dir}/path3.json",
                                           "--mode", "local"]]
EXPECTED.update({tuple(argv): (0, None) for argv in HUGE_PLANS[:2]})
EXPECTED[tuple(HUGE_PLANS[2])] = (2, "the plan has 2881180923 columns")
# a Koranyi norm past the float range while sampling, and C(count, 2)
# distance columns per chunk
REFUSED_SAMPLING = [["certify", "--space", "heis:dim=2,p=1e-300", "--inequality",
                     "tripod", "--samples", "10"],
                    ["certify", "--space", "l2:dim=3", "--inequality", "p-umbel",
                     "--samples", "10", "--xs-count", "100000"]]
EXPECTED.update({tuple(argv): (2, error) for argv, error in zip(REFUSED_SAMPLING, [
    "overflow encountered in power",
    "xs_count 100000 is more than the 128"])})
# values below their range, refused by name, and an exhaustive count of
# 3^8191 assignments, whose 3909 digits are not printed
BELOW_RANGE = [["heisenberg", "--dim", "0", "--samples", "10"],
               ["certify", "--space", "heis:dim=0", "--inequality", "tripod",
                "--samples", "10"],
               ["invariant", "--tree", "inc:h=4,b=5", "--invariant",
                "umbel-cotype", "--p", "2", "--j-min", "-3"],
               ["morphism", "--k", "2", "--j-max", "0"],
               ["morphism", "--k", "0", "--j-max", "-1"],  # J is never called
               ["search", "--tree", "bin:h=12", "--invariant", "fork-cotype",
                "--p", "2", "--target-file", "{dir}/path3.json",
                "--mode", "exhaustive"]]
EXPECTED.update({tuple(argv): (code, error) for argv, (code, error) in zip(BELOW_RANGE, [
    (2, "symplectic form needs dimension >= 2, got 0"),
    (2, "symplectic form needs dimension >= 2, got 0"),
    (2, "j_min must be >= 1, got -3"),
    (2, "--j-max must be >= 1, got 0"),
    (2, "--j-max must be >= 1, got -1"),
    (3, "3^8191 assignments exceed the exhaustive budget")])})


def _graph_certify(name):
    return ["certify", "--space", f"graph:file={{dir}}/{name}", "--inequality",
            "tripod", "--samples", "10"]


BAD_GRAPHS = [_graph_certify(name) for name in ("big-graph.json",
              "graph-edge.json", "graph-entry.json", "graph-float.json")]
EXPECTED.update({tuple(argv): (2, error) for argv, error in zip(BAD_GRAPHS, [
    "a graph of 1000000 vertices is past the cap",
    "graph edges must be pairs of vertex ids 0..1",
    "the graph document's edges are not [u, v] lists",
    "graph edges must be pairs of vertex ids 0..1"])})

# Bourgain's map on a binary tree, without a CSV file (stdout is the
# document alone) and with one, and compression exponents the l1 variant
# passes through that are not finite positive numbers
EMBEDS = [["embed", "--tree", "bin:h=4", "--p", "2"],
          ["embed", "--tree", "inc:h=4,b=6", "--p", "-3", "--variant", "l1"],
          ["embed", "--tree", "inc:h=4,b=6", "--p", "0", "--variant", "l1"]]
EMBEDS = EMBEDS[:1] + [argv + ["--csv", "{dir}/out.csv"] for argv in EMBEDS]
EXPECTED.update({tuple(argv): (0, None) for argv in EMBEDS[:2]})
EXPECTED.update({tuple(argv): (2, f"exponent p must be a finite positive number, not {p}")
                 for argv, p in zip(EMBEDS[2:], ["-3.0", "0.0"])})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ARGV)
@example(argv=["heisenberg", "--p", "nan", "--samples", "100"])
@example(argv=["certify", "--space", "heis:dim=2,p=nan", "--inequality", "tripod",
          "--samples", "10"])
@example(argv=["certify", "--space", "heis:dim=2,p=2,lambda=nan", "--inequality",
          "parallelogram", "--samples", "10"])
@example(argv=["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
          "--p", "2", "--target-file", "{dir}/path3.json",
          "--pins-file", "{dir}/pins-str.json"])
@example(argv=["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
          "--p", "2", "--target-file", "{dir}/path3.json",
          "--pins-file", "{dir}/pins-vertex.json"])
@example(argv=["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
          "--p", "2", "--target-file", "{dir}/path3.json",
          "--pins-file", "{dir}/pins-float.json"])
@example(argv=["lift", "--map-file", "{dir}/map.json",
          "--oracle-file", "{dir}/oracle-range.json"])
@example(argv=["lift", "--map-file", "{dir}/map-range.json",
          "--oracle-file", "{dir}/oracle.json"])
@example(argv=["certify", "--space", "graph:file={dir}/list.json",
          "--inequality", "tripod", "--samples", "10"])
@example(argv=["invariant", "--tree", "bin:h=4", "--invariant", "fork-cotype",
          "--p", "2", "--map", "file:{dir}/list.json"])
@example(argv=["lift", "--map-file", "{dir}/list.json",
          "--oracle-file", "{dir}/oracle.json"])
@example(argv=["lift", "--map-file", "{dir}/map.json",
          "--oracle-file", "{dir}/list.json"])
@example(argv=["lift", "--map-file", "{dir}/map.json",
          "--oracle-file", "{dir}/oracle-values.json"])
@example(argv=["lift", "--map-file", "{dir}/map.json",
          "--oracle-file", "{dir}/oracle-c.json"])
@example(argv=["search", "--tree", "bin:h=2", "--invariant", "markov-directed",
          "--p", "2", "--target-file", "{dir}/graph.json"])
@example(argv=["invariant", "--tree", "bin:h=1", "--invariant", "fork-cotype",
          "--p", "2", "--map", "file:{dir}/map-entry.json"])
@example(argv=["invariant", "--tree", "bin:h=1", "--invariant", "fork-cotype",
          "--p", "2", "--map", "file:{dir}/map-heis.json"])
@example(argv=["lift", "--map-file", "{dir}/map-entry.json",
          "--oracle-file", "{dir}/oracle.json"])
@example(argv=["lift", "--map-file", "{dir}/map-heis.json",
          "--oracle-file", "{dir}/oracle.json"])
@example(argv=_fork_cotype("map-inf.json"))
@example(argv=_fork_cotype("map-bool.json"))
@example(argv=_fork_cotype("map-dim.json"))
@example(argv=_fork_cotype("map-huge.json"))
@example(argv=NEGATIVE_COUNTS[0])
@example(argv=NEGATIVE_COUNTS[1])
@example(argv=HUGE_EXPONENT[0])
@example(argv=HUGE_EXPONENT[1])
@example(argv=HUGE_TREES[0])
@example(argv=HUGE_TREES[1])
@example(argv=HUGE_TREES[2])
@example(argv=HUGE_TREES[3])
@example(argv=HUGE_PLANS[0])
@example(argv=HUGE_PLANS[1])
@example(argv=HUGE_PLANS[2])
@example(argv=BAD_GRAPHS[0])
@example(argv=BAD_GRAPHS[1])
@example(argv=BAD_GRAPHS[2])
@example(argv=BAD_GRAPHS[3])
@example(argv=REFUSED_SAMPLING[0])
@example(argv=REFUSED_SAMPLING[1])
@example(argv=BELOW_RANGE[0])
@example(argv=BELOW_RANGE[1])
@example(argv=BELOW_RANGE[2])
@example(argv=BELOW_RANGE[3])
@example(argv=BELOW_RANGE[4])
@example(argv=BELOW_RANGE[5])
@example(argv=EMBEDS[0])
@example(argv=EMBEDS[1])
@example(argv=EMBEDS[2])
@example(argv=EMBEDS[3])
def test_cli_fuzz(fixture_dir, argv):
    expected = EXPECTED.get(tuple(argv))
    argv = [a.replace("{dir}", str(fixture_dir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:
            pytest.fail(f"{argv} raised:\n{traceback.format_exc()}")
    assert not warned, (argv, [str(w.message) for w in warned])
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code == 2 and err.getvalue().startswith("{"):
        # a bare KeyError's text is the key alone, which names no input
        error = json.loads(err.getvalue())["error"]
        assert not re.fullmatch(r"'[^']*'", error), argv
    if expected is not None:
        assert code == expected[0], (argv, err.getvalue())
        if expected[1] is not None:
            assert expected[1] in json.loads(err.getvalue())["error"], argv
