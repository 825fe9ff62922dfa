"""The benchmark's three workloads: generated inputs, job lists and the checks
on every job's output.

A job is one in-process CLI invocation (``umbellab.cli.main(argv)``) or one
public library call.  Every input is derived from the benchmark seed; the
program only sees the generated argv and files.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import umbellab as U
from umbellab import cli, trees

SCHEMA = "umbel-lab/1"
RTOL = 1e-9
WORKLOADS = ("campaign", "tree", "extremal")

# "full" is the measured size; "tiny" runs every job kind in well under a
# second each, for the self-test.
SIZES = {
    "full": {
        "samples": 2000,
        "umbel_trees": ("inc:h=8,b=10", "inc:h=8,b=12"),
        "binary_tree": "bin:h=8",
        "embed_tree": "inc:h=8,b=10",
        "distortion": 2.3452976362042404,
        "restarts": 3,
        "steps": 1,
        "fit_samples": 200,
    },
    "tiny": {
        "samples": 500,         # enough for the star to violate
        "umbel_trees": ("inc:h=4,b=6", "inc:h=4,b=7"),
        "binary_tree": "bin:h=4",
        "embed_tree": "inc:h=4,b=6",
        "distortion": 2.116690435118209,
        "restarts": 1,
        "steps": 1,
        "fit_samples": 50,
    },
}

# campaign mix: (inequality, space, extra argv, expected exit code)
CAMPAIGN_MIX = (
    ("tripod", "l2:dim=3", ["--q", "2", "--K", "1"], 0),
    # l3 is 3- but not 2-fork convex: at the default exponent 2 a campaign
    # finds a true violation now and then, so the fork job runs at q = 3
    ("fork", "lp:p=3,dim=4", ["--q", "3"], 0),
    ("p-umbel", "l2:dim=3", ["--K", "4"], 0),
    ("p-uniform-convexity", "lp:p=3,dim=2", ["--p", "3"], 0),
    ("parallelogram", "heis:dim=2,p=2", [], 0),
    ("tripod", "matrix:file={star}", ["--q", "2", "--K", "1"], 1),
)
STAR4 = [[0.0, 2.0, 2.0, 1.0], [2.0, 0.0, 2.0, 1.0],
         [2.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]
UMBEL_IDS = ("umbel-convexity", "relaxed-umbel", "umbel-cotype")
BINARY_IDS = ("fork-convexity", "fork-cotype", "tessera", "markov-directed")
COTYPE_IDS = ("umbel-cotype", "fork-cotype")
SEARCH_TREE = "bin:h=4"
TARGET_POINTS, TARGET_DIM = 6, 3
FIT_BRACKET = (0.5, 64.0)


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    kind: str                          # seed-free description and size
    run: Callable[[], object]
    check: Callable[[object], None]    # raises CheckFailed
    prep: Optional[Callable[[], None]] = None   # untimed, before run
    argv: Optional[list] = None        # the CLI arguments of a CLI job


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def run_cli(argv):
    """One in-process CLI invocation; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(kind, argv, code, check_doc, prep=None) -> Job:
    """A CLI job whose exit code must be `code` and whose JSON document must
    be strict, carry the schema and pass `check_doc`."""
    def check(result):
        got, out, err = result
        _expect(got == code,
                f"exit code {got}, expected {code}: {err.strip()}")
        try:
            doc = json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            raise CheckFailed(f"output is not strict JSON: {exc}") from None
        _expect(doc.get("schema") == SCHEMA, "missing schema tag")
        check_doc(doc)

    return Job(kind, lambda: run_cli(argv), check, prep, argv)


def _same_every_pass(memo: dict, key, value) -> None:
    """Deterministic jobs must give identical output on every pass."""
    first = memo.setdefault(key, value)
    _expect(first == value, f"{key}: output differs from the first pass")


class Workload:
    """Generated inputs of one workload and the job list of each pass."""

    def __init__(self, name: str, seed: int, workdir: str, size: str = "full"):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.workdir = name, seed, workdir
        self.cfg = SIZES[size]
        self._memo = {}
        os.makedirs(workdir, exist_ok=True)
        getattr(self, "_setup_" + name)()

    def jobs(self, pass_index: int) -> list[Job]:
        return getattr(self, "_jobs_" + self.name)(pass_index)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, obj) -> str:
        path = self._path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _pass_seeds(self, pass_index: int, count: int) -> list[int]:
        ss = np.random.SeedSequence([self.seed, pass_index])
        return [int(s) for s in ss.generate_state(count) % 2 ** 31]

    # -- campaign ----------------------------------------------------------

    def _setup_campaign(self):
        self.star = self._write("star.json", {"n": 4, "d": STAR4})

    def _jobs_campaign(self, pass_index):
        seeds = self._pass_seeds(pass_index, len(CAMPAIGN_MIX))
        n = self.cfg["samples"]
        jobs = []
        for (ineq, space, extra, code), seed in zip(CAMPAIGN_MIX, seeds):
            space = space.format(star=self.star)
            argv = ["certify", "--space", space, "--inequality", ineq,
                    "--samples", str(n), "--seed", str(seed)] + extra

            def check(doc, ineq=ineq, code=code, seed=seed):
                _expect(doc["id"] == ineq and doc["n"] == n
                        and doc["seed"] == seed, "wrong campaign echoed")
                if code == 0:
                    _expect(doc["violations"] == 0,
                            f"{doc['violations']} violations of a holding "
                            "inequality")
                else:
                    _expect(doc["violations"] > 0,
                            "the star counterexample was not found")

            kind = f"certify {ineq} {space.split(':')[0]} n={n}"
            jobs.append(cli_job(kind, argv, code, check))
        return jobs

    # -- tree --------------------------------------------------------------

    def _setup_tree(self):
        self.csv = self._path("moduli.csv")
        # every CLI invocation is a fresh process that pays the APSP
        self.clear = getattr(trees.tree_graph, "cache_clear", lambda: None)

    def _jobs_tree(self, pass_index):
        cfg = self.cfg
        jobs = [self._invariant_job(t, inv)
                for t in cfg["umbel_trees"] for inv in UMBEL_IDS]
        jobs += [self._invariant_job(cfg["binary_tree"], inv)
                 for inv in BINARY_IDS]
        jobs.append(self.embed_job(cfg["distortion"]))
        jobs += [self._bourgain_report_job(inv)
                 for inv in ("umbel-cotype", "umbel-convexity")]
        return jobs

    def _invariant_job(self, tree, inv) -> Job:
        def check(doc):
            _expect(doc["invariant"] == inv, "wrong invariant echoed")
            if inv in COTYPE_IDS:
                k = math.log2(U.parse_tree_spec(tree).height)
                want = 2 * (k - 1) ** (1 / 2)
                _expect(_close(doc["ratio_root"], want),
                        f"identity ratio_root {doc['ratio_root']} != {want}")
            _same_every_pass(self._memo, (tree, inv), doc)

        argv = ["invariant", "--tree", tree, "--invariant", inv, "--p", "2"]
        return cli_job(f"invariant {inv} {tree}", argv, 0, check, self.clear)

    def embed_job(self, distortion: float) -> Job:
        tree = self.cfg["embed_tree"]
        height = U.parse_tree_spec(tree).height

        def prep():
            self.clear()
            if os.path.exists(self.csv):
                os.remove(self.csv)

        def check(doc):
            _expect(_close(doc["distortion"], distortion),
                    f"distortion {doc['distortion']} != {distortion}")
            _expect(doc["distortion"] <= 4 * math.sqrt(math.log2(2 * height)),
                    "distortion above 4 sqrt(log2(2h))")
            with open(self.csv) as fh:
                lines = fh.read().split()
            _expect(lines[0] == "t,rho,omega" and len(lines) > 1,
                    "moduli CSV is malformed")
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
            _expect(all(math.isfinite(x) for row in rows for x in row),
                    "moduli CSV has non-finite values")
            _same_every_pass(self._memo, "embed", (doc, rows))

        argv = ["embed", "--tree", tree, "--p", "2", "--csv", self.csv]
        return cli_job(f"embed {tree}", argv, 0, check, prep)

    def _bourgain_report_job(self, inv) -> Job:
        spec = U.parse_tree_spec(self.cfg["embed_tree"])

        def run():
            # a fresh map per job: nothing computed for one job may be
            # reused by the next, as with separate processes
            f = U.bourgain_embed(spec, 2.0)
            return U.report(U.InvariantId(inv), f, 2.0)

        def check(rep):
            _expect(rep.rhs > 0 and math.isfinite(rep.lhs)
                    and math.isfinite(rep.ratio_root), "degenerate report")
            _same_every_pass(self._memo, ("report", inv), (rep.lhs, rep.rhs))

        return Job(f"report {inv} bourgain {self.cfg['embed_tree']}", run,
                   check, self.clear)

    # -- extremal ----------------------------------------------------------

    def _setup_extremal(self):
        rng = np.random.default_rng(self.seed)
        pts = rng.normal(size=(TARGET_POINTS, TARGET_DIM))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        self.target_file = self._write(
            "target.json", {"n": TARGET_POINTS, "d": d.tolist()})
        with open(self.target_file) as fh:
            self.target = U.FiniteMatrixSpace.from_json(fh.read())
        path = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        self.path_file = self._write(
            "path3.json", {"n": 3, "d": path.astype(float).tolist()})
        self.pins_file = self._write("pins.json", {"pins": [[[], 0]]})
        self.l2 = U.LpSpace(3, 2.0)

    def _jobs_extremal(self, pass_index):
        # two K fits per pass (7 jobs): the median job then falls inside
        # one job kind instead of between two
        seeds = self._pass_seeds(pass_index, len(BINARY_IDS) + 2)
        jobs = [self._local_search_job(inv, seed)
                for inv, seed in zip(BINARY_IDS, seeds)]
        jobs.append(self.exhaustive_job(2.0))
        jobs += [self._fit_job(seed) for seed in seeds[-2:]]
        return jobs

    def _local_search_job(self, inv, seed) -> Job:
        spec = U.parse_tree_spec(SEARCH_TREE)
        verts = {tuple(v) for v in U.vertices(spec)}

        def check(doc):
            _expect(doc["feasible"] is True, "local search found nothing")
            assignment = {tuple(v): p for v, p in doc["assignment"]}
            _expect(set(assignment) == verts and assignment[()] == 0,
                    "assignment misses vertices or the pin")
            f = U.TreeMap(spec, self.target, assignment)
            ratio = (U.lhs(U.InvariantId(inv), f, 2.0)
                     / U.rhs(U.InvariantId(inv), f, 2.0))
            _expect(_close(doc["best_ratio"], ratio),
                    f"best_ratio {doc['best_ratio']} != recomputed {ratio}")

        argv = ["search", "--tree", SEARCH_TREE, "--invariant", inv,
                "--p", "2", "--target-file", self.target_file,
                "--pins-file", self.pins_file, "--mode", "local",
                "--restarts", str(self.cfg["restarts"]),
                "--steps", str(self.cfg["steps"]), "--seed", str(seed)]
        kind = (f"search local {inv} {SEARCH_TREE} restarts="
                f"{self.cfg['restarts']} steps={self.cfg['steps']}")
        return cli_job(kind, argv, 0, check)

    def exhaustive_job(self, best_ratio: float) -> Job:
        def check(doc):
            _expect(doc["feasible"] is True
                    and _close(doc["best_ratio"], best_ratio),
                    f"exhaustive best_ratio {doc['best_ratio']} != "
                    f"{best_ratio}")
            _same_every_pass(self._memo, "exhaustive", doc)

        argv = ["search", "--tree", "bin:h=2", "--invariant",
                "markov-directed", "--p", "2", "--target-file",
                self.path_file, "--pins-file", self.pins_file,
                "--mode", "exhaustive"]
        return cli_job("search exhaustive markov-directed", argv, 0, check)

    def _fit_job(self, seed) -> Job:
        ineq = U.InequalityId.Q_TRIPOD
        n = self.cfg["fit_samples"]

        def run():
            return U.min_feasible_K(self.l2, ineq, U.InequalityConfig(2.0),
                                    U.ball_sampler(self.l2, ineq), n=n,
                                    seed=seed, bracket=FIT_BRACKET)

        def check(K):
            _expect(FIT_BRACKET[0] <= K <= 1 + 1e-3, f"K = {K} above 1")
            rep = U.certify(self.l2, ineq, U.InequalityConfig(2.0, K),
                            U.ball_sampler(self.l2, ineq), n, seed)
            _expect(rep.violations == 0, f"K = {K} does not re-certify")

        return Job(f"min_feasible_K tripod n={n}", run, check)
