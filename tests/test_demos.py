"""Every demo script runs to completion, with no warning, against the
sources in src/, and the README tables that name a demo print as it does."""

import functools
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_readme_search_table_is_what_demo_06_prints():
    # the best ratio and evaluation count of each binary id on bin:h=8, as
    # README's "Extremal search and K fits" table gives them; times vary
    proc = run_demo(ROOT / "demos" / "06_search_and_lift.py")
    assert proc.returncode == 0, proc.stderr
    printed = dict((inv, (ratio, int(evals))) for inv, ratio, evals in re.findall(
        r"^bin:h=8 (\S+) +best ratio ([\d.]+), (\d+) evaluations", proc.stdout, re.M))
    section = (ROOT / "README.md").read_text().split("## Extremal search and K fits")[1]
    table = section.split("| id | best ratio | evaluations | time |")[1].split("\n\n")[0]
    rows = dict((inv, (ratio, int(evals.replace(",", "")))) for inv, ratio, evals in
                re.findall(r"^\| (\S+) \| ([\d.]+) \| ([\d,]+) \|", table, re.M))
    assert len(rows) == 4 and rows == printed


def test_readme_alpha_table_is_what_demo_02_prints():
    # the min and max of alpha_k per space, as README's Certification table
    # gives them
    proc = run_demo(ROOT / "demos" / "02_certify_inequalities.py")
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"^  (\S+): min ([\d.]+), max ([\d.]+)$", proc.stdout, re.M)
    section = (ROOT / "README.md").read_text().split("## Certification")[1]
    table = section.split("| space | min α_k | max α_k |")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `(\S+)` \| ([\d.]+) \| ([\d.]+) \|$", table, re.M)
    assert len(rows) == 4 and rows == printed


def test_readme_moduli_table_is_what_demo_02_prints():
    # delta, delta~ and beta on l2 and l4, as README's "Convexity moduli"
    # table gives them
    proc = run_demo(ROOT / "demos" / "02_certify_inequalities.py")
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"^  (modulus_\w+)\(([\d.]+)\): (\S+) (\S+)$", proc.stdout, re.M)
    section = (ROOT / "README.md").read_text().split("## Convexity moduli")[1]
    table = section.split("| modulus | argument | `lp:p=2,dim=2` | `lp:p=4,dim=2` |")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([\d.]+) \| (\S+) \| (\S+) \|$",
                      table.split("\n\n")[0], re.M)
    assert len(rows) == 10 and rows == printed


def test_readme_worked_markov_values_are_what_demo_01_prints():
    # README's "E = 1 at s=0, t=1, q=1" against demo 01's lines
    proc = run_demo(ROOT / "demos" / "01_invariants_identity.py")
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"^markov pair expectation on bin:h=2 at s=(\d+), t=(\d+), "
                         r"q=(\d+): E = (\S+)$", proc.stdout, re.M)
    notes = (ROOT / "README.md").read_text().split("## Notes on the random-walk functional")[1]
    worked = re.findall(r"`E = (\S+)` at\s+`s=(\d+), t=(\d+), q=(\d+)`", notes)
    assert len(worked) == 2
    assert [(s, t, q, e) for e, s, t, q in worked] == printed


def test_readme_binary_bourgain_table_is_what_demo_04_prints():
    # the ratio_root of the four binary ids on Bourgain's map of bin:h=H,
    # as README's "Tree geometry" table gives them
    proc = run_demo(ROOT / "demos" / "04_embeddings_compression.py")
    assert proc.returncode == 0, proc.stderr
    ids = ["markov-directed", "fork-convexity", "fork-cotype", "tessera"]
    printed = []
    for h, rest in re.findall(r"^  H=(\d+): (.*)$", proc.stdout, re.M):
        names, ratios = zip(*re.findall(r"(\S+) ([\d.]+)", rest))
        assert list(names) == ids
        printed.append((h, *ratios))
    section = (ROOT / "README.md").read_text().split("## Tree geometry")[1]
    table = section.split(f"| H | {' | '.join(ids)} |")[1].split("\n\n")[0]
    rows = re.findall(r"^\| (\d+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                      table, re.M)
    assert len(rows) == 3 and rows == printed
