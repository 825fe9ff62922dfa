"""Self-test of the benchmark at tiny size; runs in about ten seconds.

    python3 perfbench/selftest.py

It checks that

* every job kind of every workload runs and passes its output check;
* an output check given a wrong expected value, and a job that exits with
  an unexpected code, both count as failed jobs;
* the work counts of a traced pass repeat exactly at one seed;
* a second seed gives the same job mix and sizes, with different inputs.

Prints one line per check and exits non-zero if any expectation breaks.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

COUNTS = ("pointwise.configs", "pointwise.violations", "search.evals",
          "pointwise.min_feasible_K.passes", "spaces.distance.calls",
          "invariants.TreeMap.init.calls", "trees.tree_graph.misses",
          "cli.main.calls")


def inputs(wl, jobs):
    """The jobs' argv with the workload's own directory masked out."""
    return [[a.replace(wl.workdir, "<dir>") for a in job.argv or ()]
            for job in jobs]


def main() -> int:
    run.bootstrap()
    import umbellab
    import tracing
    import workloads

    base = run.OUT / "work" / f"selftest-{os.getpid()}"
    broken = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            broken.append(what)

    def workload(name, seed, size="tiny"):
        return workloads.Workload(name, seed, str(base / f"{name}-{seed}"),
                                  size)

    def traced_counts(name, seed):
        # as in a fresh process: no tree distance table cached yet
        getattr(umbellab.trees.tree_graph, "cache_clear", lambda: None)()
        tracer = tracing.Tracer()
        tracer.active = True
        wl = workload(name, seed)
        run.run_pass(wl.jobs(0), 0, tracer,
                     lambda: tracing.install(tracer, umbellab))
        metrics = tracing.layer_metrics(tracer, 0.0)
        return {k: metrics[k][0] for k in COUNTS}

    try:
        for name in workloads.WORKLOADS:
            wl = workload(name, 1)
            for i in range(2):
                jobs = wl.jobs(i)
                _, _, outcomes = run.run_pass(jobs, i)
                failed = [f for f in outcomes if f]
                expect(not failed, f"{name} pass {i}: {len(jobs)} jobs pass "
                       f"their checks {failed}")

        tree, extremal = workload("tree", 3), workload("extremal", 3)
        wrong = [tree.embed_job(3.0), extremal.exhaustive_job(3.0),
                 workloads.cli_job("bad space", ["certify", "--space", "l9",
                                                 "--inequality", "tripod",
                                                 "--samples", "5"],
                                   0, lambda doc: None)]
        _, _, outcomes = run.run_pass(wrong, 0)
        expect(all(outcomes), "a wrong expected value or exit code fails "
               f"the job ({sum(map(bool, outcomes))} of {len(wrong)})")

        for name in workloads.WORKLOADS:
            first, second = traced_counts(name, 5), traced_counts(name, 5)
            expect(first == second, f"{name}: work counts repeat at one seed "
                   f"{first}")

        for name in workloads.WORKLOADS:
            for size in ("tiny", "full"):
                a, b = workload(name, 1, size), workload(name, 2, size)
                ja, jb = a.jobs(0), b.jobs(0)
                expect([j.kind for j in ja] == [j.kind for j in jb],
                       f"{name} {size}: same job mix and sizes at two seeds")
            if name != "tree":
                expect(inputs(a, ja) != inputs(b, jb),
                       f"{name}: the two seeds give different inputs")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(broken)} broken expectation(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
